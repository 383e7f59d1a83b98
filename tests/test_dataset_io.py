import io
import json
import pathlib
import re
import struct
import tempfile
import wave
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from ssk.dataset_io import (FEATURE_MAGIC, FEATURE_VERSION, DataFormatError, Manifest,
                            SourceEntry, UtteranceEntry, read_features, read_manifest,
                            read_wav, write_features, write_manifest, write_wav)
from ssk.geometry import MicArray, circular_array
from ssk.spatial_features import FeatureStack

import oracles
from conftest import traced_peak


class TestWav:
    def test_float32_round_trip_bit_exact(self, tmp_path, rng):
        wav = rng.standard_normal((6, 16000)).astype(np.float32)
        path = tmp_path / "six.wav"
        write_wav(path, wav, 16000)
        back, rate = read_wav(path)
        assert rate == 16000
        npt.assert_array_equal(back.astype(np.float32), wav)

    def test_pcm16_round_trip_quantization_bound(self, tmp_path, rng):
        wav = np.clip(rng.standard_normal(8000) * 0.3, -0.99, 0.99)
        path = tmp_path / "mono.wav"
        write_wav(path, wav, 16000, encoding="pcm16")
        back, _ = read_wav(path)
        assert np.abs(back[0] - wav).max() <= 1.0 / 32768.0

    def test_mono_read_is_channels_first(self, tmp_path, rng):
        write_wav(tmp_path / "m.wav", rng.standard_normal(100).astype(np.float32), 8000)
        back, rate = read_wav(tmp_path / "m.wav")
        assert back.shape == (1, 100)
        assert rate == 8000

    def test_rate_mismatch_rejected(self, tmp_path, rng):
        write_wav(tmp_path / "r.wav", rng.standard_normal(100).astype(np.float32), 8000)
        with pytest.raises(DataFormatError, match="8000"):
            read_wav(tmp_path / "r.wav", expected_rate=16000)

    def test_truncated_file_rejected(self, tmp_path, rng):
        path = tmp_path / "t.wav"
        write_wav(path, rng.standard_normal(1000).astype(np.float32), 16000)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(DataFormatError):
            read_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(DataFormatError, match="encoding"):
            read_wav(path)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(tmp_path / "n.wav", np.array([np.nan, 0.0]), 16000)

    def test_unknown_write_encoding(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_wav(tmp_path / "x.wav", np.zeros(10), 16000, encoding="pcm24")

    @pytest.mark.parametrize("waveform", [[0.1, 1e39], [[0.0, -4e38], [0.2, 0.3]]],
                             ids=["mono", "stereo"])
    def test_float32_overflow_rejected(self, tmp_path, waveform):
        # A finite float64 sample beyond the float32 range would be written
        # as inf, which read_wav rejects: the float32 payload is checked, and
        # nothing is written.
        with pytest.raises(ValueError, match="finite"):
            write_wav(tmp_path / "o.wav", np.array(waveform), 16000)
        assert list(tmp_path.iterdir()) == []
        write_wav(tmp_path / "p.wav", np.array(waveform), 16000, encoding="pcm16")
        assert np.abs(read_wav(tmp_path / "p.wav")[0]).max() <= 1.0


def _wav_file(path, samples: np.ndarray) -> None:
    """``samples`` (n, J), PCM16 or float32, as a WAV file written byte by byte."""
    tag, bits = (1, 16) if samples.dtype == np.int16 else (3, 32)
    path.write_bytes(_riff(_fmt(tag, samples.shape[1], bits),
                           (b"data", samples.astype(samples.dtype.newbyteorder("<")).tobytes())))


class TestWavChannel:
    """``read_wav(path, channel=k)`` is ``read_wav(path)[0][k]``, decoded alone."""

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 6), frames=st.integers(1, 400),
           pcm=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
    def test_equals_the_row_of_a_full_read(self, channels, frames, pcm, seed):
        r = np.random.default_rng(seed)
        samples = (r.integers(-32768, 32768, (frames, channels)).astype(np.int16) if pcm
                   else r.uniform(-1.0, 1.0, (frames, channels)).astype(np.float32))
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "x.wav"
            _wav_file(path, samples)
            full, rate = read_wav(path, expected_rate=16000)
            for k in range(channels):
                row, row_rate = read_wav(path, expected_rate=16000, channel=k)
                assert row_rate == rate
                assert row.shape == (frames,) and row.dtype == np.float64
                assert row.base is None and row.flags.c_contiguous
                assert row.tobytes() == full[k].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_another_channel_raises(self, tmp_path, bad):
        samples = np.zeros((50, 4), dtype=np.float32)
        samples[17, 2] = bad
        _wav_file(tmp_path / "n.wav", samples)
        for k in (0, 3):
            with pytest.raises(DataFormatError, match="non-finite"):
                read_wav(tmp_path / "n.wav", channel=k)

    def test_checks_cover_the_whole_file(self, tmp_path):
        _wav_file(tmp_path / "r.wav", np.zeros((50, 2), dtype=np.float32))
        with pytest.raises(DataFormatError, match="8000"):
            read_wav(tmp_path / "r.wav", expected_rate=8000, channel=0)
        for k in (2, -1):
            with pytest.raises(DataFormatError, match="channel"):
                read_wav(tmp_path / "r.wav", channel=k)

    @pytest.mark.parametrize("dtype", [np.float32, np.int16])
    def test_no_frames(self, tmp_path, dtype):
        _wav_file(tmp_path / "e.wav", np.zeros((0, 3), dtype=dtype))
        assert read_wav(tmp_path / "e.wav")[0].shape == (3, 0)
        assert read_wav(tmp_path / "e.wav", channel=2)[0].shape == (0,)

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_decodes_only_its_column(self, tmp_path, rng, encoding):
        # A 2.45 s six-channel image: the file's bytes, the row and a
        # one-byte finiteness flag per sample, not the (J, n) float64 array a
        # full read builds.
        path = tmp_path / "six.wav"
        write_wav(path, rng.uniform(-0.5, 0.5, (6, 39_247)), 16000, encoding=encoding)
        (row, _), peak = traced_peak(lambda: read_wav(path, channel=3))
        assert peak <= path.stat().st_size + row.nbytes + 6 * row.size + row.nbytes // 32


def _riff(*chunks):
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                              for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag, channels, bits, rate=16000):
    block = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)


class TestWavOracle:
    """scipy.io.wavfile is the reference reader and writer."""

    @settings(max_examples=40, deadline=None)
    @given(channels=st.integers(1, 8), frames=st.integers(1, 2000),
           encoding=st.sampled_from(["float32", "pcm16"]),
           rate=st.sampled_from([8000, 16000, 44100]), seed=st.integers(0, 2 ** 31 - 1))
    def test_bytes_and_samples_match_scipy(self, channels, frames, encoding, rate, seed):
        r = np.random.default_rng(seed)
        if encoding == "pcm16":
            stored = r.integers(-32768, 32768, (frames, channels)).astype(np.int16)
            waveform = stored.T / 32768.0
        else:
            stored = r.uniform(-1.0, 1.0, (frames, channels)).astype(np.float32)
            waveform = stored.T
        if channels == 1:
            stored, waveform = stored[:, 0], waveform[0]
        expected = io.BytesIO()
        wavfile.write(expected, rate, stored)
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "x.wav"
            write_wav(path, waveform, rate, encoding=encoding)
            assert path.read_bytes() == expected.getvalue()
            back, back_rate = read_wav(path)
        ref_rate, ref = wavfile.read(io.BytesIO(expected.getvalue()))
        assert back_rate == ref_rate == rate
        ref = ref.astype(float) / 32768.0 if ref.dtype == np.int16 else ref.astype(float)
        npt.assert_array_equal(back, ref.reshape(frames, channels).T)

    def test_reads_stdlib_wave_pcm16(self, tmp_path, rng):
        pcm = rng.integers(-32768, 32768, (500, 2)).astype("<i2")
        with wave.open(str(tmp_path / "w.wav"), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(pcm.tobytes())
        back, rate = read_wav(tmp_path / "w.wav", expected_rate=16000)
        assert rate == 16000
        npt.assert_array_equal(back, pcm.T / 32768.0)

    @pytest.mark.parametrize("tag, bits, dtype", [(1, 16, "<i2"), (3, 32, "<f4")])
    def test_reads_extensible_with_odd_sized_extra_chunk(self, tmp_path, rng, tag, bits, dtype):
        samples = (rng.uniform(-0.5, 0.5, (300, 3)) * (32768 if tag == 1 else 1)).astype(dtype)
        _, basic = _fmt(0xFFFE, 3, bits)
        guid = struct.pack("<I", tag) + bytes.fromhex("00001000800000aa00389b71")
        ext = basic + struct.pack("<HHI", 22, bits, 0b111) + guid
        raw = _riff((b"fmt ", ext), (b"LIST", b"odd"), (b"data", samples.tobytes()))
        (tmp_path / "e.wav").write_bytes(raw)
        back, _ = read_wav(tmp_path / "e.wav")
        expected = samples.astype(float) / (32768.0 if tag == 1 else 1.0)
        npt.assert_array_equal(back, expected.T)
        _, ref = wavfile.read(io.BytesIO(raw))
        npt.assert_array_equal(ref, samples)


class TestWavRejects:
    """Malformed files from outside the program raise DataFormatError."""

    def _read(self, tmp_path, raw, match):
        (tmp_path / "bad.wav").write_bytes(raw)
        with pytest.raises(DataFormatError, match=match):
            read_wav(tmp_path / "bad.wav")

    def test_non_finite_float_samples(self, tmp_path):
        data = np.array([0.0, np.inf, 0.5], dtype="<f4").tobytes()
        self._read(tmp_path, _riff(_fmt(3, 1, 32), (b"data", data)), "non-finite")

    def test_chunk_past_end_of_file(self, tmp_path):
        raw = _riff(_fmt(1, 1, 16), (b"data", b"\0" * 8))
        raw = raw[:-8] + b"\0" * 4  # data chunk claims 8 bytes, 4 remain
        self._read(tmp_path, raw, "past the end")

    def test_missing_fmt_chunk(self, tmp_path):
        self._read(tmp_path, _riff((b"data", b"\0" * 8)), "fmt")

    def test_missing_data_chunk(self, tmp_path):
        self._read(tmp_path, _riff(_fmt(1, 1, 16), (b"LIST", b"info")), "data")

    def test_data_not_whole_frames(self, tmp_path):
        self._read(tmp_path, _riff(_fmt(1, 2, 16), (b"data", b"\0" * 6)), "whole number")


def _manifest():
    sources = (
        SourceEntry(azimuth_deg=10.0, angle_difference_deg=80.0, gain_db=0.0,
                    image="img0.wav", dry="dry0.wav"),
        SourceEntry(azimuth_deg=90.0, angle_difference_deg=80.0, gain_db=-3.0,
                    image="img1.wav", dry="dry1.wav"),
    )
    utt = UtteranceEntry(id="utt_00000", seed=7, mixture="mix.wav", sources=sources,
                         t60=0.21, room_dimensions=(5.0, 6.0, 3.0),
                         array_center=(2.0, 2.5, 1.4))
    return Manifest(sample_rate=16000, array=circular_array(6, 0.07), utterances=(utt,))


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = _manifest()
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        back = read_manifest(path)
        assert back.sample_rate == manifest.sample_rate
        npt.assert_array_equal(back.array.positions, manifest.array.positions)
        assert back.array.ref_index == manifest.array.ref_index
        assert back.utterances == manifest.utterances
        write_manifest(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, _manifest())
        doc = json.loads(path.read_text())
        doc["utterances"][0]["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="surprise"):
            read_manifest(path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, _manifest())
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="schema_version"):
            read_manifest(path)

    @pytest.mark.parametrize("ids", [["utt_00000", "utt_00000"], ["../escaped"], ["a/b"],
                                     ["/abs"], ["sub/"], [""], ["."], [".."]],
                             ids=["repeated", "parent", "subdir", "absolute", "trailing-slash",
                                  "empty", "dot", "dot-dot"])
    def test_id_must_be_a_file_name_no_other_has(self, tmp_path, ids):
        # Each stage names its outputs after the id: a repeated id would
        # overwrite another utterance's outputs, and a path-like one would
        # write outside the output directory.
        path = tmp_path / "manifest.json"
        utt = _manifest().utterances[0]
        write_manifest(path, Manifest(sample_rate=16000, array=circular_array(6, 0.07),
                                      utterances=tuple(replace(utt, id=i) for i in ids)))
        where = f"field 'id' of utterance {ids[-1]!r} "
        with pytest.raises(DataFormatError, match=re.escape(where)):
            read_manifest(path)

    def test_empty_utterance_list_valid(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, Manifest(sample_rate=16000, array=circular_array(2, 0.1),
                                      utterances=()))
        assert read_manifest(path).utterances == ()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_sources = st.builds(SourceEntry, azimuth_deg=_finite, angle_difference_deg=_finite,
                     gain_db=_finite, image=st.text(), dry=st.text())
# Ids are plain file names, each used once (see test_id_must_be_a_file_name_no_other_has).
_ids = st.text().filter(lambda i: i not in ("", "..") and pathlib.Path(i).name == i)
_utterances = st.builds(UtteranceEntry, id=_ids, seed=st.integers(0, 2 ** 31 - 1),
                        mixture=st.text(), sources=st.lists(_sources, min_size=1,
                                                            max_size=3).map(tuple),
                        t60=_finite, room_dimensions=st.tuples(_finite, _finite, _finite),
                        array_center=st.tuples(_finite, _finite, _finite))
_arrays = st.integers(1, 8).flatmap(lambda mics: st.builds(
    lambda diameter, ref: MicArray(circular_array(mics, diameter).positions, ref_index=ref),
    st.floats(0.01, 1.0), st.integers(0, mics - 1)))
_manifests = st.builds(Manifest, sample_rate=st.integers(1, 192_000), array=_arrays,
                       utterances=st.lists(_utterances, min_size=1, max_size=3,
                                           unique_by=lambda u: u.id).map(tuple))
# Values of the wrong kind for each kind of required field.
_DELETE = object()
_WRONG = {
    "string": [None, 3, 1.5, True, [], {}],
    "integer": [None, "7", 7.5, True, [], {}],
    "number": [None, "1.0", True, [], {}, float("nan"), float("inf")],
    "point": [None, "x", 1.0, [], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, "2", 3.0],
              [1.0, None, 3.0], [1.0, float("nan"), 3.0]],
    "list": [None, "x", 3, {}],
}
_TOP = {"schema_version": "integer", "sample_rate": "integer", "utterances": "list"}
_UTT = {"id": "string", "seed": "integer", "mixture": "string", "sources": "list",
        "t60": "number", "room_dimensions": "point", "array_center": "point"}
_SRC = {"azimuth_deg": "number", "angle_difference_deg": "number", "gain_db": "number",
        "image": "string", "dry": "string"}


class TestManifestProperties:
    @settings(max_examples=50, deadline=None)
    @given(_manifests)
    def test_write_read_round_trip(self, manifest):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "manifest.json"
            write_manifest(path, manifest)
            back = read_manifest(path)
            assert back.to_dict() == manifest.to_dict()
            assert back.utterances == manifest.utterances
            npt.assert_array_equal(back.array.positions, manifest.array.positions)
            write_manifest(pathlib.Path(d) / "again.json", back)
            assert (pathlib.Path(d) / "again.json").read_bytes() == path.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(_manifests)
    def test_byte_layout(self, manifest):
        # Every field of every utterance, in schema order, two-space indented.
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "manifest.json"
            write_manifest(path, manifest)
            expected = json.dumps(oracles.manifest_doc(manifest), indent=2) + "\n"
            assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(_manifests, st.sampled_from([
        lambda doc: doc.pop("array"),
        lambda doc: doc.update(array=None),
        lambda doc: doc.update(array=[[0.0, 0.0, 0.0]]),
        lambda doc: doc["array"].pop("positions"),
        lambda doc: doc["array"].pop("ref_index"),
        lambda doc: doc["array"].update(positions="x"),
        lambda doc: doc["array"].update(positions=[[0.0, 0.0]]),
        lambda doc: doc["array"].update(positions=[[0.0, 0.0, 0.0], [0.0, 0.0]]),
        lambda doc: doc["array"].update(positions=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        lambda doc: doc["array"].update(ref_index=0.5),
        lambda doc: doc["array"].update(ref_index=doc["array"]["num_mics"]),
        lambda doc: doc["array"].update(num_mics=doc["array"]["num_mics"] + 1),
        # Booleans are not integers and strings are not numbers, as in _fields.
        lambda doc: doc["array"].update(ref_index=True),
        lambda doc: doc["array"].update(ref_index=False),
        lambda doc: doc["array"].update(ref_index="0"),
        lambda doc: doc["array"].update(num_mics=True),
        lambda doc: doc["array"].update(num_mics=float(doc["array"]["num_mics"])),
        lambda doc: doc["array"]["positions"][0].__setitem__(0, "0.0175"),
        lambda doc: doc["array"]["positions"][-1].__setitem__(2, True),
        lambda doc: doc["array"]["positions"][0].__setitem__(1, None),
        lambda doc: doc["array"].update(positions=[]),
    ]))
    def test_missing_or_malformed_array_is_a_format_error(self, manifest, edit):
        doc = manifest.to_dict()
        edit(doc)
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "manifest.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(DataFormatError, match="manifest array is missing or malformed"):
                read_manifest(path)

    @settings(max_examples=200, deadline=None)
    @given(_manifests, st.data())
    def test_deleted_or_retyped_field_is_a_format_error(self, manifest, data):
        doc = manifest.to_dict()
        level = data.draw(st.sampled_from(["top", "utterance", "source"]))
        if level == "top":
            obj, kinds = doc, _TOP
        else:
            utt = data.draw(st.sampled_from(doc["utterances"]))
            obj, kinds = utt, _UTT
            if level == "source":
                obj, kinds = data.draw(st.sampled_from(utt["sources"])), _SRC
        name = data.draw(st.sampled_from(sorted(kinds)))
        wrong = data.draw(st.sampled_from([_DELETE] + _WRONG[kinds[name]]))
        if wrong is _DELETE:
            del obj[name]
        else:
            obj[name] = wrong
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "manifest.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(DataFormatError, match=f"'{name}'"):
                read_manifest(path)


class TestFeatures:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        data = rng.standard_normal((100, 297)).astype(np.float32)
        stack = FeatureStack(data=data, layout=(("lps", 33), ("cosipd", 198),
                                                ("af:tgt", 33), ("dpr:tgt", 33)))
        path = tmp_path / "f.tsnf"
        write_features(path, stack)
        back = read_features(path)
        npt.assert_array_equal(back.data, data)
        assert back.layout == stack.layout

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "f.tsnf"
        stack = FeatureStack(data=rng.standard_normal((4, 5)).astype(np.float32),
                             layout=(("x", 5),))
        write_features(path, stack)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DataFormatError, match="bytes"):
            read_features(path)

    def test_bad_magic_rejected(self, tmp_path, rng):
        path = tmp_path / "f.tsnf"
        stack = FeatureStack(data=rng.standard_normal((4, 5)).astype(np.float32),
                             layout=(("x", 5),))
        write_features(path, stack)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            read_features(path)

    def test_unsupported_version_rejected(self, tmp_path, rng):
        path = tmp_path / "f.tsnf"
        stack = FeatureStack(data=rng.standard_normal((4, 5)).astype(np.float32),
                             layout=(("x", 5),))
        write_features(path, stack)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 5, 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_features(path)

    @pytest.mark.parametrize("layout, dim", [([["a", -1], ["b", 5]], 4), ([["a", 0], ["b", 4]], 4),
                                             ([], 0), ([["a", 3]], 4),
                                             ([["af:tgt", 2], ["af:tgt", 2]], 4)],
                             ids=["negative-width", "zero-width", "empty", "widths-not-dim",
                                  "repeated-name"])
    def test_bad_layout_rejected_naming_the_file(self, tmp_path, layout, dim):
        # The layout slices the payload into blocks, so one with a block
        # narrower than a column, no block, widths that do not sum to D, or
        # a name that repeats (whose second block no name could reach) is
        # refused like a bad header: a DataFormatError that names the file.
        text = json.dumps(layout).encode("utf-8")
        path = tmp_path / "f.tsnf"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<HIII", FEATURE_VERSION, 2, dim, len(text))
                         + text + np.zeros((2, dim), dtype="<f4").tobytes())
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            read_features(path)

    def test_stack_refuses_a_repeated_block_name(self):
        # block() could reach only the first of two blocks of one name.
        with pytest.raises(ValueError, match="more than once"):
            FeatureStack(data=np.zeros((2, 4), dtype=np.float32),
                         layout=(("af:tgt", 2), ("af:tgt", 2)))

    def test_stack_holds_float32_only(self, rng):
        # A stack holds what its file holds, so reading back is bit-equal.
        with pytest.raises(ValueError, match="float32"):
            FeatureStack(data=rng.standard_normal((4, 5)), layout=(("x", 5),))

    def test_write_copies_no_payload(self, tmp_path, rng):
        # The stack's float32 buffer is written as it is: no byte copy of the
        # payload, nor a file image assembled in memory.
        stack = FeatureStack(data=rng.standard_normal((2000, 363)).astype(np.float32),
                             layout=(("x", 363),))
        _, peak = traced_peak(lambda: write_features(tmp_path / "f.tsnf", stack))
        assert peak < 0.1 * stack.data.nbytes

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 20), st.integers(0, 2 ** 31 - 1))
    def test_round_trip_random_shapes(self, frames, width, seed):
        r = np.random.default_rng(seed)
        data = r.standard_normal((frames, width)).astype(np.float32)
        stack = FeatureStack(data=data, layout=(("block", width),))
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "f.tsnf"
            write_features(path, stack)
            back = read_features(path)
        npt.assert_array_equal(back.data, data)
