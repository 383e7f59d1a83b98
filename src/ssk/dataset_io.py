"""Persistence: multichannel WAV, scene manifests and binary feature tensors.

Waveforms are channels-first float arrays in memory and RIFF/WAVE on disk.
The WAV subset is little-endian RIFF with 16-bit PCM (format 1) or 32-bit
IEEE float (format 3) samples, either also wrapped in WAVE_FORMAT_EXTENSIBLE;
other chunks are skipped. Manifests are a single versioned JSON document
with paths relative to the manifest location. Feature tensors use the
little-endian TSNF1 container laid out in the comment above
:func:`write_features`.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .geometry import MicArray

MANIFEST_SCHEMA_VERSION = 1
FEATURE_MAGIC = b"TSNF1"
FEATURE_VERSION = 1


class DataFormatError(ValueError):
    """Malformed or unsupported on-disk data."""


def atomic_write_bytes(path, *chunks) -> None:
    """Write ``chunks`` (bytes-like, in order) via a temp file in the same
    directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with a final newline, atomically."""
    atomic_write_bytes(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# WAV


# (format tag, bits per sample) -> sample dtype, for the supported encodings.
_WAV_DTYPES = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4")}
# WAVE_FORMAT_EXTENSIBLE stores the real tag in the first 4 bytes of a
# sub-format GUID ending in these 12 bytes.
_EXTENSIBLE = 0xFFFE
_GUID_TAIL = bytes.fromhex("00001000800000aa00389b71")


def _chunk(chunk_id: bytes, payload: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(payload)) + payload


def write_wav(path, waveform: np.ndarray, sample_rate: int,
              encoding: str = "float32") -> None:
    """Write mono (n,) or multichannel (J, n) audio as PCM16 or float32.

    PCM files carry a 16-byte ``fmt `` chunk, float files an 18-byte one
    (``cbSize`` 0) followed by a ``fact`` chunk holding the frame count.
    A waveform that is not finite, or not finite in float32, raises
    :class:`ValueError` and writes nothing.
    """
    wav = np.asarray(waveform)
    if wav.ndim == 1:
        data = wav[:, None]
    elif wav.ndim == 2:
        data = wav.T
    else:
        raise ValueError("waveform must be 1-D or (channels, samples)")
    # C order: frames interleave channels, and ``payload`` is written as is.
    # Each encoding checks what it writes: a finite sample beyond the float32
    # range casts to inf, and PCM16 clips every finite sample.
    if encoding == "float32":
        with np.errstate(over="ignore"):  # an overflow raises below
            payload, tag = data.astype("<f4", order="C"), 3
        if not np.all(np.isfinite(payload)):
            raise ValueError("waveform must be finite in float32")
    elif encoding == "pcm16":
        if not np.all(np.isfinite(data)):
            raise ValueError("waveform must be finite")
        clipped = np.clip(np.round(data * 32768.0), -32768, 32767)
        payload, tag = clipped.astype("<i2", order="C"), 1
    else:
        raise DataFormatError(f"unsupported encoding {encoding!r}")
    frames, channels = payload.shape
    rate, block = int(sample_rate), channels * payload.itemsize
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, 8 * payload.itemsize)
    header = _chunk(b"fmt ", fmt) if tag == 1 else (
        _chunk(b"fmt ", fmt + b"\0\0") + _chunk(b"fact", struct.pack("<I", frames)))
    head = b"WAVE" + header + b"data" + struct.pack("<I", payload.nbytes)
    atomic_write_bytes(path, b"RIFF" + struct.pack("<I", len(head) + payload.nbytes) + head,
                       payload)


def _riff_chunks(raw: bytes, path) -> dict[bytes, memoryview]:
    """Chunk id -> payload of a RIFF/WAVE file (first of each id; odd sizes
    are padded). Raises :class:`DataFormatError` for a chunk past the end."""
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataFormatError(f"{path}: not a RIFF/WAVE file")
    end = min(len(raw), 8 + struct.unpack_from("<I", raw, 4)[0])
    chunks: dict[bytes, memoryview] = {}
    offset = 12
    while offset + 8 <= end:
        chunk_id, size = struct.unpack_from("<4sI", raw, offset)
        offset += 8
        if offset + size > end:
            raise DataFormatError(
                f"{path}: {chunk_id!r} chunk of {size} bytes runs past the end of the file")
        chunks.setdefault(chunk_id, memoryview(raw)[offset:offset + size])
        offset += size + size % 2
    return chunks


def read_wav(path, expected_rate: int | None = None, expected_channels: int | None = None,
             channel: int | None = None) -> tuple[np.ndarray, int]:
    """Read a WAV file into a channels-first float array (J, n), or with
    ``channel`` into that channel alone, an owned contiguous (n,) row
    equal to ``read_wav(path)[0][channel]``; only that column is decoded.

    PCM16 samples are scaled to [-1, 1); float32 passes through. Other
    encodings, malformed chunks, non-finite samples in any channel, a
    ``channel`` the file does not have, a rate different from
    ``expected_rate`` and a channel count different from
    ``expected_channels`` (the microphones of a manifest's array) raise
    :class:`DataFormatError`.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read WAV {path}: {exc}") from exc
    chunks = _riff_chunks(raw, path)
    fmt, data = chunks.get(b"fmt ", b""), chunks.get(b"data")
    if len(fmt) < 16 or data is None:
        raise DataFormatError(f"{path}: needs a 16-byte 'fmt ' chunk and a 'data' chunk")
    tag, channels, rate, _, block, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and fmt[28:40] == _GUID_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    dtype = _WAV_DTYPES.get((tag, bits))
    if dtype is None or channels < 1 or block != channels * dtype.itemsize:
        raise DataFormatError(f"unsupported WAV encoding (format {tag:#x}, {bits}-bit, "
                              f"{channels}-channel) in {path} (PCM16/float32 only)")
    if len(data) % block:
        raise DataFormatError(
            f"{path}: data chunk of {len(data)} bytes is not a whole number of {block}-byte frames")
    samples = np.frombuffer(data, dtype=dtype).reshape(-1, channels)
    if dtype.kind == "f" and not np.all(np.isfinite(samples)):
        raise DataFormatError(f"{path}: non-finite samples")
    if expected_rate is not None and rate != expected_rate:
        raise DataFormatError(
            f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz")
    if expected_channels is not None and channels != expected_channels:
        raise DataFormatError(f"{path}: {channels} channels, the manifest array has "
                              f"{expected_channels} microphones")
    if channel is not None:
        if not 0 <= channel < channels:
            raise DataFormatError(f"{path}: {channels} channel(s), channel {channel} requested")
        samples = samples[:, channel]
    wav = samples.astype(float)
    if dtype.kind == "i":
        wav /= 32768.0
    return (wav if channel is not None else wav.T), int(rate)


# ---------------------------------------------------------------------------
# Manifest

def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# Kinds of manifest field: (check, what a value must be, conversion on read).
_KINDS = {
    "string": (lambda v: isinstance(v, str), "a string", str),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "number": (_is_number, "a finite number", float),
    "point": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
              "a list of 3 finite numbers", lambda v: tuple(map(float, v))),
    "list": (lambda v: isinstance(v, list), "a list", list),
}
# Required fields and their kinds. ``schema_version`` is checked first and
# ``array`` by :func:`_mic_array`, each on its own.
_SOURCE_FIELDS = {"azimuth_deg": "number", "angle_difference_deg": "number",
                  "gain_db": "number", "image": "string", "dry": "string"}
_UTT_FIELDS = {"id": "string", "seed": "integer", "mixture": "string", "sources": "list",
               "t60": "number", "room_dimensions": "point", "array_center": "point"}
_TOP_FIELDS = {"sample_rate": "integer", "utterances": "list"}
_TOP_APART = ("schema_version", "array")


@dataclass(frozen=True)
class SourceEntry:
    azimuth_deg: float
    angle_difference_deg: float
    gain_db: float
    image: str
    dry: str


@dataclass(frozen=True)
class UtteranceEntry:
    id: str
    seed: int
    mixture: str
    sources: tuple[SourceEntry, ...]
    t60: float
    room_dimensions: tuple[float, float, float]
    array_center: tuple[float, float, float]

    def stem(self, target: int) -> str:
        """File stem of one target's features and estimate."""
        return f"{self.id}_tgt{target}"


@dataclass(frozen=True)
class Manifest:
    sample_rate: int
    array: MicArray
    utterances: tuple[UtteranceEntry, ...]
    # Absolute location of the manifest file, set on load, never serialized.
    base_dir: Path | None = field(default=None, compare=False)

    def read(self, relative: str, ref_row: bool = False) -> np.ndarray:
        """The dataset WAV at ``relative`` (a mixture or source image), (J, n),
        or with ``ref_row`` its reference-mic row alone, (n,), owning its
        data. The file must have the manifest's sample rate and one channel
        per array microphone."""
        path = Path(relative) if self.base_dir is None else self.base_dir / relative
        wav, _ = read_wav(path, expected_rate=self.sample_rate,
                          expected_channels=self.array.num_mics,
                          channel=self.array.ref_index if ref_row else None)
        return wav

    def to_dict(self) -> dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "sample_rate": self.sample_rate,
            "array": {"num_mics": self.array.num_mics, "ref_index": self.array.ref_index,
                      "positions": self.array.positions.tolist()},
            "utterances": [asdict(u) for u in self.utterances],
        }


def write_manifest(path, manifest: Manifest) -> None:
    write_json(path, manifest.to_dict())


def read_manifest(path) -> Manifest:
    """Load a manifest. A schema mismatch, an unknown field, or a missing or
    mistyped required field raises :class:`DataFormatError` that names the
    field and its utterance; so does a missing or malformed ``array``, and
    an utterance id that repeats or is not a plain file name (outputs are
    named after it). A referenced WAV is checked only where it is read
    (:meth:`Manifest.read`), so a missing one fails only its utterance.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: manifest must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
        raise DataFormatError(
            f"{path}: unsupported manifest 'schema_version' {version!r}, "
            f"this reader supports {MANIFEST_SCHEMA_VERSION}")
    top = _fields(doc, _TOP_FIELDS, path, "manifest", optional=_TOP_APART)
    utterances, ids = [], set()
    for i, u in enumerate(top["utterances"]):
        where = (f"utterance {u['id']!r}" if isinstance(u, dict) and isinstance(u.get("id"), str)
                 else f"utterance #{i}")
        fields = _fields(u, _UTT_FIELDS, path, where)
        name = fields["id"]
        if name in ids or name in ("", "..") or Path(name).name != name:
            raise DataFormatError(f"{path}: field 'id' of {where} must be a plain file "
                                  "name that no other utterance has")
        ids.add(name)
        fields["sources"] = tuple(
            SourceEntry(**_fields(src, _SOURCE_FIELDS, path, f"source {k} of {where}"))
            for k, src in enumerate(fields["sources"]))
        utterances.append(UtteranceEntry(**fields))
    return Manifest(sample_rate=top["sample_rate"], array=_mic_array(doc.get("array"), path),
                    utterances=tuple(utterances), base_dir=path.parent.resolve())


def _mic_array(array, path) -> MicArray:
    """The manifest's ``array`` object, ``{"num_mics": J, "ref_index": r,
    "positions": [[x, y, z], ...]}`` (``num_mics`` optional), as the array the
    dataset was rendered with; :class:`DataFormatError` when it is missing or
    malformed. Its fields take the kinds of :func:`_fields`: integers that
    are not booleans, coordinates that are finite numbers, not strings."""
    try:
        kinds = {"ref_index": "integer", "positions": "list"}
        if "num_mics" in array:
            kinds["num_mics"] = "integer"
        fields = _fields(array, kinds, path, "the array")
        point, what, _ = _KINDS["point"]
        for k, position in enumerate(fields["positions"]):
            if not point(position):
                raise ValueError(f"position {k} must be {what}, got {position!r}")
        positions = np.array(fields["positions"], dtype=float)
        if fields.get("num_mics", len(positions)) != len(positions):
            raise ValueError(f"num_mics {fields['num_mics']} for {len(positions)} positions")
        return MicArray(positions, ref_index=fields["ref_index"])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: manifest array is missing or malformed: {exc!r}") from exc


def _fields(mapping, kinds: dict, path, where: str, optional=()) -> dict:
    """The required fields of one manifest object, each checked against its
    kind in ``kinds`` and converted. A missing or mistyped field, or one that
    is neither required nor ``optional``, raises :class:`DataFormatError`
    naming it and ``where`` it sits."""
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{path}: {where} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - set(kinds) - set(optional)
    if unknown:
        raise DataFormatError(
            f"{path}: unknown fields {sorted(unknown)} in {where} "
            f"(schema_version {MANIFEST_SCHEMA_VERSION})")
    out = {}
    for name, kind in kinds.items():
        if name not in mapping:
            raise DataFormatError(f"{path}: {where} lacks required field {name!r}")
        check, what, convert = _KINDS[kind]
        if not check(mapping[name]):
            raise DataFormatError(
                f"{path}: field {name!r} of {where} must be {what}, got {mapping[name]!r}")
        out[name] = convert(mapping[name])
    return out


# ---------------------------------------------------------------------------
# Feature files (TSNF1)
#
# magic "TSNF1" | version u16 | T u32 | D u32 | layout-length u32 |
# layout JSON (utf-8) | T*D float32 row-major, all little-endian. The payload
# is the FeatureStack's own float32 buffer, written and read in place.


def write_features(path, stack) -> None:
    layout = list(stack.layout)
    data = np.ascontiguousarray(stack.data, dtype="<f4")
    frames, dim = data.shape
    layout_bytes = json.dumps([[name, int(width)] for name, width in layout]).encode("utf-8")
    header = FEATURE_MAGIC + struct.pack("<HIII", FEATURE_VERSION, frames, dim,
                                         len(layout_bytes))
    atomic_write_bytes(path, header + layout_bytes, data)


def read_features(path):
    """Read a TSNF1 file back into a FeatureStack (float32 data); the payload
    is read straight into the returned array. A layout that the stack
    refuses raises :class:`DataFormatError`."""
    from .spatial_features import FeatureStack

    with open(path, "rb") as fh:
        size = len(FEATURE_MAGIC) + struct.calcsize("<HIII")
        raw = fh.read(size)
        if len(raw) < size:
            raise DataFormatError(f"{path}: truncated header")
        if raw[:len(FEATURE_MAGIC)] != FEATURE_MAGIC:
            raise DataFormatError(f"{path}: bad magic {raw[:5]!r}, expected {FEATURE_MAGIC!r}")
        version, frames, dim, layout_len = struct.unpack_from("<HIII", raw, len(FEATURE_MAGIC))
        if version != FEATURE_VERSION:
            raise DataFormatError(f"{path}: unsupported feature version {version}")
        try:
            layout_doc = json.loads(fh.read(layout_len).decode("utf-8"))
            layout = tuple((str(name), int(width)) for name, width in layout_doc)
        except Exception as exc:
            raise DataFormatError(f"{path}: bad layout descriptor: {exc}") from exc
        expected = 4 * frames * dim
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise DataFormatError(
                f"{path}: payload is {payload} bytes, expected {expected}")
        data = np.empty((frames, dim), dtype="<f4")
        if fh.readinto(data) != expected:
            raise DataFormatError(f"{path}: payload shorter than {expected} bytes")
    try:
        return FeatureStack(data=data, layout=layout)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
