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
import os
import struct
import tempfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

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
    """
    wav = np.asarray(waveform)
    if not np.all(np.isfinite(wav)):
        raise ValueError("waveform must be finite")
    if wav.ndim == 1:
        data = wav[:, None]
    elif wav.ndim == 2:
        data = wav.T
    else:
        raise ValueError("waveform must be 1-D or (channels, samples)")
    # C order: frames interleave channels, and ``payload`` is written as is.
    if encoding == "float32":
        payload, tag = data.astype("<f4", order="C"), 3
    elif encoding == "pcm16":
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


def read_wav(path, expected_rate: int | None = None) -> tuple[np.ndarray, int]:
    """Read a WAV file into a channels-first float array (J, n).

    PCM16 samples are scaled to [-1, 1); float32 passes through. Other
    encodings, malformed chunks, non-finite samples and a rate different
    from ``expected_rate`` raise :class:`DataFormatError`.
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
    wav = samples.astype(float) / 32768.0 if dtype.kind == "i" else samples.astype(float)
    if expected_rate is not None and rate != expected_rate:
        raise DataFormatError(
            f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz")
    return wav.T, int(rate)


# ---------------------------------------------------------------------------
# Manifest

_SOURCE_FIELDS = {"azimuth_deg", "angle_difference_deg", "gain_db", "image", "dry"}
_UTT_FIELDS = {"id", "seed", "mixture", "sources", "t60", "room_dimensions",
               "array_center"}
_TOP_FIELDS = {"schema_version", "sample_rate", "array", "utterances"}


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


@dataclass(frozen=True)
class Manifest:
    sample_rate: int
    array: dict
    utterances: tuple[UtteranceEntry, ...]
    schema_version: int = MANIFEST_SCHEMA_VERSION
    # Absolute location of the manifest file, set on load, never serialized.
    base_dir: Path | None = field(default=None, compare=False)

    def resolve(self, relative: str) -> Path:
        if self.base_dir is None:
            return Path(relative)
        return self.base_dir / relative

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "sample_rate": self.sample_rate,
            "array": self.array,
            "utterances": [
                {
                    "id": u.id,
                    "seed": u.seed,
                    "mixture": u.mixture,
                    "sources": [asdict(s) for s in u.sources],
                    "t60": u.t60,
                    "room_dimensions": list(u.room_dimensions),
                    "array_center": list(u.array_center),
                }
                for u in self.utterances
            ],
        }


def write_manifest(path, manifest: Manifest) -> None:
    payload = json.dumps(manifest.to_dict(), indent=2) + "\n"
    atomic_write_bytes(path, payload.encode("utf-8"))


def read_manifest(path, validate_files: bool = False) -> Manifest:
    """Load a manifest; unknown fields and schema mismatches are rejected.

    With ``validate_files`` every referenced WAV must exist.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: manifest must be a JSON object")
    version = doc.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise DataFormatError(
            f"{path}: unsupported manifest schema_version {version!r}, "
            f"this reader supports {MANIFEST_SCHEMA_VERSION}")
    _reject_unknown(doc, _TOP_FIELDS, path, "manifest")
    utterances = []
    for u in doc.get("utterances", []):
        _reject_unknown(u, _UTT_FIELDS, path, f"utterance {u.get('id')!r}")
        sources = []
        for s in u["sources"]:
            _reject_unknown(s, _SOURCE_FIELDS, path, f"source in {u.get('id')!r}")
            sources.append(SourceEntry(**s))
        utterances.append(UtteranceEntry(
            id=u["id"], seed=int(u["seed"]), mixture=u["mixture"],
            sources=tuple(sources), t60=float(u["t60"]),
            room_dimensions=tuple(u["room_dimensions"]),
            array_center=tuple(u["array_center"])))
    manifest = Manifest(sample_rate=int(doc["sample_rate"]), array=doc["array"],
                        utterances=tuple(utterances), schema_version=version,
                        base_dir=path.parent.resolve())
    if validate_files:
        for u in manifest.utterances:
            refs = [u.mixture] + [s.image for s in u.sources] + [s.dry for s in u.sources]
            for ref in refs:
                if not manifest.resolve(ref).exists():
                    raise DataFormatError(
                        f"{path}: utterance {u.id!r} references missing file {ref}")
    return manifest


def _reject_unknown(mapping: dict, allowed: set, path, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise DataFormatError(
            f"{path}: unknown fields {sorted(unknown)} in {where} "
            f"(schema_version {MANIFEST_SCHEMA_VERSION})")


# ---------------------------------------------------------------------------
# Feature files (TSNF1)
#
# magic "TSNF1" | version u16 | T u32 | D u32 | layout-length u32 |
# layout JSON (utf-8) | T*D float32 row-major, all little-endian.


def write_features(path, stack) -> None:
    layout = list(stack.layout)
    if not layout:
        raise ValueError("feature layout must be non-empty")
    data = np.ascontiguousarray(stack.data, dtype="<f4")
    frames, dim = data.shape
    layout_bytes = json.dumps([[name, int(width)] for name, width in layout]).encode("utf-8")
    header = FEATURE_MAGIC + struct.pack("<HIII", FEATURE_VERSION, frames, dim,
                                         len(layout_bytes))
    atomic_write_bytes(path, header + layout_bytes + data.tobytes())


def read_features(path):
    """Read a TSNF1 file back into a FeatureStack (float32 data)."""
    from .spatial_features import FeatureStack

    raw = Path(path).read_bytes()
    if len(raw) < len(FEATURE_MAGIC) + struct.calcsize("<HIII"):
        raise DataFormatError(f"{path}: truncated header")
    if raw[:len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:5]!r}, expected {FEATURE_MAGIC!r}")
    offset = len(FEATURE_MAGIC)
    version, frames, dim, layout_len = struct.unpack_from("<HIII", raw, offset)
    if version != FEATURE_VERSION:
        raise DataFormatError(f"{path}: unsupported feature version {version}")
    offset += struct.calcsize("<HIII")
    try:
        layout_doc = json.loads(raw[offset:offset + layout_len].decode("utf-8"))
        layout = tuple((str(name), int(width)) for name, width in layout_doc)
    except Exception as exc:
        raise DataFormatError(f"{path}: bad layout descriptor: {exc}") from exc
    offset += layout_len
    expected = 4 * frames * dim
    payload = raw[offset:]
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(frames, dim)
    return FeatureStack(data=np.array(data), layout=layout)
