"""Correctness gate, checked from outside the program after every command.

It reads the manifest as JSON and WAV files with its own RIFF parser, so a
defect in ``ssk``'s readers cannot hide a defect in its writers. An
operation is one command or one per-target output (estimate or feature
file); each is counted as attempted, and as failed when any check on it
fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ORACLE_METHODS, Command

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
FEATURE_MAGIC = b"TSNF1"
SWEEP_VARIANTS = ("af", "af_dpr")
SPIKE_RATIO = 4.0


def read_wav(path: Path) -> np.ndarray:
    """(frames, channels) float array from a PCM16 or float32 RIFF/WAVE."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        tag, size = raw[pos:pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        body = raw[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            fmt = body
        elif tag == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    code, channels, _, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if code == _FORMAT_EXTENSIBLE:
        code = struct.unpack_from("<H", fmt, 24)[0]
    if (code, bits) == (_FORMAT_PCM, 16):
        samples = np.frombuffer(data, dtype="<i2") / 32768.0
    elif (code, bits) == (_FORMAT_FLOAT, 32):
        samples = np.frombuffer(data, dtype="<f4").astype(float)
    else:
        raise ValueError(f"{path}: unsupported WAV format {code}/{bits} bit")
    if channels < 1 or samples.size % channels:
        raise ValueError(f"{path}: {samples.size} samples for {channels} channels")
    return samples.reshape(-1, channels)


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class Gate:
    """Running tally of operations, failures and scored SI-SDRi."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # (count, mean SI-SDRi) per report the workload produced.
    scores: list[tuple[int, float]] = field(default_factory=list)
    # Valid estimates, and those whose peak exceeds SPIKE_RATIO times the
    # mixture's reference-channel peak; no mask or beamformer output should.
    estimates: int = 0
    spiky: int = 0

    def op(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
        return problem is None

    def mismatch(self, what: str, first: str, second: str) -> None:
        """Count a determinism check; it fails when the two digests differ."""
        self.op(None if first == second else
                f"{what}: outputs differ between identical runs")

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def si_sdri_db(self) -> float:
        total = sum(n for n, _ in self.scores)
        if not total:
            return math.nan
        return sum(n * mean for n, mean in self.scores) / total

    def check(self, cmd: Command, returncode: int) -> None:
        """Count ``cmd`` and every per-target output it should have made."""
        if not self.op(None if returncode == 0 else
                       f"{cmd.name} exited with {returncode}"):
            return
        check = _CHECKS[cmd.name]
        try:
            check(self, cmd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.op(f"{cmd.name}: {exc}")


def _manifest(path: Path) -> tuple[Path, dict]:
    doc = json.loads(Path(path).read_text())
    if not doc["utterances"]:
        raise ValueError(f"{path}: no utterances")
    return Path(path).parent, doc


def _targets(doc: dict):
    for utt in doc["utterances"]:
        for t in range(len(utt["sources"])):
            yield utt, t


def _check_simulate(gate: Gate, cmd: Command) -> None:
    root, doc = _manifest(Path(cmd.option("--out")) / "manifest.json")
    for utt in doc["utterances"]:
        mixture = read_wav(root / utt["mixture"])
        problem = None if np.all(np.isfinite(mixture)) else f"{utt['mixture']}: non-finite"
        for src in utt["sources"]:
            for rel in (src["image"], src["dry"]):
                if not (root / rel).is_file():
                    problem = f"missing {rel}"
        gate.op(problem)


def _estimate_problem(est_path: Path, est: np.ndarray, num_samples: int) -> str | None:
    """Why an estimate is unusable, or None when it is fine."""
    if est.shape[1] != 1:
        return f"{est_path.name}: {est.shape[1]} channels, expected 1"
    if est.shape[0] != num_samples:
        return f"{est_path.name}: {est.shape[0]} samples, mixture has {num_samples}"
    if not np.all(np.isfinite(est)):
        return f"{est_path.name}: non-finite samples"
    return None


def _check_estimates(gate: Gate, manifest: Path, est_dir: Path) -> None:
    root, doc = _manifest(manifest)
    mixtures: dict[str, np.ndarray] = {}
    for utt, t in _targets(doc):
        if utt["id"] not in mixtures:
            mixtures[utt["id"]] = read_wav(root / utt["mixture"])[:, 0]
        mixture = mixtures[utt["id"]]
        path = est_dir / f"{utt['id']}_tgt{t}.wav"
        if not path.is_file():
            gate.op(f"missing estimate {path.name}")
            continue
        est = read_wav(path)
        if gate.op(_estimate_problem(path, est, mixture.size)):
            gate.estimates += 1
            peak = float(np.max(np.abs(mixture)))
            gate.spiky += float(np.max(np.abs(est))) > SPIKE_RATIO * peak


def _check_separate(gate: Gate, cmd: Command) -> None:
    _check_estimates(gate, Path(cmd.option("--manifest")), Path(cmd.option("--out")))


def _check_features(gate: Gate, cmd: Command) -> None:
    _, doc = _manifest(Path(cmd.option("--manifest")))
    out = Path(cmd.option("--out"))
    for utt, t in _targets(doc):
        path = out / f"{utt['id']}_tgt{t}.tsnf"
        problem = None
        if not path.is_file():
            problem = f"missing feature file {path.name}"
        elif path.read_bytes()[:len(FEATURE_MAGIC)] != FEATURE_MAGIC:
            problem = f"{path.name}: bad magic"
        gate.op(problem)


def _score(gate: Gate, report: dict, expected: int, where: str,
           counted: bool = True) -> None:
    """Check a report's overall figure; add it to si_sdri_db if ``counted``."""
    overall = report["overall"]
    count, mean = overall["count"], overall["mean_si_sdri"]
    if count != expected:
        gate.op(f"{where}: scored {count} targets, expected {expected}")
    elif mean is None or not math.isfinite(mean):
        gate.op(f"{where}: non-finite mean SI-SDRi")
    elif counted:
        gate.scores.append((count, float(mean)))


def _check_evaluate(gate: Gate, cmd: Command) -> None:
    _, doc = _manifest(Path(cmd.option("--manifest")))
    prefix = Path(cmd.option("--out"))
    report = json.loads(prefix.with_suffix(".json").read_text())
    if not prefix.with_suffix(".csv").is_file():
        raise ValueError(f"missing {prefix.name}.csv")
    # Oracle reports are checked but left out of si_sdri_db: their estimates
    # carry the iSTFT boundary spikes counted by ``Gate.spiky``, which swing
    # the mean by tens of dB from seed to seed (README.md, known defects).
    _score(gate, report, len(list(_targets(doc))), prefix.name,
           counted=cmd.option("--method") not in ORACLE_METHODS)


def _check_perturb(gate: Gate, cmd: Command) -> None:
    manifest = Path(cmd.option("--manifest"))
    _, doc = _manifest(manifest)
    out = Path(cmd.option("--out"))
    sweep = json.loads((out / "sweep.json").read_text())
    if not (out / "sweep.csv").is_file():
        raise ValueError("missing sweep.csv")
    targets = len(list(_targets(doc)))
    for variant in SWEEP_VARIANTS:
        rows = sweep["variants"][variant]
        if len(rows) != len(sweep["errors_deg"]):
            raise ValueError(f"{variant}: {len(rows)} rows for "
                             f"{len(sweep['errors_deg'])} error points")
        for row in rows:
            err_dir = out / variant / f"err{int(round(row['error_deg'])):02d}"
            _check_estimates(gate, manifest, err_dir)
            _score(gate, row["report"], targets, f"{variant}/{err_dir.name}")


_CHECKS = {
    "simulate": _check_simulate,
    "features": _check_features,
    "separate": _check_separate,
    "evaluate": _check_evaluate,
    "perturb": _check_perturb,
}
