"""Scale-invariant SDR, its improvement over the mixture, and reports
binned by inter-speaker angle difference."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset_io import atomic_write_bytes

SI_SDR_CAP_DB = 300.0
_ZERO_ERROR_RATIO = 1e-30

ANGLE_BINS = ((0.0, 15.0), (15.0, 45.0), (45.0, 90.0), (90.0, 180.0))
BIN_LABELS = ("<15", "15-45", "45-90", ">90")


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    Both signals are zero-mean normalized; the reference is scaled by the
    projection coefficient and the residual is everything else. Results are
    capped at +-300 dB so reports stay finite.
    """
    est = np.asarray(estimate, dtype=float).ravel()
    ref = np.asarray(reference, dtype=float).ravel()
    if est.size != ref.size:
        raise ValueError(f"length mismatch: {est.size} vs {ref.size}")
    if est.size == 0:
        raise ValueError("empty signals")
    est = est - est.mean()
    ref = ref - ref.mean()
    ref_energy = float(ref @ ref)
    if ref_energy <= 0.0:
        raise ValueError("reference is zero (or constant) after zero-mean normalization")
    scale = float(est @ ref) / ref_energy
    # The scaled reference and the residual overwrite the zero-mean copies.
    target = np.multiply(ref, scale, out=ref)
    noise = np.subtract(est, target, out=est)
    target_energy = float(target @ target)
    noise_energy = float(noise @ noise)
    if noise_energy < _ZERO_ERROR_RATIO * target_energy:
        return SI_SDR_CAP_DB
    if target_energy <= 0.0:
        return -SI_SDR_CAP_DB
    value = 10.0 * np.log10(target_energy / noise_energy)
    return float(np.clip(value, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


def si_sdri(estimate: np.ndarray, reference: np.ndarray,
            mixture_ref_channel: np.ndarray) -> float:
    """SI-SDR improvement of the estimate over the unprocessed mixture."""
    return si_sdr(estimate, reference) - si_sdr(mixture_ref_channel, reference)


@dataclass(frozen=True)
class EvalRecord:
    utterance_id: str
    target_azimuth: float
    angle_difference: float
    si_sdr_est: float
    si_sdr_mix: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle_difference <= 180.0:
            raise ValueError("angle_difference must be in [0, 180]")

    @property
    def si_sdri(self) -> float:
        return self.si_sdr_est - self.si_sdr_mix


@dataclass(frozen=True)
class BinSummary:
    label: str
    lo: float
    hi: float
    count: int
    mean_si_sdri: float | None


@dataclass(frozen=True)
class EvalReport:
    """Per-angle-difference-bin mean SI-SDRi plus the overall mean."""

    bins: tuple[BinSummary, ...]
    overall_count: int
    overall_mean: float | None
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "bins": [
                {"label": b.label, "lo": b.lo, "hi": b.hi, "count": b.count,
                 "mean_si_sdri": b.mean_si_sdri}
                for b in self.bins
            ],
            "overall": {"count": self.overall_count, "mean_si_sdri": self.overall_mean},
        }

    def write_csv(self, path) -> None:
        """Write the report as ``\r\n``-terminated CSV rows, all or nothing."""
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["bin", "count", "mean_si_sdri"])
        for b in self.bins:
            writer.writerow([b.label, b.count,
                             "" if b.mean_si_sdri is None else f"{b.mean_si_sdri:.6f}"])
        writer.writerow(["overall", self.overall_count,
                         "" if self.overall_mean is None else f"{self.overall_mean:.6f}"])
        atomic_write_bytes(path, text.getvalue().encode("utf-8"))

    def mean_above(self, threshold_deg: float) -> float | None:
        """Count-weighted mean SI-SDRi over bins entirely above ``threshold_deg``."""
        above = [b for b in self.bins if b.lo >= threshold_deg and b.count > 0]
        total = sum(b.count for b in above)
        return sum(b.mean_si_sdri * b.count for b in above) / total if total else None


def bin_index(angle_difference: float) -> int:
    """Bin an angle difference: [0,15), [15,45), [45,90), [90,180]."""
    if not 0.0 <= angle_difference <= 180.0:
        raise ValueError("angle difference must be in [0, 180]")
    for i, (lo, hi) in enumerate(ANGLE_BINS[:-1]):
        if lo <= angle_difference < hi:
            return i
    return len(ANGLE_BINS) - 1


def aggregate(records: Sequence[EvalRecord], method: str) -> EvalReport:
    """Aggregate SI-SDRi records into the four angle-difference bins of a
    report labelled ``method``."""
    values: list[list[float]] = [[] for _ in ANGLE_BINS]
    for rec in records:
        values[bin_index(rec.angle_difference)].append(rec.si_sdri)
    bins = []
    for (lo, hi), label, vals in zip(ANGLE_BINS, BIN_LABELS, values):
        bins.append(BinSummary(label=label, lo=lo, hi=hi, count=len(vals),
                               mean_si_sdri=float(np.mean(vals)) if vals else None))
    all_vals = [rec.si_sdri for rec in records]
    overall = float(np.mean(all_vals)) if all_vals else None
    return EvalReport(bins=tuple(bins), overall_count=len(all_vals),
                      overall_mean=overall, method=method)
