"""Spatial and directional time-frequency features.

* IPD: per-pair phase difference of the multichannel spectrogram, wrapped to
  (-pi, pi]. Under (W-)disjoint orthogonality the IPDs cluster by source
  direction, which is what every feature below exploits.
* AF (angle feature): mean cosine similarity between the observed IPDs and
  the steering phases of a hypothesized azimuth; near 1 in bins dominated by
  a source from that azimuth.
* DPR (directional power ratio): per-bin share of delay-and-sum beam output
  power attributable to one direction of a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import DirectionGrid, MicArray, PairSelection, SourceDirection, \
    angle_difference, tdoa
from .spectral import ComplexSpectrogram, StftConfig, StftKernel, stft

DPR_POWER_FLOOR = 1e-12
PREMASK_DB = 40.0


@dataclass(frozen=True, eq=False)
class MultichannelSpectrogram:
    """J-channel complex spectrogram, (J, T, F), one shared config."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError("expected (channels, frames, bins)")

    @property
    def num_channels(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_frames(self) -> int:
        return int(self.data.shape[1])

    @property
    def num_bins(self) -> int:
        return int(self.data.shape[2])

    def channel(self, j: int) -> ComplexSpectrogram:
        return ComplexSpectrogram(data=self.data[j], config=self.config)

    @classmethod
    def from_channels(cls, specs: Sequence[ComplexSpectrogram]) -> "MultichannelSpectrogram":
        shapes = {s.data.shape for s in specs}
        if len(shapes) != 1:
            raise ValueError("channels disagree in frames/bins")
        return cls(data=np.stack([s.data for s in specs]), config=specs[0].config)


def multichannel_stft(waveform: np.ndarray, kernel: StftKernel) -> MultichannelSpectrogram:
    """Analyze a (J, n) waveform channel by channel."""
    wav = np.atleast_2d(np.asarray(waveform, dtype=float))
    return MultichannelSpectrogram.from_channels([stft(ch, kernel) for ch in wav])


@dataclass(frozen=True, eq=False)
class DasFilterbank:
    """Delay-and-sum weights for a direction grid, (P, F, J) complex,
    every entry of magnitude 1/J."""

    weights: np.ndarray
    grid: DirectionGrid
    config: StftConfig

    @property
    def num_directions(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Frames x D feature matrix with a recorded block layout."""

    data: np.ndarray
    layout: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        widths = sum(w for _, w in self.layout)
        if self.data.ndim != 2 or self.data.shape[1] != widths:
            raise ValueError(f"layout widths sum to {widths}, data has {self.data.shape}")

    @property
    def num_frames(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def block(self, name: str) -> np.ndarray:
        start = 0
        for block_name, width in self.layout:
            if block_name == name:
                return self.data[:, start:start + width]
            start += width
        raise KeyError(name)


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap radians into (-pi, pi]."""
    return np.arctan2(np.sin(phi), np.cos(phi))


def ipd(spec: MultichannelSpectrogram, pairs: PairSelection) -> np.ndarray:
    """Per-pair inter-channel phase difference, shape (U, T, F), wrapped.

    IPD(u) = angle(Y[u1]) - angle(Y[u2]); zero bins contribute angle 0.
    """
    pairs.validate_for(spec.num_channels)
    angles = np.angle(spec.data)
    out = np.empty((pairs.num_pairs, spec.num_frames, spec.num_bins))
    for u, (a, b) in enumerate(pairs.pairs):
        out[u] = wrap_phase(angles[a] - angles[b])
    return out


def pair_steering_phases(array: MicArray, azimuth: float, pairs: PairSelection,
                         cfg: StftConfig) -> np.ndarray:
    """Expected anechoic IPD per pair and bin, shape (U, F)."""
    direction = SourceDirection(azimuth)
    delays = tdoa(array, direction)
    freqs = cfg.freqs
    out = np.empty((pairs.num_pairs, freqs.size))
    for u, (a, b) in enumerate(pairs.pairs):
        out[u] = 2.0 * np.pi * freqs * (delays[b] - delays[a])
    return out


def premask(spec: MultichannelSpectrogram, ref_index: int) -> np.ndarray:
    """Boolean (T, F) map of bins within ``PREMASK_DB`` of the utterance's
    reference-channel magnitude maximum. A silent utterance masks everything."""
    mag = np.abs(spec.data[ref_index])
    peak = float(mag.max())
    if peak <= 0.0:
        return np.zeros(mag.shape, dtype=bool)
    return mag >= peak * 10.0 ** (-PREMASK_DB / 20.0)


def angle_feature(spec: MultichannelSpectrogram, azimuth: float, array: MicArray,
                  pairs: PairSelection) -> np.ndarray:
    """Angle feature for a hypothesized azimuth, (T, F) in [-1, 1].

    AF = mean_u cos(IPD(u) - steering_phase(u)); each summand is the real
    part of a unit-modulus ratio between the observed and expected
    inter-channel phasors. Bins more than ``PREMASK_DB`` below the
    utterance's reference-channel peak are zeroed.
    """
    return angle_feature_from_ipd(ipd(spec, pairs),
                                  pair_steering_phases(array, azimuth, pairs, spec.config),
                                  premask(spec, array.ref_index))


def angle_feature_from_ipd(phi: np.ndarray, steer: np.ndarray,
                           keep: np.ndarray) -> np.ndarray:
    """AF from pair IPDs (U, T, F), steering phases (U, F) and a premask
    (T, F); bins outside the premask are zero."""
    af = np.cos(phi - steer[:, None, :]).mean(axis=0)
    return np.where(keep, af, 0.0)


def das_filterbank(array: MicArray, grid: DirectionGrid, cfg: StftConfig) -> DasFilterbank:
    """Delay-and-sum beamformers steered at every grid direction:
    w[p, m, j] = exp(-i*2*pi*f_m*delay[p, j]) / J."""
    delays = np.stack([tdoa(array, SourceDirection(az)) for az in grid.azimuths])
    freqs = cfg.freqs
    phase = -2.0j * np.pi * freqs[None, :, None] * delays[:, None, :]
    return DasFilterbank(weights=np.exp(phase) / array.num_mics, grid=grid, config=cfg)


def beam_powers(spec: MultichannelSpectrogram, bank: DasFilterbank) -> np.ndarray:
    """|w_p^H Y|^2 for every direction, (P, T, F)."""
    if spec.num_channels != bank.weights.shape[2]:
        raise ValueError("filterbank channel count does not match spectrogram")
    outputs = np.einsum("pfj,jtf->ptf", np.conj(bank.weights), spec.data)
    return np.abs(outputs) ** 2


def dpr(spec: MultichannelSpectrogram, bank: DasFilterbank, direction_index: int) -> np.ndarray:
    """Directional power ratio toward one grid direction, (T, F) in [0, 1].

    Bins whose total beam power falls below the floor are reported as the
    uninformative uniform value 1/P.
    """
    if not 0 <= direction_index < bank.num_directions:
        raise ValueError(f"direction index {direction_index} out of range")
    return dpr_from_powers(beam_powers(spec, bank), direction_index)


def dpr_all(spec: MultichannelSpectrogram, bank: DasFilterbank) -> np.ndarray:
    """DPR for every grid direction at once, (P, T, F)."""
    return dpr_from_powers(beam_powers(spec, bank), slice(None))


def dpr_from_powers(powers: np.ndarray, p: int | slice,
                    total: np.ndarray | None = None) -> np.ndarray:
    """DPR toward direction(s) ``p`` from grid beam powers (P, T, F);
    ``total`` is ``powers.sum(axis=0)``, computed here unless given."""
    if total is None:
        total = powers.sum(axis=0)
    uniform = 1.0 / powers.shape[0]
    out = powers[p] / np.maximum(total, DPR_POWER_FLOOR)
    return np.where(total < DPR_POWER_FLOOR, uniform, out)


def nearest_direction(grid: DirectionGrid, azimuth: float) -> int:
    """Grid index closest to ``azimuth``; ties go to the lower index."""
    diffs = [angle_difference(az, azimuth) for az in grid.azimuths]
    return int(np.argmin(diffs))


def assemble_features(blocks: Sequence[tuple[str, np.ndarray]]) -> FeatureStack:
    """Concatenate named (T, width) feature maps along the feature axis.

    Pair-indexed maps of shape (U, T, F) are flattened pair-major. All
    blocks must agree on the frame count.
    """
    if not blocks:
        raise ValueError("no feature blocks given")
    mats = []
    layout = []
    frames = None
    for name, arr in blocks:
        a = np.asarray(arr, dtype=float)
        if a.ndim == 3:
            a = np.concatenate([a[u] for u in range(a.shape[0])], axis=1)
        if a.ndim != 2:
            raise ValueError(f"block {name!r} must be 2-D or 3-D")
        if frames is None:
            frames = a.shape[0]
        elif a.shape[0] != frames:
            raise ValueError(
                f"block {name!r} has {a.shape[0]} frames, expected {frames}")
        mats.append(a)
        layout.append((name, a.shape[1]))
    return FeatureStack(data=np.concatenate(mats, axis=1), layout=tuple(layout))
