"""Spatial and directional time-frequency features.

* IPD: per-pair phase difference of the multichannel spectrogram, held as its
  unit phasor, the cross-spectrum Y_a conj(Y_b) over its modulus (cos and sin
  of the IPD), so no angle is taken. Under (W-)disjoint orthogonality the IPDs
  cluster by source direction, which is what every feature below exploits.
* AF (angle feature): mean cosine similarity between the observed IPDs and
  the steering phases of a hypothesized azimuth; near 1 in bins dominated by
  a source from that azimuth. :func:`angle_feature` evaluates it as
  cos(phi - s) = cos(phi) cos(s) + sin(phi) sin(s), so the IPD phasors,
  computed once, serve every azimuth through two weighted sums over pairs.
* DPR (directional power ratio): per-bin share of delay-and-sum beam output
  power attributable to one direction of a fixed grid, always :func:`dpr` of
  the beam(s) and the grid total. The grid total sum_p |w_p^H y|^2 is the
  quadratic form y^H R y with R = sum_p w_p w_p^H, a J x J matrix per bin; it
  is evaluated as |A y|^2 with A the triangular :func:`grid_factor` of the
  stacked beam weights (R = A^H A), J squares in place of P beams and as
  accurate as summing the beams.

:class:`SpatialAnalysis` is the one composition of these formulas: built once
per utterance in one pass over blocks of its frames, it holds the
reference-mic row, the IPD phasors, the DPR maps of the directions its caller
plans to read and the delay-and-sum beams it plans to invert, and takes the
premask on first read and each AF on read, keeping the latest map only. Every
spectrogram here is a :class:`~ssk.spectral.ComplexSpectrogram` of (J, T, F)
data.
Delay-and-sum weights come from :func:`das_weights` alone and are applied by
:func:`beam` alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import DirectionGrid, MicArray, PairSelection, normalize_azimuth, tdoa
from .spectral import BLOCK_FRAMES, ComplexSpectrogram, StftConfig, rfft_frames

DPR_POWER_FLOOR = 1e-12
PREMASK_DB = 40.0


def multichannel_stft(waveform: np.ndarray, cfg: StftConfig) -> ComplexSpectrogram:
    """Analyze a (J, n) waveform in one transform of all channels' frames,
    (J, T, F); channel j is bit-equal to ``stft`` of row j. No stage calls
    it: they read :class:`SpatialAnalysis`, block by block."""
    return ComplexSpectrogram(data=rfft_frames(np.atleast_2d(waveform), cfg), config=cfg)


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Frames x D float32 feature matrix with a recorded block layout: in
    memory exactly what a TSNF1 file holds. The layout names at least one
    block, each once and at least one column wide."""

    data: np.ndarray
    layout: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.layout or min(w for _, w in self.layout) < 1:
            raise ValueError(f"layout must list blocks of width at least 1, got {self.layout}")
        if len({name for name, _ in self.layout}) < len(self.layout):
            raise ValueError(f"layout names a block more than once: {self.layout}")
        widths = sum(w for _, w in self.layout)
        if self.data.ndim != 2 or self.data.shape[1] != widths:
            raise ValueError(f"layout widths sum to {widths}, data has {self.data.shape}")
        if self.data.dtype != np.float32:
            raise ValueError(f"feature data must be float32, got {self.data.dtype}")

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


def pair_cos_sin(spec: ComplexSpectrogram, pairs: PairSelection,
                 out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of the per-pair IPD, each (U, T, F): Re and Im of
    Y_a conj(Y_b) over its modulus, 0 where either channel is 0. Real products
    give identical channels a sine of exactly 0. Each pair's products are
    formed straight in its output rows (``out`` if given), and two (T, F)
    scratch maps and one boolean map serve every pair."""
    pairs.validate_for(spec.data.shape[0])
    re, im = spec.data.real, spec.data.imag
    cos, sin = np.empty((2, len(pairs.pairs)) + spec.data.shape[1:]) if out is None else out
    mod, scratch = np.empty((2,) + spec.data.shape[1:])
    silent = np.empty(spec.data.shape[1:], dtype=bool)
    for u, (a, b) in enumerate(pairs.pairs):
        c, s = cos[u], sin[u]
        np.multiply(re[a], re[b], out=c)
        c += np.multiply(im[a], im[b], out=scratch)
        np.multiply(im[a], re[b], out=s)
        s -= np.multiply(re[a], im[b], out=scratch)
        np.multiply(c, c, out=mod)
        mod += np.multiply(s, s, out=scratch)
        np.sqrt(mod, out=mod)
        np.equal(mod, 0.0, out=silent)
        c[silent], s[silent], mod[silent] = 1.0, 0.0, 1.0
        c /= mod
        s /= mod
    return cos, sin


def ipd(spec: ComplexSpectrogram, pairs: PairSelection) -> np.ndarray:
    """Per-pair IPD in (-pi, pi], (U, T, F): the angle of :func:`pair_cos_sin`."""
    cos, sin = pair_cos_sin(spec, pairs)
    return np.arctan2(sin, cos)


def pair_steering_phases(array: MicArray, azimuth: float, pairs: PairSelection,
                         cfg: StftConfig) -> np.ndarray:
    """Expected anechoic IPD per pair and bin, shape (U, F):
    2*pi*f*(delay[b] - delay[a]) for pair (a, b)."""
    delays = tdoa(array, azimuth)
    a, b = np.array(pairs.pairs, dtype=int).reshape(-1, 2).T
    return 2.0 * np.pi * cfg.freqs * (delays[b] - delays[a])[:, None]


def premask(ref: ComplexSpectrogram) -> np.ndarray:
    """Boolean (T, F) map of the bins of ``ref``, the utterance's (T, F)
    reference-channel spectrogram, within ``PREMASK_DB`` of its magnitude
    maximum. A silent utterance masks everything."""
    mag = np.abs(ref.data)
    peak = float(mag.max())
    if peak <= 0.0:
        return np.zeros(mag.shape, dtype=bool)
    return mag >= peak * 10.0 ** (-PREMASK_DB / 20.0)


def angle_feature(cos_ipd: np.ndarray, sin_ipd: np.ndarray, steer: np.ndarray,
                  keep: np.ndarray) -> np.ndarray:
    """Angle feature, (T, F) in [-1, 1], from the cosine and sine of the pair
    IPDs (U, T, F), the steering phases of one azimuth (U, F) and a premask
    (T, F); bins outside the premask are zero.

    AF = mean_u cos(IPD(u) - steering_phase(u)), each summand expanded into
    cos(phi)cos(s) + sin(phi)sin(s). The sum, the mean and the premask are
    formed in the first einsum's output; the second is the one scratch map."""
    af = np.einsum("utf,uf->tf", cos_ipd, np.cos(steer))
    af += np.einsum("utf,uf->tf", sin_ipd, np.sin(steer))
    af /= steer.shape[0]
    np.copyto(af, 0.0, where=~keep)
    return af


def das_weights(array: MicArray, azimuths: Sequence[float], cfg: StftConfig) -> np.ndarray:
    """Delay-and-sum weights steered at each azimuth, (P, F, J):
    w[p, m, j] = exp(-i*2*pi*f_m*delay[p, j]) / J."""
    delays = np.stack([tdoa(array, az) for az in azimuths])
    phase = -2.0j * np.pi * cfg.freqs[None, :, None] * delays[:, None, :]
    return np.exp(phase) / array.num_mics


def das_filterbank(array: MicArray, grid: DirectionGrid, cfg: StftConfig) -> np.ndarray:
    """Delay-and-sum weights steered at every grid direction, (P, F, J),
    every entry of magnitude 1/J."""
    return das_weights(array, grid.azimuths, cfg)


def beam(spec: ComplexSpectrogram, weights: np.ndarray) -> np.ndarray:
    """Beamformer output w^H Y per bin, (..., T, F), for (..., F, J) weights."""
    if spec.data.shape[0] != weights.shape[-1]:
        raise ValueError(f"{spec.data.shape[0]} spectrogram channels for beam weights "
                         f"of {weights.shape[-1]} microphones")
    return np.einsum("...fj,jtf->...tf", np.conj(weights), spec.data)


def grid_factor(weights: np.ndarray) -> np.ndarray:
    """The triangular factor A of the grid, (F, J, J), per bin from the (P, J)
    stack of conjugated (P, F, J) ``weights``: R = sum_p w_p w_p^H = A^H A."""
    return np.linalg.qr(np.conj(weights).transpose(1, 0, 2), mode="r")


def beam_power_total(spec: ComplexSpectrogram, factor: np.ndarray) -> np.ndarray:
    """Grid total of the beam powers, sum_p |w_p^H Y|^2, (T, F), without
    forming any beam, from the :func:`grid_factor` of the grid weights.

    Per bin the total y^H R y is |A y|^2. Unlike the expanded quadratic form,
    whose rounding error grows with the square of the bin's conditioning,
    this sum of squares is as accurate as the beams. It is formed one bin at
    a time, so the (J, T) transients are those of a single bin."""
    y = spec.data.transpose(2, 0, 1)  # (F, J, T)
    total = np.empty(spec.data.shape[1:])
    for f in range(total.shape[1]):
        ay = factor[f] @ y[f]
        total[:, f] = (ay.real ** 2 + ay.imag ** 2).sum(axis=0)
    return total


def dpr(spec: ComplexSpectrogram, weights: np.ndarray, total: np.ndarray,
        num_directions: int, out: np.ndarray | None = None) -> np.ndarray:
    """Directional power ratio |w^H Y|^2 / total, in [0, 1]: (T, F) toward one
    direction for (F, J) weights, (P, T, F) toward each of (P, F, J), written
    to ``out`` if given. ``total`` is the :func:`beam_power_total` of the
    ``num_directions`` grid beams; bins whose total falls below the floor get
    the uniform value 1/P."""
    out = np.abs(beam(spec, weights), out=out)
    np.square(out, out=out)
    out /= np.maximum(total, DPR_POWER_FLOOR)
    np.copyto(out, 1.0 / num_directions, where=total < DPR_POWER_FLOOR)
    return out


def nearest_direction(grid: DirectionGrid, azimuth: float) -> int:
    """Grid index closest to ``azimuth`` in circular distance; ties go to the
    lower index."""
    d = np.abs(grid.azimuths - normalize_azimuth(azimuth))
    return int(np.argmin(np.minimum(d, 360.0 - d)))


class SpatialAnalysis:
    """The spatial analysis of one utterance's (J, T, F) spectrogram, shared
    by every target, method and run; the only place AF, DPR and delay-and-sum
    beams are formed from a spectrogram.

    It is built in one pass over the ``num_frames`` frames in blocks of
    ``BLOCK_FRAMES`` from frame 0 (the last may be shorter), each the
    (J, stop - start, F) spectra that ``frames(start, stop)`` returns. The
    BLAS products of :func:`beam_power_total` round a frame by its column in
    the product, so the analysis, not its caller, cuts the blocks.
    Its caller states what it will read: ``plan``, the azimuths whose DPR
    it reads, and ``beams``, the exact azimuths it beams at. Each block is
    written straight into the outputs, allocated before the pass: the
    reference-mic row (:attr:`ref_spec`), the cosine and sine of the pair IPDs
    (two (U, T, F) arrays; none without pairs), the (T, F) DPR map (:func:`dpr`
    of one beam and the block's grid total) of each grid direction of the
    plan, the :func:`nearest_direction` of its azimuths, and the (T, F)
    :func:`beam` of each beam azimuth's :func:`das_weights`. The grid's
    :func:`grid_factor` is taken once, before the pass, if the plan names any
    direction. The (T, F) :attr:`premask` is taken from the reference row on
    first read, by the first AF, so an analysis that forms no AF never forms
    it. So no whole (J, T, F) spectrogram is ever held; the analysis keeps
    one (T, F) plane per planned grid direction, at most P, and one per beam.
    A DPR or beam outside the plan raises :class:`KeyError`.
    :meth:`of_mixture` transforms a (J, n) mixture block by block.

    AF (:func:`angle_feature`) is formed from the IPD phasors on read, and
    only the latest map is kept: callers read an azimuth's map again
    consecutively, or hold it themselves.
    """

    def __init__(self, frames: Callable[[int, int], np.ndarray], num_frames: int,
                 config: StftConfig, array: MicArray, pairs: PairSelection | None,
                 grid: DirectionGrid, plan: Iterable[float], beams: Iterable[float] = ()) -> None:
        self.array, self.pairs, self.grid = array, pairs, grid
        self.config = config
        shape = (num_frames, config.num_bins)
        ref = np.empty(shape, dtype=complex)
        self._cos_sin = None if pairs is None else tuple(np.empty((2, len(pairs.pairs)) + shape))
        self._af = {}
        self._dpr = {p: np.empty(shape) for p in sorted({nearest_direction(grid, az)
                                                          for az in plan})}
        if self._dpr:
            weights = das_filterbank(array, grid, config)
            factor = grid_factor(weights)
        self._beams = {az: ComplexSpectrogram(data=np.empty(shape, dtype=complex), config=config)
                       for az in beams}
        steering = {az: das_weights(array, [az], config)[0] for az in self._beams}
        for start in range(0, num_frames, BLOCK_FRAMES):
            stop = min(start + BLOCK_FRAMES, num_frames)
            data = frames(start, stop)
            if data.shape != (array.num_mics, stop - start, config.num_bins):
                raise ValueError(f"block of shape {data.shape}, expected "
                                 f"({array.num_mics}, {stop - start}, {config.num_bins})")
            block = ComplexSpectrogram(data=data, config=config)
            ref[start:stop] = data[array.ref_index]
            if pairs is not None:
                pair_cos_sin(block, pairs, out=tuple(a[:, start:stop] for a in self._cos_sin))
            if self._dpr:
                total = beam_power_total(block, factor)
            for p, out in self._dpr.items():
                dpr(block, weights[p], total, grid.num_directions, out=out[start:stop])
            for az, out in self._beams.items():
                out.data[start:stop] = beam(block, steering[az])
        self.ref_spec = ComplexSpectrogram(data=ref, config=config)

    @classmethod
    def of_mixture(cls, mixture: np.ndarray, config: StftConfig, array: MicArray,
                   pairs: PairSelection | None, grid: DirectionGrid, plan: Iterable[float],
                   beams: Iterable[float] = ()) -> "SpatialAnalysis":
        """The analysis of a (J, n) mixture, whose blocks are each the
        :func:`~ssk.spectral.rfft_frames` of their slice of it: frame for
        frame bit-equal to one transform of the whole."""
        hop, win_len = config.hop, config.win_len
        return cls(lambda a, b: rfft_frames(mixture[:, a * hop:(b - 1) * hop + win_len], config),
                   config.num_frames(mixture.shape[-1]), config, array, pairs, grid, plan, beams)

    @functools.cached_property
    def premask(self) -> np.ndarray:
        """The (T, F) :func:`premask` of the reference row."""
        return premask(self.ref_spec)

    @property
    def pair_cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine of the pair IPDs, each (U, T, F)."""
        if self._cos_sin is None:
            raise ValueError("pairwise features need at least two microphones")
        return self._cos_sin

    def angle_feature(self, azimuth: float) -> np.ndarray:
        if azimuth not in self._af:
            cos_ipd, sin_ipd = self.pair_cos_sin  # first: it checks that there are pairs
            self._af.clear()  # before computing, so the kept map and the new one never coexist
            steer = pair_steering_phases(self.array, azimuth, self.pairs, self.config)
            self._af[azimuth] = angle_feature(cos_ipd, sin_ipd, steer, self.premask)
        return self._af[azimuth]

    def dpr(self, azimuth: float) -> np.ndarray:
        p = nearest_direction(self.grid, azimuth)
        if p not in self._dpr:
            raise KeyError(f"DPR toward {azimuth:g} degrees (grid direction {p}) "
                           "is not in the plan")
        return self._dpr[p]

    def beam(self, azimuth: float) -> ComplexSpectrogram:
        """The (T, F) delay-and-sum beam steered at ``azimuth``, one of the
        ``beams`` the analysis was built for."""
        return self._beams[azimuth]


def assemble_features(blocks: Sequence[tuple[str, np.ndarray]]) -> FeatureStack:
    """Write named (T, width) feature maps side by side into one float32
    (T, D) matrix, each straight into its columns.

    Pair-indexed maps of shape (U, T, F) fill U*F columns pair-major. Each
    value is rounded to float32 as it is written, exactly as a float64
    stack cast afterwards would be. All blocks must agree on the frame count.
    """
    if not blocks:
        raise ValueError("no feature blocks given")
    arrays, layout = [], []
    for name, arr in blocks:
        a = np.asarray(arr)
        if a.ndim not in (2, 3):
            raise ValueError(f"block {name!r} must be 2-D or 3-D")
        if arrays and a.shape[-2] != arrays[0].shape[0]:
            raise ValueError(
                f"block {name!r} has {a.shape[-2]} frames, expected {arrays[0].shape[0]}")
        layout.append((name, a.shape[-1] * (a.shape[0] if a.ndim == 3 else 1)))
        arrays.append(a.transpose(1, 0, 2) if a.ndim == 3 else a)
    data = np.empty((arrays[0].shape[0], sum(w for _, w in layout)), dtype="<f4")
    start = 0
    for a, (_, width) in zip(arrays, layout):
        # A (U, T, F) map goes in through a (T, U, F) view of its columns:
        # pair u owns columns u*F to u*F + F - 1.
        data[:, start:start + width].reshape(a.shape)[...] = a
        start += width
    return FeatureStack(data=data, layout=tuple(layout))
