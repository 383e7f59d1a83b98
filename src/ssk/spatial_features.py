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
  is evaluated as |A y|^2 with A the triangular factor of the stacked beam
  weights (R = A^H A), J squares in place of P beams and as accurate as
  summing the beams.

:class:`SpatialAnalysis` is the one composition of these formulas from a
spectrogram: it holds the IPD phasors, premask, grid weights and grid total
of one utterance and memoises AF and DPR per direction. Every spectrogram
here is a :class:`~ssk.spectral.ComplexSpectrogram` of (J, T, F) data.
Delay-and-sum weights come from :func:`das_weights` alone and are applied by
:func:`beam` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import DirectionGrid, MicArray, PairSelection, normalize_azimuth, tdoa
from .spectral import ComplexSpectrogram, StftConfig, rfft_frames

DPR_POWER_FLOOR = 1e-12
PREMASK_DB = 40.0


def multichannel_stft(waveform: np.ndarray, cfg: StftConfig) -> ComplexSpectrogram:
    """Analyze a (J, n) waveform in one transform of all channels' frames,
    (J, T, F); channel j is bit-equal to ``stft`` of row j."""
    return ComplexSpectrogram(data=rfft_frames(np.atleast_2d(waveform), cfg), config=cfg)


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Frames x D float32 feature matrix with a recorded block layout: in
    memory exactly what a TSNF1 file holds."""

    data: np.ndarray
    layout: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
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


def pair_cos_sin(spec: ComplexSpectrogram, pairs: PairSelection) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of the per-pair IPD, each (U, T, F): Re and Im of
    Y_a conj(Y_b) over its modulus, 0 where either channel is 0. Real products
    give identical channels a sine of exactly 0. Each pair's products are
    formed straight in its output rows, and two (T, F) scratch maps and one
    boolean map serve every pair."""
    pairs.validate_for(spec.data.shape[0])
    re, im = spec.data.real, spec.data.imag
    cos, sin = np.empty((2, len(pairs.pairs)) + spec.data.shape[1:])
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


def premask(spec: ComplexSpectrogram, ref_index: int) -> np.ndarray:
    """Boolean (T, F) map of bins within ``PREMASK_DB`` of the utterance's
    reference-channel magnitude maximum. A silent utterance masks everything."""
    mag = np.abs(spec.data[ref_index])
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


def beam_power_total(spec: ComplexSpectrogram, weights: np.ndarray) -> np.ndarray:
    """Grid total of the beam powers, sum_p |w_p^H Y|^2 over (P, F, J)
    ``weights``, (T, F), without forming any beam.

    Per bin, R = sum_p w_p w_p^H = A^H A with A the triangular factor of the
    (P, J) stack of conjugated weights, so the total y^H R y is |A y|^2. Unlike
    the expanded quadratic form, whose rounding error grows with the square of
    the bin's conditioning, this sum of squares is as accurate as the beams.
    It is formed one bin at a time, so the (J, T) transients are those of a
    single bin."""
    factor = np.linalg.qr(np.conj(weights).transpose(1, 0, 2), mode="r")  # (F, J, J)
    y = spec.data.transpose(2, 0, 1)  # (F, J, T)
    total = np.empty(spec.data.shape[1:])
    for f in range(total.shape[1]):
        ay = factor[f] @ y[f]
        total[:, f] = (ay.real ** 2 + ay.imag ** 2).sum(axis=0)
    return total


def dpr(spec: ComplexSpectrogram, weights: np.ndarray, total: np.ndarray,
        num_directions: int) -> np.ndarray:
    """Directional power ratio |w^H Y|^2 / total, in [0, 1]: (T, F) toward one
    direction for (F, J) weights, (P, T, F) toward each of (P, F, J). ``total``
    is the :func:`beam_power_total` of the ``num_directions`` grid beams;
    bins whose total falls below the floor get the uniform value 1/P."""
    out = np.abs(beam(spec, weights))
    np.square(out, out=out)
    out /= np.maximum(total, DPR_POWER_FLOOR)
    np.copyto(out, 1.0 / num_directions, where=total < DPR_POWER_FLOOR)
    return out


def nearest_direction(grid: DirectionGrid, azimuth: float) -> int:
    """Grid index closest to ``azimuth`` in circular distance; ties go to the
    lower index."""
    d = np.abs(grid.azimuths - normalize_azimuth(azimuth))
    return int(np.argmin(np.minimum(d, 360.0 - d)))


class computed_once:
    """Property computed on first use and then stored on the instance. Unlike
    ``functools.cached_property`` before Python 3.12 it takes no lock shared
    by all instances, which would let one ``--jobs`` thread at a time
    analyse an utterance; each analysis is used by a single thread."""

    def __init__(self, fn):
        self.fn = fn

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class SpatialAnalysis:
    """The spatial analysis of one utterance's (J, T, F) spectrogram, shared
    by every target, method and run; the only place AF and DPR are formed
    from a spectrogram.

    It holds the spectrogram it was given and, each computed on first use
    so that a caller pays only for what it reads: the cosine and sine of the
    pair IPDs (two (U, T, F) arrays), the (T, F) premask at the array's
    reference mic, the (P, F, J) delay-and-sum grid weights, the (T, F) grid
    total, and the AF and DPR maps below, each (T, F).

    AF (:func:`angle_feature`) is computed from the IPD phasors per azimuth,
    DPR (:func:`dpr` of one beam and the grid total) per grid index, the
    :func:`nearest_direction` of the azimuth. Both memos keep the maps of the
    ``pinned`` azimuths (the utterance's sources), or of their grid indices,
    for the analysis's lifetime: features, unperturbed separation and every
    ``tgt+intf`` interferer reuse them. Of any other azimuth (a perturbed
    target) or grid index only the latest map is kept. So the analysis holds
    at most S + 1 AF maps for S pinned azimuths and G + 1 DPR maps for the G
    grid indices they round to, however many sweep points it serves and
    however far they stray; callers that steer at the same perturbed azimuth
    should do so consecutively.
    """

    spec: ComplexSpectrogram
    array: MicArray
    pairs: PairSelection | None
    grid: DirectionGrid
    pinned: frozenset[float] = frozenset()
    _af: dict = field(default_factory=dict, init=False, repr=False)
    _af_latest: dict = field(default_factory=dict, init=False, repr=False)
    _dpr: dict = field(default_factory=dict, init=False, repr=False)
    _dpr_latest: dict = field(default_factory=dict, init=False, repr=False)

    @computed_once
    def pair_cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine of the pair IPDs, each (U, T, F)."""
        if self.pairs is None:
            raise ValueError("pairwise features need at least two microphones")
        return pair_cos_sin(self.spec, self.pairs)

    @computed_once
    def premask(self) -> np.ndarray:
        return premask(self.spec, self.array.ref_index)

    @computed_once
    def weights(self) -> np.ndarray:
        return das_filterbank(self.array, self.grid, self.spec.config)

    @computed_once
    def total(self) -> np.ndarray:
        return beam_power_total(self.spec, self.weights)

    @computed_once
    def pinned_directions(self) -> frozenset[int]:
        """Grid indices of the pinned azimuths."""
        return frozenset(nearest_direction(self.grid, az) for az in self.pinned)

    def angle_feature(self, azimuth: float) -> np.ndarray:
        cache = self._af if azimuth in self.pinned else self._af_latest
        if azimuth not in cache:
            cos_ipd, sin_ipd = self.pair_cos_sin  # first: it checks that there are pairs
            if cache is self._af_latest:
                cache.clear()  # before computing, so no two perturbed maps coexist
            steer = pair_steering_phases(self.array, azimuth, self.pairs, self.spec.config)
            cache[azimuth] = angle_feature(cos_ipd, sin_ipd, steer, self.premask)
        return cache[azimuth]

    def dpr(self, azimuth: float) -> np.ndarray:
        p = nearest_direction(self.grid, azimuth)
        cache = self._dpr if p in self.pinned_directions else self._dpr_latest
        if p not in cache:
            if cache is self._dpr_latest:
                cache.clear()  # before computing, as for AF
            cache[p] = dpr(self.spec, self.weights[p], self.total, self.grid.num_directions)
        return cache[p]


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
