"""Shoebox-room impulse responses (image method) and reverberant mixtures.

Sound travels at :data:`~ssk.geometry.SOUND_SPEED` and azimuths are plain
floats in degrees, as in :mod:`ssk.geometry`. Room walls share a single
frequency-independent reflection coefficient derived from the requested T60
by Sabine inversion and calibrated on a probe RIR. Fractional-sample
arrivals are placed with a Hann-windowed sinc (+-4 samples) so sub-sample
inter-mic delays survive into the rendered channels; window x sinc is
evaluated once per image source, through exact trigonometric identities,
rather than once per tap (see :func:`_windowed_sinc_rir`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import SOUND_SPEED, MicArray, normalize_azimuth

WALL_MARGIN = 0.3
MIN_SOURCE_DISTANCE = 0.5
SINC_HALF_WIDTH = 4
# RMS of a 0 dB source's reference-channel image after level normalization.
REF_IMAGE_RMS = 0.05

ROOM_DIM_LO = np.array([3.0, 3.0, 2.5])
ROOM_DIM_HI = np.array([8.0, 10.0, 6.0])
T60_RANGE = (0.05, 0.5)


class SceneGenerationError(RuntimeError):
    """Scene constraints could not be satisfied within the retry budget."""


@dataclass(frozen=True, eq=False)
class RoomConfig:
    """Shoebox room with an array center and source positions (meters)."""

    dimensions: np.ndarray
    t60: float
    array_center: np.ndarray
    source_positions: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        dims = np.asarray(self.dimensions, dtype=float).ravel()
        center = np.asarray(self.array_center, dtype=float).ravel()
        sources = np.atleast_2d(np.asarray(self.source_positions, dtype=float))
        if dims.shape != (3,) or np.any(dims <= 0.0):
            raise ValueError("dimensions must be three positive lengths")
        if self.t60 < 0.0:
            raise ValueError("t60 must be non-negative")
        if center.shape != (3,):
            raise ValueError("array_center must be a 3-D point")
        if sources.ndim != 2 or sources.shape[1] != 3 or sources.shape[0] < 1:
            raise ValueError("source_positions must be (C, 3) with C >= 1")
        for name, pts in (("array_center", center[None, :]), ("source", sources)):
            if np.any(pts <= 0.0) or np.any(pts >= dims[None, :]):
                raise ValueError(f"{name} position outside the room")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "array_center", center)
        object.__setattr__(self, "source_positions", sources)

    @property
    def num_sources(self) -> int:
        return int(self.source_positions.shape[0])

    def source_azimuths(self) -> np.ndarray:
        """Azimuth of each source as seen from the array center, degrees."""
        rel = self.source_positions - self.array_center[None, :]
        return np.mod(np.rad2deg(np.arctan2(rel[:, 1], rel[:, 0])), 360.0)


@dataclass(frozen=True, eq=False)
class MixtureScene:
    """Rendered scene: mixture is the sample-wise sum of per-source images."""

    mixture: np.ndarray          # (J, n)
    images: tuple                # per source, (J, n)


def sabine_reflection_coefficient(dimensions: np.ndarray, t60: float) -> float:
    """Uniform wall reflection coefficient from the Sabine inversion.

    alpha = 24*ln(10)*V / (c*S*t60), clamped to 1 (full absorption) when the
    requested decay is shorter than the room can physically produce;
    beta = sqrt(1 - alpha).
    """
    if t60 < 0.0:
        raise ValueError("t60 must be non-negative")
    if t60 == 0.0:
        return 0.0
    lx, ly, lz = np.asarray(dimensions, dtype=float)
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    alpha = 24.0 * np.log(10.0) * volume / (SOUND_SPEED * surface * t60)
    return float(np.sqrt(max(1.0 - alpha, 0.0)))


def calibrated_reflection_coefficient(room: "RoomConfig") -> float:
    """Reflection coefficient tuned so the simulated decay matches ``t60``.

    The Sabine seed systematically reads long on a Schroeder fit because the
    image-method decay is not a single exponential; one feedback step on a
    probe RIR (first source to array center) corrects it. Falls back to the
    seed when the probe decay cannot be measured (near-anechoic rooms).
    """
    beta = sabine_reflection_coefficient(room.dimensions, room.t60)
    if beta <= 0.0 or room.t60 <= 0.0:
        return beta
    source = room.source_positions[0]
    mic = room.array_center
    probe = _image_method(source, mic, room.dimensions, beta, room.t60, room.sample_rate)
    try:
        measured = estimate_t60(probe, room.sample_rate)
    except ValueError:
        return beta
    return float(beta ** (measured / room.t60))


def _windowed_sinc_rir(distances: np.ndarray, amplitudes: np.ndarray,
                       npts: int, fs: float, c: float) -> np.ndarray:
    """Scatter fractional-delay impulses into an RIR buffer.

    An impulse of amplitude a at delay d samples lands on the 2W+1 samples
    round(d) + o, o in [-W, W], as a * hann(o - f) * sinc(o - f) with
    f = d - round(d) and W = ``SINC_HALF_WIDTH``; the Hann window is zero
    beyond |o - f| = W. Window and sinc are evaluated per impulse, not per
    tap, through the exact identities sin(pi (o - f)) = -(-1)**o sin(pi f)
    and cos(pi (o - f) / W) = cos(pi o / W) cos(pi f / W)
    + sin(pi o / W) sin(pi f / W): three sines and cosines per impulse,
    then one product and one division per tap.
    """
    w = SINC_HALF_WIDTH
    delays = distances / c * fs
    keep = delays < npts + w
    delays = delays[keep]
    amplitudes = amplitudes[keep]
    centers = np.round(delays)
    frac = delays - centers          # in [-0.5, 0.5]: np.round halves to even
    centers = centers.astype(np.int64)
    # Below 1e-9 window and sinc round to 1 at the centre tap, and sin(pi f)
    # may be subnormal, so those impulses take their amplitude there.
    exact = np.abs(frac) < 1e-9
    # a * hann(o - f) * sinc(o - f)
    #   = (-1)**o * (1 + cos(pi o/W) cf + sin(pi o/W) sf) * g / (o - f).
    g = amplitudes * np.sin(np.pi * frac) * (-0.5 / np.pi)
    cf = np.cos(np.pi * frac / w)
    sf = np.sin(np.pi * frac / w)
    # Buffer index i holds sample i - W; centers reach npts + W.
    length = npts + w + 1
    buf = np.zeros(npts + 3 * w + 1)
    for o in range(-w, w + 1):
        sign = -1.0 if o % 2 else 1.0
        co, so = sign * np.cos(np.pi * o / w), sign * np.sin(np.pi * o / w)
        num = (sign + co * cf + so * sf) * g
        if o == 0:
            tap = np.divide(num, -frac, out=amplitudes.copy(), where=~exact)
        else:
            tap = num / (o - frac)
        if o == w:
            tap = np.where(frac < 0.0, 0.0, tap)
        elif o == -w:
            tap = np.where(frac > 0.0, 0.0, tap)
        buf[w + o:w + o + length] += np.bincount(centers, weights=tap, minlength=length)
    return buf[w:w + npts]


def _image_method(source: np.ndarray, mic: np.ndarray, dims: np.ndarray,
                  beta: float, t60: float, fs: float) -> np.ndarray:
    # The response lasts ``t60`` past the direct-path arrival.
    duration = t60 + float(np.linalg.norm(source - mic)) / SOUND_SPEED
    npts = int(np.ceil(duration * fs)) + SINC_HALF_WIDTH + 1
    max_dist = SOUND_SPEED * (npts + SINC_HALF_WIDTH) / fs
    if beta == 0.0:
        orders = np.zeros(3, dtype=int)
    else:
        orders = (np.ceil(max_dist / (2.0 * dims)) + 1).astype(int)
    grids = [np.arange(-o, o + 1) for o in orders]
    # An axis with images -o..o reflects at most 2*o + 1 times (r = o, p = 1).
    # beta**0 == 1 covers the direct path, also at beta == 0.
    gain = beta ** np.arange(int(np.sum(2 * orders + 1)) + 1)
    h = np.zeros(npts)
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                p = (px, py, pz)
                coords = []
                refl = []
                for ax in range(3):
                    r = grids[ax]
                    coords.append((1 - 2 * p[ax]) * source[ax] + 2.0 * r * dims[ax])
                    refl.append(np.abs(r + p[ax]) + np.abs(r))
                dx = coords[0] - mic[0]
                dy = coords[1] - mic[1]
                dz2 = (coords[2] - mic[2]) ** 2
                # Cull the (x, y) columns, then the z range, that lie beyond
                # reach even at the nearest z (or column). Rounding is
                # monotone, so a cull never drops an image the exact test
                # below keeps; kept images stay in row-major (x, y, z) order,
                # the order their impulses are summed in.
                dxy2 = dx[:, None] ** 2 + dy[None, :] ** 2
                cols = np.sqrt(dxy2 + dz2.min()) <= max_dist
                if not cols.any():
                    continue
                dxy2 = dxy2[cols]
                zs = np.sqrt(dxy2.min() + dz2) <= max_dist
                d = np.sqrt(dxy2[:, None] + dz2[zs]).ravel()
                total_refl = ((refl[0][:, None] + refl[1][None, :])[cols][:, None]
                              + refl[2][zs]).ravel()
                near = d <= max_dist
                d = d[near]
                total_refl = total_refl[near]
                amp = gain[total_refl] / (4.0 * np.pi * d)
                h += _windowed_sinc_rir(d, amp, npts, fs, SOUND_SPEED)
    return h


def simulate_rir(room: RoomConfig, source_index: int, mic_position: np.ndarray,
                 reflection_coefficient: float) -> np.ndarray:
    """Image-method RIR from one source to one mic position, with walls of
    ``reflection_coefficient`` (the room's own is
    :func:`calibrated_reflection_coefficient`).

    ``t60 == 0`` yields the anechoic direct path only (amplitude
    1/(4*pi*d) at delay d/c).
    """
    if not 0 <= source_index < room.num_sources:
        raise ValueError(f"source_index {source_index} out of range")
    source = room.source_positions[source_index]
    mic = np.asarray(mic_position, dtype=float).ravel()
    if mic.shape != (3,):
        raise ValueError("mic_position must be a 3-D point")
    return _image_method(source, mic, room.dimensions, float(reflection_coefficient),
                         room.t60, room.sample_rate)


def mic_positions_in_room(room: RoomConfig, array: MicArray) -> np.ndarray:
    """Array mic coordinates translated to the room's array center."""
    return array.positions + room.array_center[None, :]


def simulate_rirs(room: RoomConfig, array: MicArray) -> tuple[np.ndarray, ...]:
    """All source-to-mic RIRs; per source a (J, length) array.

    One calibrated reflection coefficient is shared by every path in the
    room.
    """
    mics = mic_positions_in_room(room, array)
    beta = calibrated_reflection_coefficient(room)
    per_source = []
    for c in range(room.num_sources):
        rirs = [simulate_rir(room, c, mic, reflection_coefficient=beta) for mic in mics]
        length = max(r.size for r in rirs)
        per_source.append(np.stack([np.pad(r, (0, length - r.size)) for r in rirs]))
    return tuple(per_source)


def _fast_rfft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, for n >= 1."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _convolve_rows(signal: np.ndarray, rirs: np.ndarray) -> np.ndarray:
    """Full linear convolution of ``signal`` with each row of ``rirs`` (J, L).

    The FFT length is the 2*3*5-smooth size ``fftconvolve`` pads to: with it
    the images match datasets rendered by ``fftconvolve`` bit for bit, while
    an exact or power-of-two length moves ~3% of float32 samples by one ULP."""
    n = signal.size + rirs.shape[1] - 1
    n_fft = _fast_rfft_length(n)
    spec = np.fft.rfft(signal, n_fft) * np.fft.rfft(rirs, n_fft, axis=-1)
    return np.fft.irfft(spec, n_fft, axis=-1)[:, :n]


def render_mixture(dry_sources: Sequence[np.ndarray], room: RoomConfig,
                   array: MicArray,
                   mixing_gains_db: Sequence[float] | None = None) -> MixtureScene:
    """Convolve dry sources with their RIRs, level them on the reference
    channel, and sum into a J-channel mixture.

    ``mixing_gains_db[c]`` is the level of source c's reference-channel
    image; relative gains are realized as exact power ratios.
    """
    dry = [np.asarray(s, dtype=float).ravel() for s in dry_sources]
    if len(dry) != room.num_sources:
        raise ValueError(f"{len(dry)} dry sources but room has {room.num_sources} positions")
    for c, s in enumerate(dry):
        if s.size == 0 or not np.any(s):
            raise ValueError(f"dry source {c} is silent")
    gains = np.zeros(len(dry)) if mixing_gains_db is None else np.asarray(mixing_gains_db, dtype=float)
    if gains.size != len(dry):
        raise ValueError("one gain per source expected")

    # Every RIR first, so the common image length is known before any
    # convolution: each image is then copied once into a zero-padded buffer,
    # scaled there and summed into the mixture, with no other copy.
    rirs = simulate_rirs(room, array)
    length = max(s.size + h.shape[1] - 1 for s, h in zip(dry, rirs))
    ref = array.ref_index
    images, mixture = [], None
    for c, (s, h) in enumerate(zip(dry, rirs)):
        convolved = _convolve_rows(s, h)
        # Allocated after the convolution, the buffer sits above the hole its
        # freed spectra leave, which the next source's convolution reuses; a
        # free heap top instead is trimmed and faulted in again per source.
        img = np.zeros((h.shape[0], length))
        img[:, :convolved.shape[1]] = convolved
        del convolved
        power = float(np.mean(img[ref] ** 2))
        if power <= 0.0:
            raise ValueError(f"source {c} produced a silent reference image")
        img *= REF_IMAGE_RMS * 10.0 ** (gains[c] / 20.0) / np.sqrt(power)
        images.append(img)
        # Summed in source order, as np.sum over the stacked images does.
        if mixture is None:
            mixture = img.copy()
        else:
            mixture += img
    return MixtureScene(mixture=mixture, images=tuple(images))


def _ray_box_range(center: np.ndarray, direction: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest distance from ``center`` along unit ``direction`` staying in [lo, hi] (xy)."""
    t_max = np.inf
    for ax in range(2):
        if abs(direction[ax]) < 1e-12:
            continue
        for bound in (lo[ax], hi[ax]):
            t = (bound - center[ax]) / direction[ax]
            if t > 0:
                t_max = min(t_max, t)
    return float(t_max)


def sample_scene(rng_seed, n_sources: int, sample_rate: int, array_radius: float,
                 azimuths: Sequence[float] | None = None,
                 t60_range: tuple[float, float] = T60_RANGE,
                 max_attempts: int = 50) -> tuple[RoomConfig, list[float]]:
    """Sample a room, T60, array center and source positions for a recording
    at ``sample_rate`` by an array of horizontal ``array_radius``, both
    stated by the caller.

    Rooms range from 3x3x2.5 m to 8x10x6 m, T60 uniform in ``t60_range``,
    sources and every mic of an array of horizontal ``array_radius`` at least
    0.3 m from every wall (an attempt whose room is too small fails), sources
    and array on one horizontal plane, drawn sources at least
    ``MIN_SOURCE_DISTANCE`` from every mic. Deterministic for a fixed seed.
    Optional ``azimuths`` pin the source bearings (used by calibration tests
    and demos); pinned sources keep that distance from the array center only.

    Returns the room plus the exact source azimuths in degrees.
    """
    if n_sources < 1:
        raise ValueError("n_sources must be >= 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    if azimuths is not None and len(azimuths) != n_sources:
        raise ValueError("one pinned azimuth per source expected")

    for _ in range(max_attempts):
        dims = rng.uniform(ROOM_DIM_LO, ROOM_DIM_HI)
        t60 = float(rng.uniform(*t60_range))
        lo = np.array([WALL_MARGIN, WALL_MARGIN])
        hi = dims[:2] - WALL_MARGIN
        center_lo = lo + array_radius
        center_hi = hi - array_radius
        if np.any(center_lo >= center_hi):
            continue
        plane_z = float(rng.uniform(WALL_MARGIN, dims[2] - WALL_MARGIN))
        center_xy = rng.uniform(center_lo, center_hi)
        center = np.array([center_xy[0], center_xy[1], plane_z])

        positions = []
        for c in range(n_sources):
            for _ in range(200):
                if azimuths is not None:
                    rad = np.deg2rad(normalize_azimuth(float(azimuths[c])))
                    direction = np.array([np.cos(rad), np.sin(rad)])
                    r_max = _ray_box_range(center_xy, direction, lo, hi)
                    if r_max <= MIN_SOURCE_DISTANCE:
                        break
                    r = float(rng.uniform(MIN_SOURCE_DISTANCE, r_max))
                    xy = center_xy + r * direction
                else:
                    xy = rng.uniform(lo, hi)
                    if np.linalg.norm(xy - center_xy) < MIN_SOURCE_DISTANCE + array_radius:
                        continue
                positions.append(np.array([xy[0], xy[1], plane_z]))
                break
            if len(positions) == c:  # source c could not be placed
                break
        if len(positions) < n_sources:
            continue
        room = RoomConfig(dimensions=dims, t60=t60, array_center=center,
                          source_positions=np.stack(positions), sample_rate=sample_rate)
        return room, [float(a) for a in room.source_azimuths()]
    raise SceneGenerationError(
        f"could not satisfy scene constraints after {max_attempts} attempts")


def estimate_t60(rir: np.ndarray, sample_rate: int) -> float:
    """Reverberation time from the Schroeder backward-integrated decay.

    Fits a line to the energy-decay curve between -5 and -25 dB and
    extrapolates to -60 dB.
    """
    h = np.asarray(rir, dtype=float).ravel()
    energy = h ** 2
    total = energy.sum()
    if total <= 0.0:
        raise ValueError("impulse response has no energy")
    edc = np.cumsum(energy[::-1])[::-1] / total
    db = 10.0 * np.log10(np.maximum(edc, 1e-30))
    hi, lo = -5.0, -25.0
    start = int(np.argmax(db <= hi))
    stop = int(np.argmax(db <= lo))
    if db[start] > hi or db[stop] > lo or stop <= start + 1:
        raise ValueError("decay range not covered by this impulse response")
    t = np.arange(start, stop + 1) / sample_rate
    slope, _ = np.polyfit(t, db[start:stop + 1], 1)
    if slope >= 0.0:
        raise ValueError("non-decaying energy curve")
    return float(-60.0 / slope)
