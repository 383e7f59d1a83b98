"""Independent reference implementations used as test oracles. These stay
deliberately separate from the library code paths they check."""

import itertools
import json
import struct

import numpy as np

from ssk.geometry import angle_difference
from ssk.spectral import build_kernel


def naive_stft(x: np.ndarray, window: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """Windowed, zero-padded DFT of each frame, written straight from the
    transform definition (explicit complex exponentials, no FFT)."""
    x = np.asarray(x, dtype=float)
    win_len = window.size
    num_frames = 1 + (x.size - win_len) // hop
    n = np.arange(win_len)
    m = np.arange(fft_size // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(n, m) / fft_size)
    frames = np.stack([x[t * hop:t * hop + win_len] for t in range(num_frames)])
    return (frames * window) @ basis


def frame_dft(frame: np.ndarray, window: np.ndarray, fft_size: int) -> np.ndarray:
    """Single-frame version of :func:`naive_stft`."""
    n = np.arange(window.size)
    m = np.arange(fft_size // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(n, m) / fft_size)
    return (frame * window) @ basis


def xcorr_peak_lag(a: np.ndarray, b: np.ndarray, max_lag: int) -> int:
    """Lag (in samples) at which ``b`` best matches ``a`` shifted;
    positive lag means b is delayed relative to a."""
    lags = np.arange(-max_lag, max_lag + 1)
    scores = [np.dot(a[max(0, -lag):a.size - max(0, lag)],
                     b[max(0, lag):b.size - max(0, -lag)]) for lag in lags]
    return int(lags[int(np.argmax(scores))])


def power_db(x: np.ndarray) -> float:
    return 10.0 * np.log10(np.mean(np.asarray(x, dtype=float) ** 2))


def plane_wave_channels(tone: np.ndarray, delays_s: np.ndarray, sample_rate: int) -> np.ndarray:
    """Fractionally delay a signal per channel via the frequency domain,
    simulating ideal far-field propagation."""
    n = tone.size
    spec = np.fft.rfft(tone)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    out = np.empty((delays_s.size, n))
    for j, tau in enumerate(delays_s):
        out[j] = np.fft.irfft(spec * np.exp(-2j * np.pi * freqs * tau), n=n)
    return out


def loop_istft(data: np.ndarray, window: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """Weighted overlap-add inverse of a (T, F) spectrum, one frame at a
    time. The normaliser floor is its fully overlapped minimum, read off
    the accumulated window squares, so it needs T >= ceil(len(window)/hop)."""
    win_len = window.size
    num_frames = data.shape[0]
    frames = np.fft.irfft(data, n=fft_size, axis=1)[:, :win_len]
    out = np.zeros((num_frames - 1) * hop + win_len)
    norm = np.zeros_like(out)
    for t in range(num_frames):
        out[t * hop:t * hop + win_len] += frames[t] * window
        norm[t * hop:t * hop + win_len] += window * window
    full = -(-win_len // hop) - 1
    floor = max(float(norm[full * hop:(full + 1) * hop].min()), 1e-10)
    return out / np.maximum(norm, floor)


def per_tap_windowed_sinc_rir(distances: np.ndarray, amplitudes: np.ndarray,
                              npts: int, fs: float, c: float,
                              half_width: int = 4) -> np.ndarray:
    """Fractional-delay impulses scattered into an RIR of ``npts`` samples,
    with the Hann window and the sinc evaluated on every tap: each impulse
    covers the 2 * half_width + 1 samples around its rounded delay."""
    delays = distances / c * fs
    keep = delays < npts + half_width
    delays = delays[keep]
    amplitudes = amplitudes[keep]
    centers = np.round(delays).astype(np.int64)
    offsets = np.arange(-half_width, half_width + 1)
    idx = centers[:, None] + offsets[None, :]
    u = idx - delays[:, None]
    win = np.where(np.abs(u) <= half_width,
                   0.5 * (1.0 + np.cos(np.pi * u / half_width)), 0.0)
    vals = amplitudes[:, None] * win * np.sinc(u)
    flat_idx = idx.ravel()
    flat_vals = vals.ravel()
    ok = (flat_idx >= 0) & (flat_idx < npts)
    return np.bincount(flat_idx[ok], weights=flat_vals[ok], minlength=npts)


def image_method_rir(source: np.ndarray, mic: np.ndarray, dims: np.ndarray,
                     beta: float, npts: int, fs: float, c: float,
                     half_width: int = 4) -> np.ndarray:
    """Shoebox image-method RIR (Allen & Berkley): every image source that
    can reach the first ``npts`` samples contributes
    beta ** (wall reflections) / (4 pi distance), placed with
    :func:`per_tap_windowed_sinc_rir`."""
    dims = np.asarray(dims, dtype=float)
    reach = c * (npts + half_width) / fs
    orders = np.ceil(reach / (2.0 * dims)).astype(int) + 1
    grid = np.stack(np.meshgrid(*[np.arange(-o, o + 1) for o in orders],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    h = np.zeros(npts)
    for parity in itertools.product((0, 1), repeat=3):
        p = np.array(parity)
        images = (1 - 2 * p) * source + 2.0 * grid * dims
        distances = np.linalg.norm(images - mic, axis=1)
        reflections = (np.abs(grid + p) + np.abs(grid)).sum(axis=1)
        gains = np.power(beta, reflections.astype(float)) / (4.0 * np.pi * distances)
        h += per_tap_windowed_sinc_rir(distances, gains, npts, fs, c, half_width)
    return h


def kernel_stft(x: np.ndarray, cfg) -> np.ndarray:
    """STFT in the paper's convolutional form: every frame times the
    real/imaginary kernels of ``spectral.build_kernel``."""
    real, imag = build_kernel(cfg)
    x = np.asarray(x, dtype=float)
    num_frames = 1 + (x.size - cfg.win_len) // cfg.hop
    frames = np.stack([x[t * cfg.hop:t * cfg.hop + cfg.win_len] for t in range(num_frames)])
    return frames @ real.T + 1j * (frames @ imag.T)


def direct_angle_feature(phi: np.ndarray, steer: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """AF by its definition: the mean over pairs of cos(IPD - steering
    phase), zero outside the premask."""
    return np.where(keep, np.cos(phi - steer[:, None, :]).mean(axis=0), 0.0)


def grid_dpr(data: np.ndarray, weights: np.ndarray, p: int, floor: float) -> np.ndarray:
    """DPR by its definition: the power of beam ``p`` over the summed power
    of every grid beam, from a (J, T, F) spectrum and (P, F, J) weights;
    1/P where the total is below ``floor``."""
    powers = np.abs(np.einsum("pfj,jtf->ptf", np.conj(weights), data)) ** 2
    total = powers.sum(axis=0)
    return np.where(total < floor, 1.0 / powers.shape[0],
                    powers[p] / np.maximum(total, floor))


def nearest_direction(azimuths, azimuth: float) -> int:
    """Index of the grid azimuth closest to ``azimuth``, one
    :func:`~ssk.geometry.angle_difference` at a time; the first of equals wins."""
    best = 0
    for p, az in enumerate(azimuths):
        if angle_difference(az, azimuth) < angle_difference(azimuths[best], azimuth):
            best = p
    return best


def wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Radians wrapped into (-pi, pi], as the angle of the unit phasor."""
    return np.angle(np.exp(1j * np.asarray(phi)))


def angle_ipd(data: np.ndarray, pairs) -> np.ndarray:
    """IPD by its definition, (U, T, F) from a (J, T, F) spectrum: the
    wrapped difference of the channel phase angles, 0 in bins where either
    channel is 0."""
    angles = np.angle(data)
    return np.stack([np.where((data[a] == 0) | (data[b] == 0), 0.0,
                              wrap_phase(angles[a] - angles[b]))
                     for a, b in pairs.pairs])


def loop_steering_phases(delays: np.ndarray, freqs: np.ndarray, pairs) -> np.ndarray:
    """Expected IPD 2*pi*f*(delay[b] - delay[a]), one pair (a, b) at a time, (U, F)."""
    out = np.empty((len(pairs.pairs), freqs.size))
    for u, (a, b) in enumerate(pairs.pairs):
        out[u] = 2.0 * np.pi * freqs * (delays[b] - delays[a])
    return out


def angle_ipsm(target: np.ndarray, mixture: np.ndarray, eps: float) -> np.ndarray:
    """IPSM by its phase-angle definition,
    clip(|S| cos(angle(S) - angle(Y)) / (|Y| + eps), 0, 1), and 0 where Y = 0."""
    values = (np.abs(target) * np.cos(np.angle(target) - np.angle(mixture))
              / (np.abs(mixture) + eps))
    return np.where(mixture == 0, 0.0, np.clip(values, 0.0, 1.0))


def concat_features(blocks) -> tuple[np.ndarray, tuple]:
    """A feature stack built by two float64 concatenations, the pairs of each
    (U, T, F) block side by side and then all blocks, cast to float32 at the
    end: ``(data, layout)``."""
    mats, layout = [], []
    for name, arr in blocks:
        a = np.asarray(arr, dtype=float)
        if a.ndim == 3:
            a = np.concatenate([a[u] for u in range(a.shape[0])], axis=1)
        mats.append(a)
        layout.append((name, a.shape[1]))
    return np.concatenate(mats, axis=1).astype("<f4"), tuple(layout)


def tsnf1_bytes(data: np.ndarray, layout) -> bytes:
    """A TSNF1 file as one bytes object: magic, version 1, T, D, layout
    length, layout JSON and the float32 payload, all little-endian."""
    layout_bytes = json.dumps([[name, int(width)] for name, width in layout]).encode("utf-8")
    payload = np.ascontiguousarray(data, dtype="<f4")
    header = b"TSNF1" + struct.pack("<HIII", 1, *payload.shape, len(layout_bytes))
    return header + layout_bytes + payload.tobytes()


def manifest_doc(manifest) -> dict:
    """A manifest's JSON document with every field of each utterance written
    out by hand, in schema order."""
    return {
        "schema_version": manifest.schema_version,
        "sample_rate": manifest.sample_rate,
        "array": {"num_mics": manifest.array.num_mics, "ref_index": manifest.array.ref_index,
                  "positions": manifest.array.positions.tolist()},
        "utterances": [
            {
                "id": u.id,
                "seed": u.seed,
                "mixture": u.mixture,
                "sources": [{"azimuth_deg": s.azimuth_deg,
                             "angle_difference_deg": s.angle_difference_deg,
                             "gain_db": s.gain_db, "image": s.image, "dry": s.dry}
                            for s in u.sources],
                "t60": u.t60,
                "room_dimensions": list(u.room_dimensions),
                "array_center": list(u.array_center),
            }
            for u in manifest.utterances
        ],
    }


# The analysis and separation kernels as each step into a fresh array: the
# same operations in the same order as the library's in-place forms, which
# must equal them bit for bit.


def fresh_pair_cos_sin(data: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of the pair IPDs of a (J, T, F) spectrum, each (U, T, F)."""
    re, im = data.real, data.imag
    cos, sin = np.empty((2, len(pairs.pairs)) + data.shape[1:])
    for u, (a, b) in enumerate(pairs.pairs):
        c = re[a] * re[b] + im[a] * im[b]
        s = im[a] * re[b] - re[a] * im[b]
        mod = np.sqrt(c * c + s * s)
        silent = mod == 0.0
        c[silent], s[silent], mod[silent] = 1.0, 0.0, 1.0
        cos[u], sin[u] = c / mod, s / mod
    return cos, sin


def fresh_angle_feature(cos_ipd: np.ndarray, sin_ipd: np.ndarray, steer: np.ndarray,
                        keep: np.ndarray) -> np.ndarray:
    """Mean over pairs of cos(phi)cos(s) + sin(phi)sin(s), zero outside ``keep``."""
    af = (np.einsum("utf,uf->tf", cos_ipd, np.cos(steer))
          + np.einsum("utf,uf->tf", sin_ipd, np.sin(steer))) / steer.shape[0]
    return np.where(keep, af, 0.0)


def fresh_dpr(data: np.ndarray, weights: np.ndarray, total: np.ndarray,
              num_directions: int, floor: float) -> np.ndarray:
    """|w^H Y|^2 / total for (F, J) or (P, F, J) ``weights``; 1/P where the
    total is below ``floor``."""
    power = np.abs(np.einsum("...fj,jtf->...tf", np.conj(weights), data)) ** 2
    out = power / np.maximum(total, floor)
    return np.where(total < floor, 1.0 / num_directions, out)


def fresh_istft(data: np.ndarray, cfg, norm: np.ndarray) -> np.ndarray:
    """Windowed overlap-add of the inverse rfft frames of a (T, F) spectrum,
    in ascending frame order per sample, over the normaliser ``norm``."""
    frames = np.fft.irfft(data, n=cfg.fft_size, axis=1)[:, :cfg.win_len] * cfg.window
    num_frames, length = frames.shape
    blocks = -(-length // cfg.hop)
    out = np.zeros((num_frames + blocks - 1, cfg.hop))
    for r in reversed(range(blocks)):
        width = min(cfg.hop, length - r * cfg.hop)
        out[r:r + num_frames, :width] += frames[:, r * cfg.hop:r * cfg.hop + width]
    return out.ravel()[:norm.size] / norm


def fresh_si_sdr(estimate: np.ndarray, reference: np.ndarray, cap_db: float,
                 zero_ratio: float) -> float:
    """SI-SDR in dB of zero-mean copies, capped at +-``cap_db``; +cap when
    the residual energy is below ``zero_ratio`` of the target's."""
    est = estimate - estimate.mean()
    ref = reference - reference.mean()
    target = float(est @ ref) / float(ref @ ref) * ref
    noise = est - target
    target_energy, noise_energy = float(target @ target), float(noise @ noise)
    if noise_energy < zero_ratio * target_energy:
        return cap_db
    if target_energy <= 0.0:
        return -cap_db
    return float(np.clip(10.0 * np.log10(target_energy / noise_energy), -cap_db, cap_db))


def fresh_directional_mask(af_tgt, dpr_tgt, af_intf, dpr_intf, alpha: float, beta: float,
                           eps: float) -> np.ndarray:
    """clip((alpha (AF + 1)/2 + beta DPR/max DPR) / (alpha + beta), 0, 1),
    zeroed where the interferer beats the target on both AF and DPR."""
    dpr_norm = dpr_tgt / max(float(dpr_tgt.max()), eps)
    score = (alpha * (af_tgt + 1.0) / 2.0 + beta * dpr_norm) / (alpha + beta)
    if af_intf is not None:
        score = score * ((af_tgt >= af_intf) | (dpr_tgt >= dpr_intf))
    return np.clip(score, 0.0, 1.0)


def fresh_render_mixture(convolved, ref: int, gains_db, rms: float) -> tuple[np.ndarray, list]:
    """Mixture and images from per-source (J, n_c) convolutions, each step
    into a fresh array: zero-padded to the longest, each scaled to ``rms``
    times its gain on the reference row, then summed with ``np.sum`` over
    the stack."""
    gains = np.asarray(gains_db, dtype=float)
    length = max(img.shape[1] for img in convolved)
    padded = [np.pad(img, ((0, 0), (0, length - img.shape[1]))) for img in convolved]
    scaled = []
    for c, img in enumerate(padded):
        power = float(np.mean(img[ref] ** 2))
        scaled.append(img * (rms * 10.0 ** (gains[c] / 20.0) / np.sqrt(power)))
    return np.sum(scaled, axis=0), scaled
