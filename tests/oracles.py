"""Independent reference implementations used as test oracles. These stay
deliberately separate from the library code paths they check."""

import itertools

import numpy as np


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
