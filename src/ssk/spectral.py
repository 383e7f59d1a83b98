"""STFT of the paper's real/imaginary convolution kernels, its inverse, and LPS.

The paper realizes the analysis as convolution with the kernels

    K_real[m, n] = w[n] * cos(2*pi*n*m / N)
    K_imag[m, n] = -w[n] * sin(2*pi*n*m / N)

(:func:`build_kernel`), so frame t of bin m is ``frames @ K.T``: the
windowed, zero-padded N-point DFT of the frame. :func:`stft` computes that
DFT as one ``rfft`` of all windowed frames at once, which agrees with the
kernel product to rounding (about 1e-14 of the peak) at a fraction of the
cost; the kernels themselves are built only as the reference form. Every
transform is described by its :class:`StftConfig` alone, and every
spectrogram, one channel or many, is a :class:`ComplexSpectrogram`. The
constant per-frame phase factor of the convolutional STFT is omitted
throughout: it has unit magnitude and cancels in every inter-channel phase
difference, which is all the downstream features consume.

Long signals are worked in blocks of :data:`BLOCK_FRAMES` frames, one size
for the spatial analysis (``spatial_features.SpatialAnalysis``) and the
synthesis. :func:`istft` inverts a spectrogram, times a mask if one is
given, one block at a time into one output buffer of the caller's length:
blocks go in ascending order and each overlap-adds its frames so that every
sample sums them in ascending frame order, so the result is bit-equal to one
pass over all frames and no whole frame array is held.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Frames per block of the spatial analysis and of the synthesis: 0.16 s at
# the paper's 1.25 ms hop.
BLOCK_FRAMES = 128


class StftConfigError(ValueError):
    """Raised for analysis configurations that cannot reconstruct."""


def hann_periodic(length: int) -> np.ndarray:
    """Periodic Hann window, COLA at hop length/2."""
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def _hop_folded(x: np.ndarray, hop: int) -> np.ndarray:
    """One period of the overlap-add of ``x`` at hop ``hop``, summed in the
    order :func:`istft` accumulates, so it matches its interior bit for bit."""
    rows = np.pad(x, (0, -x.size % hop)).reshape(-1, hop)
    return np.ascontiguousarray(rows[::-1]).sum(axis=0)


@dataclass(frozen=True, eq=False)
class StftConfig:
    """Analysis window, FFT size, hop and the sample rate they apply at, all
    stated by the caller (:meth:`ssk.pipeline.PipelineConfig.default` holds
    the paper's 2.5 ms / 1.25 ms kernel).

    The window must satisfy constant overlap-add at the hop, so every config
    can be inverted by :func:`istft`."""

    window: np.ndarray
    fft_size: int
    hop: int
    sample_rate: int

    def __post_init__(self) -> None:
        win = np.asarray(self.window, dtype=float).ravel()
        if win.size < 1:
            raise StftConfigError("window must be non-empty")
        if not np.all(np.isfinite(win)):
            raise StftConfigError("window must be finite")
        if self.hop < 1 or self.hop > win.size:
            raise StftConfigError(f"hop {self.hop} must be in [1, {win.size}]")
        if self.fft_size < win.size:
            raise StftConfigError(f"fft_size {self.fft_size} < window length {win.size}")
        if self.sample_rate <= 0:
            raise StftConfigError("sample_rate must be positive")
        folded = _hop_folded(win, self.hop)
        if np.ptp(folded) >= 1e-10:
            raise StftConfigError(
                f"window of length {win.size} violates COLA at hop {self.hop}")
        object.__setattr__(self, "window", win)

    @classmethod
    def oracle_mask_default(cls, sample_rate: int) -> "StftConfig":
        """16 ms Hann / 256-point FFT / 50% hop used for oracle masks."""
        return cls(window=hann_periodic(256), fft_size=256, hop=128, sample_rate=sample_rate)

    @property
    def win_len(self) -> int:
        return int(self.window.size)

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def freqs(self) -> np.ndarray:
        """Bin center frequencies in Hz."""
        return np.arange(self.num_bins) * self.sample_rate / self.fft_size

    def num_frames(self, num_samples: int) -> int:
        """Frames of a signal of ``num_samples`` samples (see :func:`rfft_frames`);
        one shorter than a window raises :class:`ValueError`."""
        if num_samples < self.win_len:
            raise ValueError(
                f"signal of {num_samples} samples is shorter than one frame ({self.win_len})")
        return (num_samples - self.win_len) // self.hop + 1


@dataclass(frozen=True, eq=False)
class ComplexSpectrogram:
    """Complex T-F data at one analysis config: (T, F) for one channel,
    (J, T, F) for J channels."""

    data: np.ndarray
    config: StftConfig

    @property
    def num_frames(self) -> int:
        return int(self.data.shape[-2])


def build_kernel(cfg: StftConfig) -> tuple[np.ndarray, np.ndarray]:
    """The paper's real and imaginary analysis kernels for ``cfg``, each
    (num_bins, win_len): the convolutional form of :func:`stft`."""
    n = np.arange(cfg.win_len)
    m = np.arange(cfg.num_bins)
    phase = 2.0 * np.pi * np.outer(m, n) / cfg.fft_size
    return cfg.window[None, :] * np.cos(phase), -cfg.window[None, :] * np.sin(phase)


def rfft_frames(waveform: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Spectra of the frames along the last axis of ``waveform``,
    (..., n) -> (..., frames, bins): frame t covers samples
    [t*hop, t*hop + win_len), no boundary padding. Each row along the leading
    axes is transformed as if alone, bit for bit."""
    x = np.asarray(waveform, dtype=float)
    cfg.num_frames(x.shape[-1])
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.win_len, axis=-1)[..., ::cfg.hop, :]
    return np.fft.rfft(frames * cfg.window, n=cfg.fft_size)


def stft(signal: np.ndarray, cfg: StftConfig) -> ComplexSpectrogram:
    """Analyze a single-channel waveform at ``cfg`` (see :func:`rfft_frames`);
    equal to ``frames @ (real + 1j*imag).T`` of :func:`build_kernel` up to
    rounding."""
    return ComplexSpectrogram(data=rfft_frames(np.ravel(signal), cfg), config=cfg)


def istft(spec: ComplexSpectrogram, length: int,
          mask: np.ndarray | None = None) -> np.ndarray:
    """Weighted overlap-add inverse of ``spec``, times the (T, F) ``mask``
    when given, as ``length`` samples: zero-padded past the last frame or
    trimmed. It reproduces interior
    samples of the analyzed signal (the first/last window length is
    boundary-distorted). The normaliser is floored at its fully overlapped
    minimum: at the ends it falls to one tapered window square (2e-8 at
    sample 1 of a 256-point Hann), which would blow masked edge samples up.

    The frames are synthesised in blocks of ``BLOCK_FRAMES``: each block's
    spectrum (times its mask rows) goes through the inverse rfft, the window
    and the overlap-add into the one zeroed output buffer. Blocks go in
    ascending order, so every sample still sums its frames in ascending
    frame order, bit for bit as one pass over all frames; besides the output
    only one block's scratch is allocated."""
    cfg = spec.config
    num_frames = spec.num_frames
    if mask is not None and mask.shape != spec.data.shape:
        raise ValueError(f"mask has {mask.shape} (frames, bins), the spectrogram "
                         f"{spec.data.shape}: a mask from another config or of other frames")
    norm = _istft_normaliser(cfg, num_frames)
    out = np.zeros((-(-max(length, norm.size) // cfg.hop), cfg.hop))
    for start in range(0, num_frames, BLOCK_FRAMES):
        block = spec.data[start:start + BLOCK_FRAMES]
        if mask is not None:
            block = block * mask[start:start + BLOCK_FRAMES]
        frames = np.fft.irfft(block, n=cfg.fft_size, axis=1)[:, :cfg.win_len]
        frames *= cfg.window
        _overlap_add(frames, cfg.hop, out[start:])
        del block, frames  # before the next block's, so one block's scratch at a time
    out = out.ravel()[:length]
    fitted = min(length, norm.size)
    out[:fitted] /= norm[:fitted]
    return out


@functools.lru_cache(maxsize=16)
def _istft_normaliser(cfg: StftConfig, num_frames: int) -> np.ndarray:
    """The floored overlap-add of ``num_frames`` window squares, trimmed to
    the output length; it depends on the config and frame count alone, so
    it is built once per pair (configs hash by identity) and kept read-only."""
    out_len = (num_frames - 1) * cfg.hop + cfg.win_len if num_frames else 0
    win_sq = cfg.window * cfg.window
    norm = np.zeros((-(-out_len // cfg.hop), cfg.hop))
    _overlap_add(np.broadcast_to(win_sq, (num_frames, cfg.win_len)), cfg.hop, norm)
    norm = np.maximum(norm.ravel()[:out_len], max(float(_hop_folded(win_sq, cfg.hop).min()),
                                                  1e-10))
    norm.flags.writeable = False
    return norm


def _overlap_add(frames: np.ndarray, hop: int, out: np.ndarray) -> None:
    """Add (T, L) frames at ``hop`` into the rows of the (rows, hop) buffer
    ``out``, frame t from row t on, one hop-wide column block per step (the
    last one may be narrower). Column blocks go in descending offset, so each
    sample sums its frames in ascending frame order, as a frame-by-frame
    loop does, bit for bit."""
    num_frames, length = frames.shape
    for r in reversed(range(-(-length // hop))):
        width = min(hop, length - r * hop)
        out[r:r + num_frames, :width] += frames[:, r * hop:r * hop + width]


LPS_FLOOR = 1e-12


def lps(spec: ComplexSpectrogram) -> np.ndarray:
    """Log power spectrum in dB: 10*log10(re^2 + im^2 + floor)."""
    power = spec.data.real ** 2 + spec.data.imag ** 2
    return 10.0 * np.log10(power + LPS_FLOOR)
