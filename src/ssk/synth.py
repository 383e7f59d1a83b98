"""Built-in synthetic test signals: noise bursts, AM tones, chirps and a
speech-like generator (random voiced/unvoiced/silence segments) used by the
dataset pipeline when no source corpus is supplied."""

from __future__ import annotations

import numpy as np


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def noise_burst(rng_seed, duration: float, sample_rate: int,
                band: tuple[float, float] = (200.0, 6000.0)) -> np.ndarray:
    """Band-limited white noise with a Hann fade on both ends."""
    rng = _rng(rng_seed)
    n = int(round(duration * sample_rate))
    x = rng.standard_normal(n)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spec[(freqs < band[0]) | (freqs > band[1])] = 0.0
    x = np.fft.irfft(spec, n=n)
    fade = min(n // 8, 320)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        x[:fade] *= ramp
        x[-fade:] *= ramp[::-1]
    return _unit_rms(x)


def am_tone(rng_seed, duration: float, sample_rate: int) -> np.ndarray:
    """Amplitude-modulated sinusoid: a 300-3000 Hz carrier, 2-8 Hz modulation."""
    rng = _rng(rng_seed)
    carrier = float(rng.uniform(300.0, 3000.0))
    mod_rate = float(rng.uniform(2.0, 8.0))
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    env = 0.5 * (1.0 + np.sin(2.0 * np.pi * mod_rate * t + rng.uniform(0, 2 * np.pi)))
    x = env * np.sin(2.0 * np.pi * carrier * t + rng.uniform(0, 2 * np.pi))
    return _unit_rms(x)


def chirp(rng_seed, duration: float, sample_rate: int) -> np.ndarray:
    """Linear frequency sweep from 200 to 6000 Hz."""
    rng = _rng(rng_seed)
    f0, f1 = 200.0, 6000.0
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) / duration * t ** 2)
    return _unit_rms(np.sin(phase + rng.uniform(0, 2 * np.pi)))


def speech_like(rng_seed, duration: float, sample_rate: int) -> np.ndarray:
    """Speech-like signal: a random sequence of harmonic (voiced), noisy
    (unvoiced) and silent segments, 50-180 ms each, with formant-shaped
    spectra, pitch vibrato and syllel-level dynamics.

    The point is time-frequency sparsity: mixtures of two such signals are
    largely disjoint in T-F, which is what makes oracle masks meaningful.
    """
    rng = _rng(rng_seed)
    total = int(round(duration * sample_rate))
    out = np.zeros(total)
    pos = 0
    while pos < total:
        seg_len = int(rng.uniform(0.05, 0.18) * sample_rate)
        seg_len = min(seg_len, total - pos)
        kind = rng.choice(["voiced", "unvoiced", "silence"], p=[0.5, 0.25, 0.25])
        if kind == "voiced":
            seg = _voiced_segment(rng, seg_len, sample_rate)
        elif kind == "unvoiced":
            lo = rng.uniform(1200.0, 3500.0)
            hi = lo + rng.uniform(800.0, 3500.0)
            seg = noise_burst(rng, seg_len / sample_rate, sample_rate, band=(lo, hi))
            seg = seg[:seg_len]
        else:
            seg = np.zeros(seg_len)
        # Per-segment level dynamics (stressed vs unstressed).
        level = 10.0 ** (rng.uniform(-12.0, 0.0) / 20.0)
        out[pos:pos + seg_len] = seg[:seg_len] * level
        pos += seg_len
    if not np.any(out):
        # Degenerate all-silence draw; fall back to one voiced segment.
        out[:] = _voiced_segment(rng, total, sample_rate)
    return _unit_rms(out)


def _voiced_segment(rng: np.random.Generator, length: int, sample_rate: int) -> np.ndarray:
    t = np.arange(length) / sample_rate
    f0 = rng.uniform(85.0, 280.0)
    drift = rng.uniform(-40.0, 40.0)
    vibrato = rng.uniform(1.0, 4.0) * np.sin(2.0 * np.pi * rng.uniform(4.0, 7.0) * t
                                             + rng.uniform(0, 2 * np.pi))
    inst_f0 = f0 + vibrato + (drift * t / max(float(t[-1]), 1e-6) if length > 1 else 0.0)
    phase0 = np.cumsum(2.0 * np.pi * inst_f0 / sample_rate)
    max_harmonic = max(int(min(4500.0, 0.45 * sample_rate) // f0), 1)
    harmonics_f = np.arange(1, max_harmonic + 1) * f0
    # Two or three random formant resonances over a 1/f tilt.
    gains = 1.0 / np.arange(1, max_harmonic + 1)
    for _ in range(int(rng.integers(2, 4))):
        center = rng.uniform(300.0, 3200.0)
        bandwidth = rng.uniform(80.0, 400.0)
        gains = gains + 2.0 * np.exp(-0.5 * ((harmonics_f - center) / bandwidth) ** 2)
    seg = np.zeros(length)
    for k in range(1, max_harmonic + 1):
        seg += gains[k - 1] * np.sin(k * phase0 + rng.uniform(0, 2 * np.pi))
    # Faint breath noise keeps the spectrum from being pure lines.
    seg += 0.02 * seg.std() * rng.standard_normal(length) if length > 1 else 0.0
    ramp = np.sin(np.pi * np.arange(length) / max(length - 1, 1))
    window = np.sqrt(np.clip(ramp, 0.0, 1.0))
    return seg * window


def _unit_rms(x: np.ndarray) -> np.ndarray:
    rms = float(np.sqrt(np.mean(x ** 2)))
    return x / rms if rms > 0 else x
