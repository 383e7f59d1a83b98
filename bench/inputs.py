"""Seeded dry-source pool: the only input that changes with the seed.

Every workload renders its scenes from the same fixed set of rooms (a
constant ``simulate --seed``), so room-simulation cost, which spans two
orders of magnitude with T60 and room volume, is the same for every seed.
The seed draws the dry signals that ``simulate --source-dir`` places in
those rooms, so mixtures, estimates and scores change with it.

Signals are written as PCM16 mono WAVs with the standard library, so
generating them needs numpy only and never imports ``ssk``.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
POOL_FILES = 8
POOL_SECONDS = 3.0


# Segment kinds in syllable-like order: voiced, voiced, unvoiced, voiced,
# pause. Cycling through them from a random start keeps the voiced, unvoiced
# and silent share of every excerpt nearly the same. With kinds drawn
# independently, that share alone swung the mean SI-SDRi by a quarter from
# seed to seed.
VOICED, UNVOICED, PAUSE = range(3)
PATTERN = (VOICED, VOICED, UNVOICED, VOICED, PAUSE)


def speech_like(rng: np.random.Generator, num_samples: int) -> np.ndarray:
    """Voiced (formant-weighted harmonics), unvoiced (noise) and silent
    segments of 50-200 ms: sparse in time-frequency like speech."""
    out = np.zeros(num_samples)
    pos = 0
    step = int(rng.integers(len(PATTERN)))
    while pos < num_samples:
        seg = min(int(rng.uniform(0.05, 0.2) * SAMPLE_RATE), num_samples - pos)
        kind = PATTERN[step % len(PATTERN)]
        step += 1
        t = np.arange(seg) / SAMPLE_RATE
        if kind == VOICED:
            f0 = rng.uniform(90.0, 260.0) * (1.0 + 0.03 * np.sin(
                2.0 * np.pi * rng.uniform(3.0, 7.0) * t))
            phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
            k = np.arange(1, 1 + int(3800.0 // f0.max()))
            formants = rng.uniform([300.0, 900.0, 2200.0], [900.0, 2200.0, 3500.0])
            amps = 0.05 + sum(np.exp(-0.5 * ((k * f0.mean() - f) / 150.0) ** 2)
                              for f in formants)
            offsets = rng.uniform(0.0, 2.0 * np.pi, (k.size, 1))
            x = (amps[:, None] * np.sin(k[:, None] * phase[None, :] + offsets)).sum(axis=0)
        elif kind == UNVOICED:
            x = 0.3 * np.diff(rng.standard_normal(seg + 1))
        else:
            x = np.zeros(seg)
        out[pos:pos + seg] = x * np.hanning(seg)
        pos += seg
    return out


def pcm16_bytes(signal: np.ndarray) -> bytes:
    """Peak-normalise to 0.5 full scale and quantise to little-endian PCM16."""
    peak = float(np.max(np.abs(signal)))
    scaled = 0.5 * signal / peak if peak > 0.0 else signal
    return np.round(scaled * 32767.0).astype("<i2").tobytes()


def write_source_pool(out_dir: Path, seed: int) -> list[Path]:
    """Write ``POOL_FILES`` speech-like mono WAVs drawn from ``seed``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(POOL_FILES):
        frames = pcm16_bytes(speech_like(rng, int(POOL_SECONDS * SAMPLE_RATE)))
        path = out_dir / f"src{i:02d}.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(SAMPLE_RATE)
            fh.writeframes(frames)
        paths.append(path)
    return paths


def first_source_digest(seed: int) -> bytes:
    """PCM bytes of the first pool file for ``seed``, for the check that
    different seeds give different inputs."""
    rng = np.random.default_rng(seed)
    return pcm16_bytes(speech_like(rng, int(POOL_SECONDS * SAMPLE_RATE)))
