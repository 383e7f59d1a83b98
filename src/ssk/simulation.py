"""The simulation stage: reverberant scenes and their manifest.

Each scene is drawn from its own seed (room, T60, array centre, source
positions, dry signals and mixing gains), rendered by
:func:`~ssk.room_sim.render_mixture` and written as WAVs; one utterance per
scene, on ``jobs`` threads under the batch rule of :mod:`ssk.stages`; the
stage writes the WAVs and then its summary file, the manifest.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import synth
from .dataset_io import (DataFormatError, Manifest, SourceEntry, UtteranceEntry, read_manifest,
                         read_wav, write_manifest, write_wav)
from .geometry import MicArray, closest_source
from .metrics import BIN_LABELS, bin_index
from .room_sim import render_mixture, sample_scene
from .stages import SYNTH_KIND_NAMES, _each

SYNTH_KINDS = dict(zip(SYNTH_KIND_NAMES, (synth.speech_like, synth.noise_burst,
                                          synth.am_tone, synth.chirp), strict=True))


def _scene_gains(rng: np.random.Generator, n_sources: int) -> list[float]:
    # First source at 0 dB, others mixed in at 0..-5 dB below it.
    return [0.0] + [float(rng.uniform(-5.0, 0.0)) for _ in range(n_sources - 1)]


def simulate_dataset(out_dir, num_scenes: int, num_speakers: int, seed: int,
                     array: MicArray, sample_rate: int, duration: float, synth_kind: str,
                     source_dir, jobs: int) -> Manifest:
    """Render ``num_scenes`` reverberant scenes recorded by ``array`` at
    ``sample_rate`` to ``out_dir``, then the manifest. Dry sources are
    ``synth_kind`` signals unless ``source_dir`` names a pool of WAVs.
    Deterministic for a fixed seed."""
    out = Path(out_dir)
    seed_rng = np.random.default_rng(seed)
    scene_seeds = seed_rng.integers(0, 2 ** 31 - 1, size=num_scenes)
    array_radius = float(np.max(np.hypot(array.positions[:, 0], array.positions[:, 1])))

    source_pool = None
    if source_dir is not None:
        source_pool = sorted(Path(source_dir).glob("*.wav"))
        if not source_pool:
            raise FileNotFoundError(f"no WAV files in source dir {source_dir}")
    elif synth_kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic source kind {synth_kind!r}")
    (out / "wav").mkdir(parents=True, exist_ok=True)

    ids = [f"utt_{index:05d}" for index in range(num_scenes)]

    def render_one(index: int, written: list[Path]) -> UtteranceEntry:
        utt_id = ids[index]
        scene_seed = int(scene_seeds[index])
        rng = np.random.default_rng(scene_seed)
        room, azimuths = sample_scene(rng, num_speakers, sample_rate=sample_rate,
                                      array_radius=array_radius)
        dry = [_draw_source(rng, duration, sample_rate, synth_kind, source_pool)
               for _ in range(num_speakers)]
        gains = _scene_gains(rng, num_speakers)
        scene = render_mixture(dry, room, array, mixing_gains_db=gains)

        def write(relative: str, waveform: np.ndarray) -> str:
            write_wav(out / relative, waveform, sample_rate)
            written.append(out / relative)
            return relative

        mix_rel = write(f"wav/{utt_id}_mix.wav", scene.mixture)
        sources = []
        for c in range(num_speakers):
            img_rel = write(f"wav/{utt_id}_src{c}_img.wav", scene.images[c])
            dry_rel = write(f"wav/{utt_id}_src{c}_dry.wav", dry[c])
            difference = closest_source(azimuths, c)[1] if num_speakers > 1 else 180.0
            sources.append(SourceEntry(
                azimuth_deg=azimuths[c], angle_difference_deg=difference,
                gain_db=gains[c], image=img_rel, dry=dry_rel))
        return UtteranceEntry(
            id=utt_id, seed=scene_seed, mixture=mix_rel, sources=tuple(sources),
            t60=float(room.t60),
            room_dimensions=tuple(float(d) for d in room.dimensions),
            array_center=tuple(float(x) for x in room.array_center))

    utterances = _each(render_one, ids, jobs, [out / "manifest.json"])

    manifest = Manifest(sample_rate=sample_rate, array=array, utterances=tuple(utterances))
    write_manifest(out / "manifest.json", manifest)
    return read_manifest(out / "manifest.json")


def _draw_source(rng: np.random.Generator, duration: float, sample_rate: int,
                 synth_kind: str, source_pool) -> np.ndarray:
    if source_pool is None:
        return SYNTH_KINDS[synth_kind](rng, duration, sample_rate)
    path = source_pool[int(rng.integers(len(source_pool)))]
    wav, _ = read_wav(path, expected_rate=sample_rate)
    if wav.shape[0] != 1:
        raise DataFormatError(f"{path}: {wav.shape[0]} channels; the pool takes mono WAVs")
    mono = wav[0]
    need = int(round(duration * sample_rate))
    if mono.size >= need:
        start = int(rng.integers(0, mono.size - need + 1))
        return mono[start:start + need]
    reps = int(np.ceil(need / mono.size))
    return np.tile(mono, reps)[:need]


def angle_difference_histogram(manifest: Manifest) -> dict[str, int]:
    """Scene counts per angle-difference bin (first source's difference)."""
    counts = dict.fromkeys(BIN_LABELS, 0)
    for u in manifest.utterances:
        if not u.sources:
            continue
        counts[BIN_LABELS[bin_index(u.sources[0].angle_difference_deg)]] += 1
    return counts
