"""Batch pipeline shared by the CLI: dataset simulation, feature extraction,
separation and evaluation over a manifest.

Features, separation and the direction-error sweep work one utterance at a
time: an :class:`UtteranceAnalysis` reads the mixture and analyses it once,
and every target of that utterance, under every separation :class:`Run`
(one per sweep point), reuses it. ``jobs`` threads take whole utterances."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import synth
from .dataset_io import (Manifest, SourceEntry, UtteranceEntry, atomic_write_bytes,
                         read_manifest, read_wav, write_features, write_manifest,
                         write_wav)
from .geometry import (DirectionGrid, MicArray, PairSelection, angle_difference,
                       circular_array, min_angle_difference)
from .metrics import BIN_LABELS, EvalRecord, EvalReport, aggregate, bin_index, si_sdr
from .room_sim import render_mixture, sample_scene
from .separation import (MaskKind, apply_mask, das_beamform, directional_mask,
                         oracle_mask)
from .spatial_features import (FeatureStack, MultichannelSpectrogram,
                               angle_feature_from_ipd, assemble_features,
                               beam_powers, das_filterbank, dpr_from_powers, ipd,
                               multichannel_stft, nearest_direction,
                               pair_steering_phases, premask)
from .spectral import StftConfig, build_kernel, hann_periodic, lps

ORACLE_METHODS = {"ibm": MaskKind.IBM, "irm": MaskKind.IRM, "ipsm": MaskKind.IPSM}
METHODS = tuple(ORACLE_METHODS) + ("heuristic", "das")


@dataclass(frozen=True)
class PipelineConfig:
    """Array, pair selection, direction grid and analysis configs used by
    every stage. ``pairs`` is None for single-mic arrays, where pairwise
    features are unavailable."""

    array: MicArray
    pairs: PairSelection | None
    grid: DirectionGrid
    stft_cfg: StftConfig
    oracle_cfg: StftConfig

    @classmethod
    def default(cls, sample_rate: int = 16000, num_mics: int = 6,
                array_diameter: float = 0.07, grid_step: float = 10.0,
                fft_size: int = 64, win_len: int = 40, hop: int = 20) -> "PipelineConfig":
        array = circular_array(num_mics, array_diameter)
        if num_mics == 6:
            pairs = PairSelection.default_six()
        elif num_mics > 1:
            pairs = PairSelection(tuple((0, j) for j in range(1, num_mics)))
        else:
            pairs = None
        cfg = StftConfig(window=hann_periodic(win_len), fft_size=fft_size,
                         hop=hop, sample_rate=sample_rate)
        return cls(array=array, pairs=pairs, grid=DirectionGrid.uniform(grid_step),
                   stft_cfg=cfg, oracle_cfg=StftConfig.oracle_mask_default(sample_rate))

    def require_pairs(self) -> PairSelection:
        if self.pairs is None:
            raise ValueError("pairwise features need at least two microphones")
        return self.pairs


@dataclass(frozen=True)
class FeatureSelection:
    """Which feature blocks to compute and whether directional blocks cover
    the target only or target plus closest interferer."""

    lps: bool = True
    cosipd: bool = True
    sinipd: bool = False
    af: bool = True
    dpr: bool = True
    cond: str = "tgt"

    def __post_init__(self) -> None:
        if self.cond not in ("tgt", "tgt+intf"):
            raise ValueError(f"cond must be 'tgt' or 'tgt+intf', got {self.cond!r}")

    @classmethod
    def from_csv(cls, names: str, cond: str = "tgt") -> "FeatureSelection":
        wanted = {n.strip() for n in names.split(",") if n.strip()}
        known = {"lps", "cosipd", "sinipd", "af", "dpr"}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown feature names {sorted(unknown)}; known: {sorted(known)}")
        return cls(lps="lps" in wanted, cosipd="cosipd" in wanted,
                   sinipd="sinipd" in wanted, af="af" in wanted,
                   dpr="dpr" in wanted, cond=cond)


SYNTH_KINDS = {
    "speech": synth.speech_like,
    "noise": synth.noise_burst,
    "am": synth.am_tone,
    "chirp": synth.chirp,
}


def _map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, on ``jobs`` threads when there is more
    than one item; results keep the order of ``items``."""
    items = list(items)
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _angle_differences(azimuths: Sequence[float]) -> list[float]:
    out = []
    for i, az in enumerate(azimuths):
        others = [a for j, a in enumerate(azimuths) if j != i]
        out.append(min_angle_difference(az, others) if others else 180.0)
    return out


def _scene_gains(rng: np.random.Generator, n_sources: int) -> list[float]:
    # First source at 0 dB, others mixed in at 0..-5 dB below it.
    return [0.0] + [float(rng.uniform(-5.0, 0.0)) for _ in range(n_sources - 1)]


def simulate_dataset(out_dir, num_scenes: int, num_speakers: int, seed: int,
                     cfg: PipelineConfig, duration: float = 2.0,
                     synth_kind: str = "speech", source_dir=None,
                     jobs: int = 1) -> Manifest:
    """Render ``num_scenes`` reverberant scenes to ``out_dir`` and write a
    manifest. Deterministic (byte-identical) for a fixed seed."""
    out = Path(out_dir)
    wav_dir = out / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    sample_rate = cfg.stft_cfg.sample_rate
    seed_rng = np.random.default_rng(seed)
    scene_seeds = seed_rng.integers(0, 2 ** 31 - 1, size=num_scenes)

    source_pool = None
    if source_dir is not None:
        source_pool = sorted(Path(source_dir).glob("*.wav"))
        if not source_pool:
            raise FileNotFoundError(f"no WAV files in source dir {source_dir}")
    elif synth_kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic source kind {synth_kind!r}")

    def render_one(index: int) -> UtteranceEntry:
        utt_id = f"utt_{index:05d}"
        scene_seed = int(scene_seeds[index])
        rng = np.random.default_rng(scene_seed)
        room, azimuths = sample_scene(rng, num_speakers, sample_rate=sample_rate)
        dry = [_draw_source(rng, duration, sample_rate, synth_kind, source_pool)
               for _ in range(num_speakers)]
        gains = _scene_gains(rng, num_speakers)
        scene = render_mixture(dry, room, cfg.array, mixing_gains_db=gains)
        mix_rel = f"wav/{utt_id}_mix.wav"
        write_wav(out / mix_rel, scene.mixture, sample_rate)
        ads = _angle_differences(scene.azimuths)
        sources = []
        for c in range(num_speakers):
            img_rel = f"wav/{utt_id}_src{c}_img.wav"
            dry_rel = f"wav/{utt_id}_src{c}_dry.wav"
            write_wav(out / img_rel, scene.images[c], sample_rate)
            write_wav(out / dry_rel, scene.dry_sources[c], sample_rate)
            sources.append(SourceEntry(
                azimuth_deg=float(scene.azimuths[c]),
                angle_difference_deg=float(ads[c]),
                gain_db=float(gains[c]), image=img_rel, dry=dry_rel))
        return UtteranceEntry(
            id=utt_id, seed=scene_seed, mixture=mix_rel, sources=tuple(sources),
            t60=float(room.t60),
            room_dimensions=tuple(float(d) for d in room.dimensions),
            array_center=tuple(float(x) for x in room.array_center))

    utterances = _map(render_one, range(num_scenes), jobs)

    manifest = Manifest(
        sample_rate=sample_rate,
        array={"num_mics": cfg.array.num_mics,
               "ref_index": cfg.array.ref_index,
               "positions": [[float(x) for x in p] for p in cfg.array.positions]},
        utterances=tuple(utterances))
    write_manifest(out / "manifest.json", manifest)
    return read_manifest(out / "manifest.json")


def _draw_source(rng: np.random.Generator, duration: float, sample_rate: int,
                 synth_kind: str, source_pool) -> np.ndarray:
    if source_pool is None:
        return SYNTH_KINDS[synth_kind](rng, duration, sample_rate)
    path = source_pool[int(rng.integers(len(source_pool)))]
    wav, _ = read_wav(path, expected_rate=sample_rate)
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


# ---------------------------------------------------------------------------
# Features


def _interferer_azimuth(entry: UtteranceEntry, target_index: int) -> float:
    """Azimuth of the source closest in angle to the target."""
    tgt_az = entry.sources[target_index].azimuth_deg
    others = [(angle_difference(tgt_az, s.azimuth_deg), c)
              for c, s in enumerate(entry.sources) if c != target_index]
    if not others:
        raise ValueError(f"utterance {entry.id} has a single source; no interferer")
    return entry.sources[min(others)[1]].azimuth_deg


class _computed_once:
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


def _read(manifest: Manifest, relative: str) -> np.ndarray:
    wav, _ = read_wav(manifest.resolve(relative), expected_rate=manifest.sample_rate)
    return wav


@dataclass(frozen=True, eq=False)
class UtteranceAnalysis:
    """One utterance's mixture and the analysis every target and run shares.

    Each part is computed on first use, so a method pays only for what it
    reads: the mixture, the reference-channel source images, the
    multichannel spectrogram, the pair IPDs, the premask, the grid beam
    powers and their sum over directions. AF and DPR for any azimuth come
    from the last four.
    """

    entry: UtteranceEntry
    manifest: Manifest
    cfg: PipelineConfig

    @_computed_once
    def mixture(self) -> np.ndarray:
        return _read(self.manifest, self.entry.mixture)

    @_computed_once
    def ref_images(self) -> list[np.ndarray]:
        ref = self.cfg.array.ref_index
        return [_read(self.manifest, src.image)[ref] for src in self.entry.sources]

    @_computed_once
    def spec(self) -> MultichannelSpectrogram:
        return multichannel_stft(self.mixture, build_kernel(self.cfg.stft_cfg))

    @_computed_once
    def pair_ipds(self) -> np.ndarray:
        return ipd(self.spec, self.cfg.require_pairs())

    @_computed_once
    def premask(self) -> np.ndarray:
        return premask(self.spec, self.cfg.array.ref_index)

    @_computed_once
    def beam_powers(self) -> np.ndarray:
        cfg = self.cfg
        return beam_powers(self.spec, das_filterbank(cfg.array, cfg.grid, cfg.stft_cfg))

    @_computed_once
    def beam_total(self) -> np.ndarray:
        return self.beam_powers.sum(axis=0)

    def angle_feature(self, azimuth: float) -> np.ndarray:
        cfg = self.cfg
        steer = pair_steering_phases(cfg.array, azimuth, cfg.require_pairs(), cfg.stft_cfg)
        return angle_feature_from_ipd(self.pair_ipds, steer, self.premask)

    def dpr(self, azimuth: float) -> np.ndarray:
        return dpr_from_powers(self.beam_powers, nearest_direction(self.cfg.grid, azimuth),
                               self.beam_total)


def compute_feature_stack(analysis: UtteranceAnalysis, target: int,
                          selection: FeatureSelection) -> FeatureStack:
    """Assemble the selected feature blocks for one target of an utterance;
    with cond tgt+intf the AF and DPR blocks also cover the closest
    interferer."""
    directions = [("tgt", analysis.entry.sources[target].azimuth_deg)]
    if selection.cond == "tgt+intf":
        directions.append(("intf", _interferer_azimuth(analysis.entry, target)))
    blocks: list[tuple[str, np.ndarray]] = []
    if selection.lps:
        blocks.append(("lps", lps(analysis.spec.channel(analysis.cfg.array.ref_index))))
    if selection.cosipd:
        blocks.append(("cosipd", np.cos(analysis.pair_ipds)))
    if selection.sinipd:
        blocks.append(("sinipd", np.sin(analysis.pair_ipds)))
    if selection.af:
        blocks += [(f"af:{who}", analysis.angle_feature(az)) for who, az in directions]
    if selection.dpr:
        blocks += [(f"dpr:{who}", analysis.dpr(az)) for who, az in directions]
    return assemble_features(blocks)


def build_features(manifest: Manifest, out_dir, cfg: PipelineConfig,
                   selection: FeatureSelection, jobs: int = 1) -> list[Path]:
    """One TSNF1 file per utterance per target speaker; each mixture is read
    and analysed once for all its targets."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one(entry: UtteranceEntry) -> list[Path]:
        analysis = UtteranceAnalysis(entry, manifest, cfg)
        paths = [out / f"{entry.id}_tgt{t}.tsnf" for t in range(len(entry.sources))]
        for target, path in enumerate(paths):
            write_features(path, compute_feature_stack(analysis, target, selection))
        return paths

    return [p for paths in _map(one, manifest.utterances, jobs) for p in paths]


# ---------------------------------------------------------------------------
# Separation


def _perturbed_azimuth(azimuth: float, error_deg: float, seed_parts) -> float:
    if error_deg == 0.0:
        return azimuth
    rng = np.random.default_rng(seed_parts)
    sign = 1.0 if rng.integers(2) else -1.0
    return azimuth + sign * error_deg


def separate_utterance(analysis: UtteranceAnalysis, method: str, target: int,
                       azimuth: float, cond: str = "tgt", alpha: float = 1.0,
                       beta: float = 1.0) -> np.ndarray:
    """Run one separation method for one utterance/target steered at
    ``azimuth``, returning the estimated reference-channel waveform."""
    cfg = analysis.cfg
    ref = cfg.array.ref_index
    if method in ORACLE_METHODS:
        images = analysis.ref_images
        others = [img for c, img in enumerate(images) if c != target]
        mask = oracle_mask(images[target], others, ORACLE_METHODS[method],
                           oracle_cfg=cfg.oracle_cfg)
        return apply_mask(analysis.mixture[ref], mask, cfg.oracle_cfg).estimate
    if method == "heuristic":
        entry = analysis.entry
        af_intf = dpr_intf = None
        if cond == "tgt+intf" and len(entry.sources) > 1:
            intf_az = _interferer_azimuth(entry, target)
            af_intf, dpr_intf = analysis.angle_feature(intf_az), analysis.dpr(intf_az)
        mask = directional_mask(analysis.angle_feature(azimuth), analysis.dpr(azimuth),
                                af_intf, dpr_intf, alpha=alpha, beta=beta,
                                cfg=cfg.stft_cfg)
        return apply_mask(analysis.mixture[ref], mask, cfg.stft_cfg).estimate
    if method == "das":
        return das_beamform(analysis.mixture, azimuth, cfg.array, cfg.stft_cfg).estimate
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass(frozen=True)
class Run:
    """One setting to separate a dataset with; its estimates go to ``out_dir``."""

    out_dir: Path
    direction_error_deg: float
    alpha: float
    beta: float


def separate_dataset(manifest: Manifest, runs: Sequence[Run], method: str,
                     cfg: PipelineConfig, cond: str = "tgt", error_seed: int = 0,
                     jobs: int = 1) -> list[Path]:
    """Separate every (utterance, target) once per run, in one pass over the
    utterances that reads and analyses each mixture once. Writes estimate
    WAVs plus JSON sidecars recording the method and the azimuth actually
    used; the error sign is drawn per (utterance, target) from ``error_seed``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    for run in runs:
        run.out_dir.mkdir(parents=True, exist_ok=True)

    def one(task) -> list[Path]:
        index, entry = task
        analysis = UtteranceAnalysis(entry, manifest, cfg)
        paths = []
        for target, src in enumerate(entry.sources):
            for run in runs:
                azimuth = _perturbed_azimuth(src.azimuth_deg, run.direction_error_deg,
                                             [error_seed, index, target])
                est = separate_utterance(analysis, method, target, azimuth, cond=cond,
                                         alpha=run.alpha, beta=run.beta)
                path = run.out_dir / f"{entry.id}_tgt{target}.wav"
                write_wav(path, est, manifest.sample_rate)
                sidecar = {
                    "utterance": entry.id, "target_index": target, "method": method,
                    "cond": cond, "azimuth_used_deg": float(azimuth),
                    "direction_error_deg": float(run.direction_error_deg),
                    "alpha": run.alpha, "beta": run.beta,
                }
                atomic_write_bytes(path.with_suffix(".json"),
                                   (json.dumps(sidecar, indent=2) + "\n").encode("utf-8"))
                paths.append(path)
        return paths

    tasks = list(enumerate(manifest.utterances))
    return [p for paths in _map(one, tasks, jobs) for p in paths]


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_runs(manifest: Manifest, runs: Sequence[tuple[Path, str]],
                  ref_index: int = 0) -> list[tuple[EvalReport, list[EvalRecord], list[str]]]:
    """Score the estimates of every ``(estimates_dir, method)`` run against
    the reverberant reference images, in one pass over the utterances:
    each mixture and reference image is read once, and the mixture's
    SI-SDR computed once per target, for all runs. Returns per run
    (report, records, missing-estimate names)."""
    records: list[list[EvalRecord]] = [[] for _ in runs]
    missing: list[list[str]] = [[] for _ in runs]
    for entry in manifest.utterances:
        mixture = _read(manifest, entry.mixture)
        for target, src in enumerate(entry.sources):
            reference = si_sdr_mix = None
            for (est_dir, method), run_records, run_missing in zip(runs, records, missing):
                est_path = est_dir / f"{entry.id}_tgt{target}.wav"
                if not est_path.exists():
                    run_missing.append(str(est_path))
                    continue
                est, _ = read_wav(est_path, expected_rate=manifest.sample_rate)
                if reference is None:
                    reference = _read(manifest, src.image)[ref_index]
                    si_sdr_mix = si_sdr(mixture[ref_index], reference)
                run_records.append(EvalRecord(
                    utterance_id=f"{entry.id}_tgt{target}",
                    target_azimuth=src.azimuth_deg,
                    angle_difference=src.angle_difference_deg,
                    si_sdr_est=si_sdr(est[0], reference),
                    si_sdr_mix=si_sdr_mix,
                    method=method))
    return [(aggregate(run_records, method=method), run_records, run_missing)
            for (_, method), run_records, run_missing in zip(runs, records, missing)]


def evaluate_dataset(manifest: Manifest, estimates_dir, method: str = "",
                     ref_index: int = 0) -> tuple[EvalReport, list[EvalRecord], list[str]]:
    """Score every (utterance, target) estimate against its reverberant
    reference image. Returns (report, records, missing-estimate names)."""
    return evaluate_runs(manifest, [(Path(estimates_dir), method)], ref_index)[0]


# ---------------------------------------------------------------------------
# Direction-error sweep

PERTURB_VARIANTS = {"af": (1.0, 0.0), "af_dpr": (1.0, 1.0)}


def perturb_sweep(manifest: Manifest, out_dir, errors: Sequence[float], seed: int,
                  cfg: PipelineConfig, cond: str = "tgt",
                  jobs: int = 1) -> dict:
    """Heuristic separation under direction estimation error.

    Every error magnitude and both heuristic variants (AF only and AF+DPR)
    make one run, whose estimates and sidecars go to ``<variant>/errNN``.
    One :func:`separate_dataset` pass writes all runs from a single analysis of
    each mixture; one :func:`evaluate_runs` pass then scores them all. The error
    sign is random per (utterance, target), drawn from a dedicated seeded
    stream, and is the same for every magnitude.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dirs: dict[str, float] = {}
    for error in errors:
        name = f"err{int(round(error)):02d}"
        if dirs.setdefault(name, float(error)) != float(error):
            raise ValueError(f"direction errors {dirs[name]:g} and {error:g} "
                             f"would share the output directory {name}")
    runs = {(variant, error): Run(out / variant / name, error, alpha, beta)
            for variant, (alpha, beta) in PERTURB_VARIANTS.items()
            for name, error in dirs.items()}
    separate_dataset(manifest, list(runs.values()), "heuristic", cfg, cond=cond,
                     error_seed=seed, jobs=jobs)
    scores = dict(zip(runs, evaluate_runs(
        manifest, [(run.out_dir, f"heuristic/{variant}") for (variant, _), run in runs.items()])))
    sweep: dict = {"seed": seed, "cond": cond,
                   "errors_deg": [float(e) for e in errors], "variants": {},
                   "note": ("single-target separators have no output-permutation "
                            "freedom; rows are strictly comparable only above 15 "
                            "degrees of angle difference")}
    for variant in PERTURB_VARIANTS:
        rows = []
        for error in errors:
            report, _, missing = scores[variant, float(error)]
            if missing:
                raise RuntimeError(f"missing estimates during sweep: {missing}")
            count_gt15 = sum(b.count for b in report.bins if b.lo >= 15.0)
            rows.append({"error_deg": float(error), "report": report.to_dict(),
                         "mean_gt15": report.mean_above(15.0),
                         "count_gt15": count_gt15,
                         "overall": report.overall_mean})
        sweep["variants"][variant] = rows
    return sweep


def write_sweep_reports(sweep: dict, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "sweep.json"
    atomic_write_bytes(json_path, (json.dumps(sweep, indent=2) + "\n").encode("utf-8"))
    lines = ["variant,error_deg,bin,count,mean_si_sdri"]
    for variant, rows in sweep["variants"].items():
        for row in rows:
            for b in row["report"]["bins"]:
                mean = "" if b["mean_si_sdri"] is None else f"{b['mean_si_sdri']:.6f}"
                lines.append(f"{variant},{row['error_deg']:g},{b['label']},{b['count']},{mean}")
            gt15 = "" if row["mean_gt15"] is None else f"{row['mean_gt15']:.6f}"
            overall = "" if row["overall"] is None else f"{row['overall']:.6f}"
            count = row["report"]["overall"]["count"]
            lines.append(f"{variant},{row['error_deg']:g},>15,{row['count_gt15']},{gt15}")
            lines.append(f"{variant},{row['error_deg']:g},overall,{count},{overall}")
    csv_path = out / "sweep.csv"
    atomic_write_bytes(csv_path, ("\n".join(lines) + "\n").encode("utf-8"))
    return json_path, csv_path
