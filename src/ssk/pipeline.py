"""The analysis stages over a manifest: features, separation and the
direction-error sweep.

Simulation is :mod:`ssk.simulation` and evaluation :mod:`ssk.evaluation`, so
a stage loads only the modules it runs; the sweep scores with the evaluation
stage's rule, and :func:`evaluate_dataset` is re-exported here.

Features, separation and the sweep work one utterance at a time. Each first
states what it will read: the DPR plan, the azimuths whose DPR maps it reads,
every target's under every separation :class:`Run` (one per sweep point, with
its signed direction error) and, under ``tgt+intf``, the interferers'; for
``das`` the azimuths it beams at instead; for the oracle masks the
reference-row spectrograms. An :class:`UtteranceAnalysis` then reads the
mixture and builds what was asked for, the spatial part in one
:class:`~ssk.spatial_features.SpatialAnalysis` pass over blocks of frames;
every target, under every run, reuses it, and no (J, T, F) spectrogram is ever
whole. It keeps one AF map, the latest; the maps of a target's interferer,
which ``tgt+intf`` reads out of turn, are held by their reader. The sweep also
scores each estimate in the same task. Methods, feature blocks and direction
conditions are plain names, each set stated once in :mod:`ssk.stages`; masks
are (T, F) arrays.

Each stage is one batch under the rule of :mod:`ssk.stages` and writes its
whole tree: features a TSNF1 file per target and ``run.json``; separation
an estimate WAV per target and a ``run.json`` per run; the sweep the same
for each of its runs, then ``sweep.json`` and ``sweep.csv``. Each builds its
:class:`PipelineConfig` once, from the manifest's array and sample rate."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset_io import (Manifest, UtteranceEntry, atomic_write_bytes, write_features,
                         write_json, write_wav)
from .evaluation import _record, evaluate_dataset  # noqa: F401 (re-exported)
from .geometry import DirectionGrid, MicArray, PairSelection, closest_source
from .metrics import EvalRecord, aggregate, si_sdr
from .separation import apply_mask, das_beamform, directional_mask, oracle_mask
from .spatial_features import FeatureStack, SpatialAnalysis, assemble_features
from .spectral import StftConfig, hann_periodic, lps, stft
from .stages import CONDS, FEATURE_BLOCKS, METHODS, ORACLE_KINDS, _each


def __getattr__(name: str):
    # The benchmark's by-name tracer looks up every stage function on this
    # module. ``simulate_dataset`` is imported on that first lookup, so the
    # analysis stages never load the simulation modules; this goes away with
    # the by-name tracer (ROADMAP item 7).
    if name == "simulate_dataset":
        from .simulation import simulate_dataset
        return simulate_dataset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Array, pair selection, direction grid and analysis configs used by
    every analysis stage. ``pairs`` is None for single-mic arrays, where
    pairwise features are unavailable, and in a features run that reads none."""

    array: MicArray
    pairs: PairSelection | None
    grid: DirectionGrid
    stft_cfg: StftConfig
    oracle_cfg: StftConfig

    @classmethod
    def default(cls, sample_rate: int, array: MicArray) -> "PipelineConfig":
        """Config for a recording by ``array`` at ``sample_rate``, both stated
        by the caller. The analysis is the paper's, stated here once: a
        40-sample periodic Hann window (2.5 ms at 16 kHz) at hop 20 (1.25 ms),
        a 64-point FFT and a 10-degree direction grid. Six mics use the
        default pairs; other counts pair every mic with mic 0."""
        if array.num_mics == 6:
            pairs = PairSelection.default_six()
        elif array.num_mics > 1:
            pairs = PairSelection(tuple((0, j) for j in range(1, array.num_mics)))
        else:
            pairs = None
        cfg = StftConfig(window=hann_periodic(40), fft_size=64, hop=20, sample_rate=sample_rate)
        return cls(array=array, pairs=pairs, grid=DirectionGrid.uniform(10.0),
                   stft_cfg=cfg, oracle_cfg=StftConfig.oracle_mask_default(sample_rate))


def _stage_config(manifest: Manifest, cond: str) -> PipelineConfig:
    """A stage's config, for the manifest's array and sample rate. An unknown
    ``cond`` raises :class:`ValueError`."""
    if cond not in CONDS:
        raise ValueError(f"cond must be one of {CONDS}, got {cond!r}")
    return PipelineConfig.default(manifest.sample_rate, manifest.array)


# ---------------------------------------------------------------------------
# Features


def _interferer_azimuth(entry: UtteranceEntry, target_index: int) -> float:
    """Azimuth of the source closest in angle to the target."""
    if len(entry.sources) < 2:
        raise ValueError(f"utterance {entry.id} has a single source; no interferer")
    azimuths = [s.azimuth_deg for s in entry.sources]
    return azimuths[closest_source(azimuths, target_index)[0]]


class UtteranceAnalysis:
    """One utterance's analysis, shared by every target, method and run,
    built in one step from what its stage states it will read; it alone turns
    the mixture into spectrograms, straight from the configs in ``cfg`` (no
    analysis kernels are built).

    It reads the mixture once (:meth:`~ssk.dataset_io.Manifest.read`) and,
    unless ``oracle``, builds :attr:`spatial`, the
    :class:`~ssk.spatial_features.SpatialAnalysis` of the DPR ``plan`` and
    the delay-and-sum ``beams``, block by block; masks and the LPS block read
    its reference-mic row. Only after that pass does it copy the mixture's
    reference-mic row (:attr:`reference`, whose size is the sample count).
    With ``oracle`` it builds :attr:`ref_specs` instead, the
    ``cfg.oracle_cfg`` spectrograms of the reference rows of the mixture and
    of each source image, whose files it reads after it has dropped the
    (J, n) mixture, as it does before it returns.
    """

    def __init__(self, entry: UtteranceEntry, manifest: Manifest, cfg: PipelineConfig,
                 plan: Sequence[float], beams: Sequence[float] = (),
                 oracle: bool = False) -> None:
        self.entry = entry
        wav = manifest.read(entry.mixture)
        self.spatial = None if oracle else SpatialAnalysis.of_mixture(
            wav, cfg.stft_cfg, cfg.array, cfg.pairs, cfg.grid, plan, beams)
        self.reference = wav[cfg.array.ref_index].copy()
        del wav
        self.ref_specs = None
        if oracle:
            images = [stft(manifest.read(src.image, ref_row=True), cfg.oracle_cfg)
                      for src in entry.sources]
            self.ref_specs = stft(self.reference, cfg.oracle_cfg), images


# The feature blocks, in FEATURE_BLOCKS order: each maps an analysis and the
# (who, azimuth) directions of a target to its named maps.
_BLOCKS = dict(zip(FEATURE_BLOCKS, (
    lambda a, dirs: [("lps", lps(a.spatial.ref_spec))],
    lambda a, dirs: [("cosipd", a.spatial.pair_cos_sin[0])],
    lambda a, dirs: [("sinipd", a.spatial.pair_cos_sin[1])],
    lambda a, dirs: [(f"af:{who}", a.spatial.angle_feature(az)) for who, az in dirs],
    lambda a, dirs: [(f"dpr:{who}", a.spatial.dpr(az)) for who, az in dirs],
), strict=True))


def parse_features(names: str) -> frozenset[str]:
    """The feature blocks named in a comma list; an unknown name raises
    :class:`ValueError`."""
    wanted = frozenset(n.strip() for n in names.split(",") if n.strip())
    unknown = wanted - set(FEATURE_BLOCKS)
    if unknown:
        raise ValueError(f"unknown feature names {sorted(unknown)}; known: {FEATURE_BLOCKS}")
    return wanted


def compute_feature_stack(analysis: UtteranceAnalysis, target: int, blocks: frozenset[str],
                          cond: str) -> FeatureStack:
    """Assemble the named feature ``blocks`` for one target of an utterance,
    in :data:`FEATURE_BLOCKS` order; with cond tgt+intf the AF and DPR blocks
    also cover the closest interferer."""
    directions = [("tgt", analysis.entry.sources[target].azimuth_deg)]
    if cond == "tgt+intf":
        directions.append(("intf", _interferer_azimuth(analysis.entry, target)))
    return assemble_features([block for name in FEATURE_BLOCKS if name in blocks
                              for block in _BLOCKS[name](analysis, directions)])


def build_features(manifest: Manifest, out_dir, blocks: frozenset[str], cond: str,
                   jobs: int) -> list[Path]:
    """One TSNF1 file per utterance per target speaker; each mixture is read
    and analysed once for all its targets. Then the summary file ``run.json``
    states the blocks, in :data:`FEATURE_BLOCKS` order, and ``cond``."""
    cfg = _stage_config(manifest, cond)
    if not blocks:
        raise ValueError("no feature blocks given")
    if not blocks & {"cosipd", "sinipd", "af"}:
        cfg = replace(cfg, pairs=None)  # no block reads them, so no IPD phasors are built
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one(index: int, written: list[Path]) -> list[Path]:
        entry = manifest.utterances[index]
        # The DPR blocks read the targets and their interferers: all sources.
        plan = [src.azimuth_deg for src in entry.sources] if "dpr" in blocks else []
        analysis = UtteranceAnalysis(entry, manifest, cfg, plan)
        for target in range(len(entry.sources)):
            path = out / f"{entry.stem(target)}.tsnf"
            write_features(path, compute_feature_stack(analysis, target, blocks, cond))
            written.append(path)
        return written

    results = _each(one, [e.id for e in manifest.utterances], jobs, [out / "run.json"])
    write_json(out / "run.json", {"blocks": [name for name in FEATURE_BLOCKS if name in blocks],
                                  "cond": cond})
    return [p for paths in results for p in paths]


# ---------------------------------------------------------------------------
# Separation


def separate_utterance(analysis: UtteranceAnalysis, method: str, target: int,
                       azimuth: float, intf: tuple[np.ndarray, ...], alpha: float,
                       beta: float) -> np.ndarray:
    """Run one separation method for one utterance/target steered at
    ``azimuth``, returning the estimated reference-channel waveform. The
    heuristic also reads ``intf``: the AF and DPR maps of the target's
    closest interferer under ``tgt+intf``, empty under ``tgt``."""
    length = analysis.reference.size
    if method in ORACLE_KINDS:
        mixture, images = analysis.ref_specs
        others = [img for c, img in enumerate(images) if c != target]
        mask = oracle_mask(images[target], others, method)
        return apply_mask(mixture, mask, length)
    if method == "heuristic":
        spatial = analysis.spatial
        mask = directional_mask(spatial.angle_feature(azimuth), spatial.dpr(azimuth), *intf,
                                alpha=alpha, beta=beta)
        return apply_mask(spatial.ref_spec, mask, length)
    if method == "das":
        return das_beamform(analysis.spatial.beam(azimuth), length)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass(frozen=True)
class Run:
    """One setting to separate a dataset with; its estimates go to ``out_dir``.
    The direction error is a magnitude, finite and at least 0; the heuristic
    weights, which ``run.json`` records, are at least 0 and not both 0."""

    out_dir: Path
    direction_error_deg: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_error(self.direction_error_deg)
        if not (self.alpha >= 0.0 and self.beta >= 0.0 and self.alpha + self.beta > 0.0):
            raise ValueError("weights must be non-negative and not both zero, got alpha "
                             f"{self.alpha!r} and beta {self.beta!r}")


def _check_error(error: float) -> None:
    if not (math.isfinite(error) and error >= 0.0):
        raise ValueError(f"direction error must be a finite magnitude >= 0, got {error!r}")


def separate_dataset(manifest: Manifest, runs: Sequence[Run], method: str, cond: str,
                     error_seed: int, jobs: int,
                     reports: Sequence[Path] = ()) -> tuple[list[Path], list[list[EvalRecord]]]:
    """Separate every (utterance, target) once per run, in one pass over the
    utterances that reads and analyses each mixture once. Writes estimate
    WAVs and then, in each run's directory, its summary file ``run.json``:
    the run's settings and, per estimate in manifest and target order, the
    azimuth used; null for an oracle mask, which steers at none and so takes
    no direction error.
    The error sign is drawn once per (utterance, target), before any target
    is separated, and serves every run: minus if
    ``random.Random(f"{error_seed}/{index}/{target}").random()``, ``index``
    the manifest position, is below 0.5. The heuristic's DPR plan follows
    from the signs, the runs' errors and ``cond``, and so do the azimuths
    that ``das`` beams at.

    Per target, the runs go in ascending direction error, so runs that share
    an error (the sweep's variants) steer at one perturbed azimuth in a row,
    whose AF the analysis computes once (it keeps only the latest map; see
    :class:`~ssk.spatial_features.SpatialAnalysis`). Under ``tgt+intf`` the
    heuristic reads the interferer's maps once, before the target's runs.
    ``reports`` are the summary files of a caller that reports the scores (the
    sweep's), which it writes after this returns. With any, each target's
    reference image is read once and every estimate is scored as written,
    rounded to float32, which is bit-equal to reading it back: the records
    match :func:`evaluate_dataset` on the run's directory. Returns the written
    paths and, per run, its records in manifest order (empty lists without
    ``reports``). No runs, or two that share an ``out_dir``, raise
    :class:`ValueError` before anything is written."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    steered = method not in ORACLE_KINDS
    if not steered and any(run.direction_error_deg != 0.0 for run in runs):
        raise ValueError(f"oracle masks use no direction; {method} takes no direction error")
    if not runs:
        raise ValueError("no runs given")
    if len({run.out_dir.resolve() for run in runs}) < len(runs):
        raise ValueError("each run needs an output directory of its own")
    cfg = _stage_config(manifest, cond)
    if method == "das":
        cfg = replace(cfg, pairs=None)  # the beams read no IPD phasors
    for run in runs:
        run.out_dir.mkdir(parents=True, exist_ok=True)
    order = sorted(range(len(runs)), key=lambda i: runs[i].direction_error_deg)

    def one(index: int, written: list[Path]):
        entry = manifest.utterances[index]
        azimuths = []  # per target, the azimuth of each run
        for target, src in enumerate(entry.sources):
            sign = -1.0 if random.Random(f"{error_seed}/{index}/{target}").random() < 0.5 else 1.0
            azimuths.append([src.azimuth_deg + sign * run.direction_error_deg for run in runs])
        plan, beams = [], []
        if method == "heuristic":
            plan = [az for row in azimuths for az in row]
            if cond == "tgt+intf":
                plan += [_interferer_azimuth(entry, t) for t in range(len(entry.sources))]
        elif method == "das":
            beams = [az for row in azimuths for az in row]
        analysis = UtteranceAnalysis(entry, manifest, cfg, plan, beams, oracle=not steered)
        records: list[list[EvalRecord]] = [[] for _ in runs]
        rows: list[list[tuple]] = [[] for _ in runs]
        for target, src in enumerate(entry.sources):
            intf = ()  # dropped before the next target's maps are read
            if method == "heuristic" and cond == "tgt+intf":
                intf_az = _interferer_azimuth(entry, target)
                intf = analysis.spatial.angle_feature(intf_az), analysis.spatial.dpr(intf_az)
            if reports:
                reference = manifest.read(src.image, ref_row=True)
                si_sdr_mix = si_sdr(analysis.reference, reference)
            for i in order:
                run, azimuth = runs[i], azimuths[target][i]
                est = separate_utterance(analysis, method, target, azimuth, intf,
                                         alpha=run.alpha, beta=run.beta)
                path = run.out_dir / f"{entry.stem(target)}.wav"
                write_wav(path, est, manifest.sample_rate)
                written.append(path)
                rows[i].append((entry.id, target, float(azimuth) if steered else None))
                if reports:
                    records[i].append(_record(entry, target, est.astype(np.float32).astype(float),
                                              reference, si_sdr_mix))
        return written, records, rows

    results = _each(one, [e.id for e in manifest.utterances], jobs,
                    [run.out_dir / "run.json" for run in runs] + list(reports))
    for i, run in enumerate(runs):
        write_json(run.out_dir / "run.json", {
            "method": method, "cond": cond, "direction_error_deg": float(run.direction_error_deg),
            "alpha": run.alpha, "beta": run.beta, "error_seed": error_seed,
            "estimates": [dict(zip(("utterance", "target_index", "azimuth_used_deg"), row))
                          for _, _, rows in results for row in rows[i]]})
    return ([p for paths, _, _ in results for p in paths],
            [[rec for _, records, _ in results for rec in records[i]] for i in range(len(runs))])


# ---------------------------------------------------------------------------
# Direction-error sweep

PERTURB_VARIANTS = {"af": (1.0, 0.0), "af_dpr": (1.0, 1.0)}


def perturb_sweep(manifest: Manifest, out_dir, errors: Sequence[float], seed: int,
                  cond: str, jobs: int) -> dict:
    """Heuristic separation under direction estimation error.

    Every error magnitude and both heuristic variants (AF only and AF+DPR)
    make one run, whose estimates and ``run.json`` go to ``<variant>/errNN``;
    two errors that would share an ``errNN``, equal ones included, raise
    :class:`ValueError`. One scoring :func:`separate_dataset` pass writes
    and scores all runs from a single analysis of each mixture, reading each
    mixture and reference image once and no estimate. Per target it takes
    the errors in turn and both variants at each, so each perturbed
    azimuth's AF is computed once and dropped before the next. The DPR maps
    are formed in the analysis pass, one (T, F) plane per planned grid
    direction, so they grow with the errors up to at most P = 36 planes. The
    error sign, drawn per (utterance, target) from
    ``seed`` by the rule of :func:`separate_dataset`, is the same for every
    magnitude. Then the sweep, each run's report and its mean above 15
    degrees of angle difference, is written to ``sweep.json`` and, one row
    per bin, to ``sweep.csv``, and returned.
    """
    out = Path(out_dir)
    dirs: dict[str, float] = {}
    for error in errors:
        _check_error(error)  # before it names a directory
        name = f"err{int(round(error)):02d}"
        if name in dirs:
            raise ValueError(f"direction errors {dirs[name]:g} and {error:g} "
                             f"would share the output directory {name}")
        dirs[name] = float(error)
    runs = {(variant, error): Run(out / variant / name, error, alpha, beta)
            for variant, (alpha, beta) in PERTURB_VARIANTS.items()
            for name, error in dirs.items()}
    _, records = separate_dataset(manifest, list(runs.values()), "heuristic", cond=cond,
                                  error_seed=seed, jobs=jobs,
                                  reports=(out / "sweep.json", out / "sweep.csv"))
    reports = {key: aggregate(run_records, method=f"heuristic/{key[0]}")
               for key, run_records in zip(runs, records)}
    sweep: dict = {"seed": seed, "cond": cond,
                   "errors_deg": [float(e) for e in errors], "variants": {},
                   "note": ("single-target separators have no output-permutation "
                            "freedom; rows are strictly comparable only above 15 "
                            "degrees of angle difference")}
    lines = ["variant,error_deg,bin,count,mean_si_sdri"]
    for variant in PERTURB_VARIANTS:
        rows = []
        for error in errors:
            report = reports[variant, float(error)]
            row = {"error_deg": float(error), "report": report.to_dict(),
                   "mean_gt15": report.mean_above(15.0),
                   "count_gt15": sum(b.count for b in report.bins if b.lo >= 15.0),
                   "overall": report.overall_mean}
            rows.append(row)
            cells = [(b.label, b.count, b.mean_si_sdri) for b in report.bins]
            cells += [(">15", row["count_gt15"], row["mean_gt15"]),
                      ("overall", report.overall_count, row["overall"])]
            lines += [f"{variant},{row['error_deg']:g},{label},{count},"
                      + ("" if mean is None else f"{mean:.6f}") for label, count, mean in cells]
        sweep["variants"][variant] = rows
    write_json(out / "sweep.json", sweep)
    atomic_write_bytes(out / "sweep.csv", ("\n".join(lines) + "\n").encode("utf-8"))
    return sweep
