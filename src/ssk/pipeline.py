"""Batch pipeline shared by the CLI: dataset simulation, feature extraction,
separation and evaluation over a manifest.

Features, separation and the direction-error sweep work one utterance at a
time: an :class:`UtteranceAnalysis` reads the mixture, transforms it once and
holds its :class:`~ssk.spatial_features.SpatialAnalysis`, and every target of
that utterance, under every separation :class:`Run` (one per sweep point),
reuses both. The sweep also scores each estimate in the same task. Methods,
feature blocks and direction conditions are plain names, each set stated once
(:data:`METHODS`, :data:`FEATURE_BLOCKS` in stack order, :data:`CONDS`); masks
are (T, F) arrays.

Each stage is one batch, on ``jobs`` threads that take whole utterances. Every
utterance runs, and an input error (:data:`INPUT_ERRORS`) fails only its own,
which leaves none of the features or estimates it had written; one
:class:`RuntimeError` then lists each failure in manifest order, and no
summary file (manifest, report, sweep) is written, whatever ``jobs`` is."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import synth
from .dataset_io import (DataFormatError, Manifest, SourceEntry, UtteranceEntry,
                         atomic_write_bytes, read_manifest, read_wav, write_features,
                         write_json, write_manifest, write_wav)
from .geometry import DirectionGrid, MicArray, PairSelection, circular_array, closest_source
from .metrics import BIN_LABELS, EvalRecord, EvalReport, aggregate, bin_index, si_sdr
from .room_sim import render_mixture, sample_scene
from .separation import (ORACLE_KINDS, apply_mask, das_beamform, directional_mask,
                         oracle_mask)
from .spatial_features import (FeatureStack, SpatialAnalysis, assemble_features,
                               computed_once, multichannel_stft)
from .spectral import ComplexSpectrogram, StftConfig, hann_periodic, lps, stft

# Errors of input or run, not bugs: each fails its utterance; the CLI exits 1.
INPUT_ERRORS = (ValueError, OSError, RuntimeError)
METHODS = ORACLE_KINDS + ("heuristic", "das")
# Directions the AF and DPR blocks and the heuristic cover: the target, or
# the target and the source closest to it in angle.
CONDS = ("tgt", "tgt+intf")


def _check_cond(cond: str) -> None:
    if cond not in CONDS:
        raise ValueError(f"cond must be one of {CONDS}, got {cond!r}")


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
    def default(cls, sample_rate: int = 16000, array: MicArray | None = None,
                grid_step: float = 10.0, fft_size: int = 64, win_len: int = 40,
                hop: int = 20) -> "PipelineConfig":
        """Config for ``array``, by default the 6-mic 0.07 m circle. Six mics
        use the default pairs; other counts pair every mic with mic 0."""
        array = array if array is not None else circular_array(6, 0.07)
        if array.num_mics == 6:
            pairs = PairSelection.default_six()
        elif array.num_mics > 1:
            pairs = PairSelection(tuple((0, j) for j in range(1, array.num_mics)))
        else:
            pairs = None
        cfg = StftConfig(window=hann_periodic(win_len), fft_size=fft_size,
                         hop=hop, sample_rate=sample_rate)
        return cls(array=array, pairs=pairs, grid=DirectionGrid.uniform(grid_step),
                   stft_cfg=cfg, oracle_cfg=StftConfig.oracle_mask_default(sample_rate))


SYNTH_KINDS = {
    "speech": synth.speech_like,
    "noise": synth.noise_burst,
    "am": synth.am_tone,
    "chirp": synth.chirp,
}


def _each(task, items: Sequence, labels: Sequence[str], jobs: int = 1) -> list:
    """``[task(x) for x in items]`` on ``jobs`` threads under the batch rule; a
    failure keeps its message alone, so no traceback pins the item's arrays."""
    def attempt(item) -> tuple[bool, object]:
        try:
            return True, task(item)
        except INPUT_ERRORS as exc:
            return False, str(exc)

    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(attempt, items))
    else:
        outcomes = [attempt(x) for x in items]
    failures = [f"{label}: {out}" for label, (ok, out) in zip(labels, outcomes) if not ok]
    if failures:
        raise RuntimeError(f"{len(failures)} of {len(items)} failed: " + "; ".join(failures))
    return [out for _, out in outcomes]


def _unwritten_on_failure(task):
    """``task(item, written)``, which lists in ``written`` each file it has
    written, as a task of ``item`` that removes those files before its
    error propagates: a failed utterance leaves none of its files."""
    def run(item):
        written: list[Path] = []
        try:
            return task(item, written)
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            raise
    return run


def _scene_gains(rng: np.random.Generator, n_sources: int) -> list[float]:
    # First source at 0 dB, others mixed in at 0..-5 dB below it.
    return [0.0] + [float(rng.uniform(-5.0, 0.0)) for _ in range(n_sources - 1)]


def simulate_dataset(out_dir, num_scenes: int, num_speakers: int, seed: int,
                     array: MicArray, sample_rate: int, duration: float = 2.0,
                     synth_kind: str = "speech", source_dir=None,
                     jobs: int = 1) -> Manifest:
    """Render ``num_scenes`` reverberant scenes recorded by ``array`` at
    ``sample_rate`` to ``out_dir`` and write a manifest. Deterministic
    (byte-identical) for a fixed seed."""
    out = Path(out_dir)
    wav_dir = out / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
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

    ids = [f"utt_{index:05d}" for index in range(num_scenes)]

    def render_one(index: int) -> UtteranceEntry:
        utt_id = ids[index]
        scene_seed = int(scene_seeds[index])
        rng = np.random.default_rng(scene_seed)
        room, azimuths = sample_scene(rng, num_speakers, sample_rate=sample_rate,
                                      array_radius=array_radius)
        dry = [_draw_source(rng, duration, sample_rate, synth_kind, source_pool)
               for _ in range(num_speakers)]
        gains = _scene_gains(rng, num_speakers)
        scene = render_mixture(dry, room, array, mixing_gains_db=gains)
        mix_rel = f"wav/{utt_id}_mix.wav"
        write_wav(out / mix_rel, scene.mixture, sample_rate)
        sources = []
        for c in range(num_speakers):
            img_rel = f"wav/{utt_id}_src{c}_img.wav"
            dry_rel = f"wav/{utt_id}_src{c}_dry.wav"
            write_wav(out / img_rel, scene.images[c], sample_rate)
            write_wav(out / dry_rel, dry[c], sample_rate)
            difference = closest_source(azimuths, c)[1] if num_speakers > 1 else 180.0
            sources.append(SourceEntry(
                azimuth_deg=azimuths[c], angle_difference_deg=difference,
                gain_db=gains[c], image=img_rel, dry=dry_rel))
        return UtteranceEntry(
            id=utt_id, seed=scene_seed, mixture=mix_rel, sources=tuple(sources),
            t60=float(room.t60),
            room_dimensions=tuple(float(d) for d in room.dimensions),
            array_center=tuple(float(x) for x in room.array_center))

    utterances = _each(render_one, range(num_scenes), ids, jobs)

    manifest = Manifest(sample_rate=sample_rate, array=array, utterances=tuple(utterances))
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
    if len(entry.sources) < 2:
        raise ValueError(f"utterance {entry.id} has a single source; no interferer")
    azimuths = [s.azimuth_deg for s in entry.sources]
    return azimuths[closest_source(azimuths, target_index)[0]]


def _read(manifest: Manifest, relative: str) -> np.ndarray:
    wav, _ = read_wav(manifest.resolve(relative), expected_rate=manifest.sample_rate)
    return wav


@dataclass(frozen=True, eq=False)
class UtteranceAnalysis:
    """One utterance's analysis, shared by every target, method and run; it
    alone turns the mixture into spectrograms, straight from the configs in
    ``cfg`` (no analysis kernels are built).

    It reads the mixture once, checks its channel count against the
    manifest array and keeps only a contiguous copy of the reference-mic row
    (:attr:`reference`, whose size is the sample count). The (J, n) array
    itself is held only until the (J, T, F) spectrogram at
    ``cfg.stft_cfg`` (:attr:`spec`) is built, or until the oracle methods'
    ``cfg.oracle_cfg`` spectrograms of the reference rows of the mixture and
    source images (:attr:`ref_specs`) are; an analysis asked for both reads
    the mixture again, which no stage does. It also holds the
    :class:`~ssk.spatial_features.SpatialAnalysis` of the spectrogram, with
    its bounded AF and DPR memos. Each part is computed on first use, so a
    method pays only for what it reads.
    """

    entry: UtteranceEntry
    manifest: Manifest
    cfg: PipelineConfig

    @computed_once
    def reference(self) -> np.ndarray:
        """The mixture's reference-mic row, (n,), owning its data."""
        wav = _read(self.manifest, self.entry.mixture)
        if wav.shape[0] != self.cfg.array.num_mics:
            raise DataFormatError(f"{self.entry.mixture}: {wav.shape[0]} channels, the "
                                  f"manifest array has {self.cfg.array.num_mics} microphones")
        self.__dict__["_mixture"] = wav  # until a spectrogram takes it
        return wav[self.cfg.array.ref_index].copy()

    def _release_mixture(self) -> np.ndarray | None:
        """The held (J, n) mixture, which the analysis holds no longer; None
        if it was released before."""
        self.reference
        return self.__dict__.pop("_mixture", None)

    @computed_once
    def ref_specs(self) -> tuple[ComplexSpectrogram, list[ComplexSpectrogram]]:
        """Oracle-config spectrograms of the reference-channel mixture and of
        each reference-channel source image."""
        self._release_mixture()
        ref, oracle_cfg = self.cfg.array.ref_index, self.cfg.oracle_cfg
        images = [stft(_read(self.manifest, src.image)[ref], oracle_cfg)
                  for src in self.entry.sources]
        return stft(self.reference, oracle_cfg), images

    @computed_once
    def spec(self) -> ComplexSpectrogram:
        wav = self._release_mixture()
        if wav is None:
            wav = _read(self.manifest, self.entry.mixture)
        return multichannel_stft(wav, self.cfg.stft_cfg)

    @computed_once
    def spatial(self) -> SpatialAnalysis:
        cfg = self.cfg
        return SpatialAnalysis(self.spec, cfg.array, cfg.pairs, cfg.grid,
                               frozenset(src.azimuth_deg for src in self.entry.sources))


# Feature blocks by name, in stack order: each maps an analysis and the
# (who, azimuth) directions of a target to its named maps.
_BLOCKS = {
    "lps": lambda a, dirs: [("lps", lps(a.spec.channel(a.cfg.array.ref_index)))],
    "cosipd": lambda a, dirs: [("cosipd", a.spatial.pair_cos_sin[0])],
    "sinipd": lambda a, dirs: [("sinipd", a.spatial.pair_cos_sin[1])],
    "af": lambda a, dirs: [(f"af:{who}", a.spatial.angle_feature(az)) for who, az in dirs],
    "dpr": lambda a, dirs: [(f"dpr:{who}", a.spatial.dpr(az)) for who, az in dirs],
}
FEATURE_BLOCKS = tuple(_BLOCKS)


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


def build_features(manifest: Manifest, out_dir, cfg: PipelineConfig, blocks: frozenset[str],
                   cond: str = "tgt", jobs: int = 1) -> list[Path]:
    """One TSNF1 file per utterance per target speaker; each mixture is read
    and analysed once for all its targets."""
    _check_cond(cond)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one(entry: UtteranceEntry, written: list[Path]) -> list[Path]:
        analysis = UtteranceAnalysis(entry, manifest, cfg)
        for target in range(len(entry.sources)):
            path = out / f"{entry.stem(target)}.tsnf"
            write_features(path, compute_feature_stack(analysis, target, blocks, cond))
            written.append(path)
        return written

    entries = manifest.utterances
    return [p for paths in _each(_unwritten_on_failure(one), entries,
                                 [e.id for e in entries], jobs) for p in paths]


# ---------------------------------------------------------------------------
# Separation


def separate_utterance(analysis: UtteranceAnalysis, method: str, target: int,
                       azimuth: float, cond: str = "tgt", alpha: float = 1.0,
                       beta: float = 1.0) -> np.ndarray:
    """Run one separation method for one utterance/target steered at
    ``azimuth``, returning the estimated reference-channel waveform."""
    cfg = analysis.cfg
    length = analysis.reference.size
    if method in ORACLE_KINDS:
        mixture, images = analysis.ref_specs
        others = [img for c, img in enumerate(images) if c != target]
        mask = oracle_mask(images[target], others, method)
        return apply_mask(mixture, mask, length)
    if method == "heuristic":
        entry, spatial = analysis.entry, analysis.spatial
        af_intf = dpr_intf = None
        if cond == "tgt+intf":
            intf_az = _interferer_azimuth(entry, target)
            af_intf, dpr_intf = spatial.angle_feature(intf_az), spatial.dpr(intf_az)
        mask = directional_mask(spatial.angle_feature(azimuth), spatial.dpr(azimuth),
                                af_intf, dpr_intf, alpha=alpha, beta=beta)
        return apply_mask(analysis.spec.channel(cfg.array.ref_index), mask, length)
    if method == "das":
        return das_beamform(analysis.spec, azimuth, cfg.array, length)
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
                     jobs: int = 1, score: bool = False
                     ) -> tuple[list[Path], list[list[EvalRecord]]]:
    """Separate every (utterance, target) once per run, in one pass over the
    utterances that reads and analyses each mixture once. Writes estimate
    WAVs plus JSON sidecars recording the method and the azimuth actually
    used; the error sign is drawn once per (utterance, target) from
    ``error_seed`` and serves every run.

    Per target, the runs go in ascending direction error, so runs that share
    an error (the sweep's variants) steer at one perturbed azimuth in a row
    and the analysis computes its AF once and then drops it (see
    :class:`~ssk.spatial_features.SpatialAnalysis`). With ``score`` each
    target's reference image is read once and every estimate is scored as
    written, rounded to float32, which is bit-equal to reading it back: the
    records match :func:`evaluate_dataset` on the run's directory. Returns
    the written paths and, per run, its records in manifest order (empty
    lists without ``score``)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    _check_cond(cond)
    for run in runs:
        run.out_dir.mkdir(parents=True, exist_ok=True)
    order = sorted(range(len(runs)), key=lambda i: runs[i].direction_error_deg)
    # Without a perturbed run no generator is built: the first one imports
    # numpy.random, whose secrets -> hmac -> _hashlib chain maps OpenSSL's
    # libcrypto, about +6 MB of RSS and 14 ms once per process.
    perturbed = any(run.direction_error_deg != 0.0 for run in runs)
    ref_index = manifest.array.ref_index

    def one(task, written: list[Path]) -> tuple[list[Path], list[list[EvalRecord]]]:
        index, entry = task
        analysis = UtteranceAnalysis(entry, manifest, cfg)
        paths: list[Path] = []
        records: list[list[EvalRecord]] = [[] for _ in runs]
        for target, src in enumerate(entry.sources):
            if score:
                reference = _read(manifest, src.image)[ref_index].copy()
                si_sdr_mix = si_sdr(analysis.reference, reference)
            sign = -1.0 if perturbed and not np.random.default_rng(
                [error_seed, index, target]).integers(2) else 1.0
            for i in order:
                run = runs[i]
                azimuth = src.azimuth_deg + sign * run.direction_error_deg
                est = separate_utterance(analysis, method, target, azimuth, cond=cond,
                                         alpha=run.alpha, beta=run.beta)
                path = run.out_dir / f"{entry.stem(target)}.wav"
                write_wav(path, est, manifest.sample_rate)
                written.append(path)
                written.append(path.with_suffix(".json"))
                write_json(path.with_suffix(".json"), {
                    "utterance": entry.id, "target_index": target, "method": method,
                    "cond": cond, "azimuth_used_deg": float(azimuth),
                    "direction_error_deg": float(run.direction_error_deg),
                    "alpha": run.alpha, "beta": run.beta,
                })
                paths.append(path)
                if score:
                    records[i].append(_record(entry, target, est.astype(np.float32).astype(float),
                                              reference, si_sdr_mix, method))
        return paths, records

    results = _each(_unwritten_on_failure(one), list(enumerate(manifest.utterances)),
                    [e.id for e in manifest.utterances], jobs)
    return ([p for paths, _ in results for p in paths],
            [[rec for _, records in results for rec in records[i]] for i in range(len(runs))])


# ---------------------------------------------------------------------------
# Evaluation


def _record(entry: UtteranceEntry, target: int, est: np.ndarray, reference: np.ndarray,
            si_sdr_mix: float, method: str) -> EvalRecord:
    src = entry.sources[target]
    return EvalRecord(utterance_id=entry.stem(target), target_azimuth=src.azimuth_deg,
                      angle_difference=src.angle_difference_deg,
                      si_sdr_est=si_sdr(est, reference), si_sdr_mix=si_sdr_mix, method=method)


def evaluate_dataset(manifest: Manifest, estimates_dir, method: str = ""
                     ) -> tuple[EvalReport, list[EvalRecord]]:
    """Score every (utterance, target) estimate ``<utterance>_tgt<k>.wav`` in
    ``estimates_dir`` against its reverberant image at the manifest's
    reference mic, one utterance at a time in manifest order. An estimate
    that is missing, unreadable, not mono or not as long as the mixture fails
    its utterance, with a message that names the file; the batch rule of this
    module applies. Returns (report, records in manifest order)."""
    ref_index = manifest.array.ref_index

    def one(entry: UtteranceEntry) -> list[EvalRecord]:
        mixture = _read(manifest, entry.mixture)[ref_index].copy()  # the other mics are freed
        records = []
        for target, src in enumerate(entry.sources):
            est_path = Path(estimates_dir) / f"{entry.stem(target)}.wav"
            est, _ = read_wav(est_path, expected_rate=manifest.sample_rate)
            if est.shape != (1, mixture.size):
                raise DataFormatError(f"{est_path}: estimate has {est.shape[0]} channel(s) of "
                                      f"{est.shape[1]} samples; expected 1 channel of "
                                      f"{mixture.size}, the mixture's length")
            reference = _read(manifest, src.image)[ref_index].copy()
            records.append(_record(entry, target, est[0], reference,
                                   si_sdr(mixture, reference), method))
        return records

    entries = manifest.utterances
    records = [rec for recs in _each(one, entries, [e.id for e in entries]) for rec in recs]
    return aggregate(records, method=method), records


# ---------------------------------------------------------------------------
# Direction-error sweep

PERTURB_VARIANTS = {"af": (1.0, 0.0), "af_dpr": (1.0, 1.0)}


def perturb_sweep(manifest: Manifest, out_dir, errors: Sequence[float], seed: int,
                  cfg: PipelineConfig, cond: str = "tgt",
                  jobs: int = 1) -> dict:
    """Heuristic separation under direction estimation error.

    Every error magnitude and both heuristic variants (AF only and AF+DPR)
    make one run, whose estimates and sidecars go to ``<variant>/errNN``;
    two errors that would share an ``errNN``, equal ones included, raise
    :class:`ValueError`.
    One scoring :func:`separate_dataset` pass writes and scores all runs
    from a single analysis of each mixture, reading each mixture and
    reference image once and no estimate. Per target it takes the errors in
    turn and both variants at each, so each perturbed azimuth's AF is
    computed once and dropped before the next: memory stays flat in the
    number of errors. The error sign is random per (utterance, target),
    drawn from a dedicated seeded stream, and is the same for every
    magnitude.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dirs: dict[str, float] = {}
    for error in errors:
        name = f"err{int(round(error)):02d}"
        if name in dirs:
            raise ValueError(f"direction errors {dirs[name]:g} and {error:g} "
                             f"would share the output directory {name}")
        dirs[name] = float(error)
    runs = {(variant, error): Run(out / variant / name, error, alpha, beta)
            for variant, (alpha, beta) in PERTURB_VARIANTS.items()
            for name, error in dirs.items()}
    _, records = separate_dataset(manifest, list(runs.values()), "heuristic", cfg, cond=cond,
                                  error_seed=seed, jobs=jobs, score=True)
    reports = {key: aggregate(run_records, method=f"heuristic/{key[0]}")
               for key, run_records in zip(runs, records)}
    sweep: dict = {"seed": seed, "cond": cond,
                   "errors_deg": [float(e) for e in errors], "variants": {},
                   "note": ("single-target separators have no output-permutation "
                            "freedom; rows are strictly comparable only above 15 "
                            "degrees of angle difference")}
    for variant in PERTURB_VARIANTS:
        rows = []
        for error in errors:
            report = reports[variant, float(error)]
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
    write_json(json_path, sweep)
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
