import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

import ssk
from ssk import dataset_io, evaluation, pipeline, simulation, spatial_features, spectral
from ssk.cli import build_parser, main
from ssk.dataset_io import read_features, read_manifest, read_wav, write_wav
from ssk.geometry import circular_array
from ssk.metrics import SI_SDR_CAP_DB, si_sdr, si_sdri
from ssk.room_sim import MIN_SOURCE_DISTANCE, WALL_MARGIN, sample_scene
from ssk.spatial_features import DPR_POWER_FLOOR, FeatureStack, das_filterbank

import oracles


def tree_hash(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def simulate(out, seed=7, n=2, speakers=2, duration=0.8, extra=()):
    rc = main(["simulate", "--out", str(out), "--seed", str(seed),
               "--num-scenes", str(n), "--num-speakers", str(speakers),
               "--duration", str(duration), *extra])
    assert rc == 0
    return read_manifest(Path(out) / "manifest.json")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    manifest = simulate(out, seed=7, n=2)
    return out, manifest


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    env = dict(os.environ, PYTHONPATH=str(Path(ssk.__file__).parents[1]))
    code = "import sys, ssk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


# Modules a stage that does not run them must not load, at --jobs 1. No stage
# computes with numpy.ma; only simulate draws from numpy.random, whose
# secrets -> hmac -> _hashlib chain maps OpenSSL.
_SIMULATION = {"ssk.room_sim", "ssk.synth", "concurrent.futures", "numpy.random", "secrets",
               "hashlib", "numpy.ma"}
_ANALYSIS = {"ssk.separation", "ssk.spatial_features", "ssk.spectral", "concurrent.futures",
             "numpy.ma"}


@pytest.mark.parametrize("argv, stage, unloaded", [
    (["simulate", "--num-scenes", "1", "--duration", "0.3", "--jobs", "1"], "simulation",
     _ANALYSIS),
    (["features", "--cond", "tgt+intf", "--jobs", "1"], "pipeline", _SIMULATION),
    (["separate", "--method", "heuristic", "--direction-error-deg", "5", "--jobs", "1"],
     "pipeline", _SIMULATION),
    (["perturb", "--direction-error-deg", "0,4", "--jobs", "1"], "pipeline", _SIMULATION),
    (["evaluate", "--estimates"], "evaluation", _SIMULATION | _ANALYSIS | {"ssk.pipeline"}),
], ids=["simulate", "features", "separate", "perturb", "evaluate"])
def test_each_stage_loads_only_its_modules(dataset, tmp_path, argv, stage, unloaded):
    # In a fresh interpreter, each subcommand imports the modules it runs
    # and none of another stage's, nor numeric modules it does not compute
    # with: separate steers with a direction error, so its sign is drawn.
    if argv[0] == "evaluate":
        assert main(["separate", "--manifest", str(dataset[0] / "manifest.json"),
                     "--out", str(tmp_path / "est"), "--method", "das"]) == 0
        argv = [*argv, str(tmp_path / "est")]
    if argv[0] != "simulate":
        argv = [*argv, "--manifest", str(dataset[0] / "manifest.json")]
    argv = [*argv, "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(ssk.__file__).parents[1]))
    code = ("import json, sys\nfrom ssk.cli import main\nrc = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([rc, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert f"ssk.{stage}" in loaded
    assert not unloaded & set(loaded)


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--duration", "inf"], "--duration"),
    (["simulate", "--duration", "0"], "--duration"),
    (["simulate", "--duration", "-1"], "--duration"),
    (["perturb", "--direction-error-deg=-3,3"], "--direction-error-deg"),
    (["separate", "--method", "heuristic", "--direction-error-deg=-2"],
     "--direction-error-deg"),
    (["perturb", "--direction-error-deg", "0,inf"], "--direction-error-deg"),
    (["perturb", "--direction-error-deg", "nan"], "--direction-error-deg"),
    (["separate", "--method", "heuristic", "--alpha", "nan"], "--alpha"),
    (["separate", "--method", "heuristic", "--alpha=-1"], "--alpha"),
    (["separate", "--method", "heuristic", "--beta=-0.5"], "--beta"),
    (["separate", "--method", "heuristic", "--direction-error-deg", "nan"],
     "--direction-error-deg"),
    (["simulate", "--jobs", "0"], "--jobs"),
    (["features", "--jobs", "-4"], "--jobs"),
    (["separate", "--method", "das", "--jobs", "0"], "--jobs"),
    (["perturb", "--jobs", "-4"], "--jobs"),
    (["simulate", "--num-scenes", "-2"], "--num-scenes"),
    (["simulate", "--sample-rate", "0", "--num-scenes", "1"], "--sample-rate"),
    (["simulate", "--num-mics", "0"], "--num-mics"),
], ids=["duration-inf", "duration-0", "duration-negative", "error-list-negative",
        "error-negative", "error-list-inf", "error-list-nan", "alpha-nan", "alpha-negative",
        "beta-negative", "error-nan",
        "simulate-jobs-0", "features-jobs-negative", "separate-jobs-0",
        "perturb-jobs-negative", "num-scenes-negative", "sample-rate-0", "num-mics-0"])
def test_non_finite_float_flag_usage_error(dataset, tmp_path, capsys, argv, flag):
    # Every float flag, and each item of perturb's error list, must be
    # finite, an error magnitude at least 0, --duration above 0, --jobs and
    # the other size flags at least 1 and --num-scenes at least 0: a usage
    # error names the flag before any output is made.
    manifest = [] if argv[0] == "simulate" else ["--manifest", str(dataset[0] / "manifest.json")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *manifest, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("errors", [",", "", " , ,"])
def test_empty_error_list_usage_error(dataset, tmp_path, capsys, errors):
    # An error list with no numbers would make a sweep with no rows that
    # passes for a finished one; it is a usage error and writes nothing.
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "--manifest", str(dataset[0] / "manifest.json"),
              "--out", str(tmp_path / "sweep"), "--direction-error-deg", errors])
    assert exc.value.code == 2
    assert "argument --direction-error-deg: " in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "sweep.json").exists()


def test_negative_zero_error_reads_as_zero():
    # "-0" names the magnitude 0, so no report writes an error of -0.
    parser = build_parser()
    args = parser.parse_args(["perturb", "--manifest", "m", "--out", "o",
                              "--direction-error-deg=-0,2"])
    assert args.direction_error_deg == [0.0, 2.0]
    assert not np.signbit(args.direction_error_deg).any()
    args = parser.parse_args(["separate", "--manifest", "m", "--out", "o", "--method", "das",
                              "--direction-error-deg=-0"])
    assert not np.signbit(args.direction_error_deg)


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        m1 = simulate(tmp_path / "a", seed=7, n=3, duration=0.6)
        assert len(m1.utterances) == 3
        for u in m1.utterances:
            assert (tmp_path / "a" / u.mixture).exists()
            for s in u.sources:
                assert (tmp_path / "a" / s.image).exists()
                assert (tmp_path / "a" / s.dry).exists()
        simulate(tmp_path / "b", seed=7, n=3, duration=0.6)
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_zero_scenes_empty_manifest(self, tmp_path):
        manifest = simulate(tmp_path / "z", n=0)
        assert manifest.utterances == ()

    def test_parallel_jobs_identical_output(self, tmp_path):
        # Scenes rendered side by side each write their own images: at --jobs
        # 2 and 3 the whole tree, names and bytes, is the one --jobs 1 writes.
        simulate(tmp_path / "j1", seed=11, n=3, duration=0.5)
        for jobs in ("2", "3"):
            simulate(tmp_path / jobs, seed=11, n=3, duration=0.5, extra=["--jobs", jobs])
            assert tree_files(tmp_path / "j1") == tree_files(tmp_path / jobs), jobs

    def test_source_at_other_rate_rejected(self, tmp_path, capsys):
        pool = tmp_path / "pool"
        pool.mkdir()
        write_wav(pool / "a.wav", np.random.default_rng(0).standard_normal(8000), 8000)
        rc = main(["simulate", "--out", str(tmp_path / "d"), "--num-scenes", "1",
                   "--source-dir", str(pool)])
        assert rc == 1
        assert "sample rate 8000 Hz, expected 16000 Hz" in capsys.readouterr().err

    def test_empty_source_dir_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # A pool without WAVs is an argument error, found before any output
        # directory is made.
        pool = tmp_path / "pool"
        pool.mkdir()
        rc = main(["simulate", "--out", str(tmp_path / "d"), "--num-scenes", "1",
                   "--source-dir", str(pool)])
        assert rc == 1
        assert "no WAV files in source dir" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_multichannel_source_rejected(self, tmp_path, capsys):
        # The pool takes mono WAVs: a multichannel one fails its scene rather
        # than giving up all channels but the first.
        pool = tmp_path / "pool"
        pool.mkdir()
        write_wav(pool / "mix.wav", np.random.default_rng(0).standard_normal((6, 8000)), 16000)
        rc = main(["simulate", "--out", str(tmp_path / "d"), "--num-scenes", "1",
                   "--duration", "0.3", "--source-dir", str(pool)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "1 of 1 failed: utt_00000: " in err
        assert "mix.wav: 6 channels; the pool takes mono WAVs" in err
        assert not [p for p in (tmp_path / "d").rglob("*") if p.is_file()]

    def test_empty_source_rejected(self, tmp_path, capsys):
        # A WAV of no samples has nothing to cut or repeat: it fails its scene
        # with a message that names it, as a multichannel one does.
        pool = tmp_path / "pool"
        pool.mkdir()
        write_wav(pool / "empty.wav", np.zeros(0), 16000)
        rc = main(["simulate", "--out", str(tmp_path / "d"), "--num-scenes", "1",
                   "--duration", "0.3", "--source-dir", str(pool)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "1 of 1 failed: utt_00000: " in err
        assert "empty.wav: no samples" in err
        assert not [p for p in (tmp_path / "d").rglob("*") if p.is_file()]

    def test_mics_keep_the_wall_margin(self, tmp_path):
        # The array centre keeps the whole array clear of the walls: every
        # mic of a 1.2 m circle stays at least WALL_MARGIN from every wall.
        manifest = simulate(tmp_path / "wide", seed=3, n=12, duration=0.3,
                            extra=["--array-diameter", "1.2"])
        for u in manifest.utterances:
            mics = manifest.array.positions + np.array(u.array_center)
            clearance = np.minimum(mics, np.array(u.room_dimensions) - mics)
            assert clearance.min() >= WALL_MARGIN, u.id

    def test_sources_keep_the_minimum_distance_from_every_mic(self, tmp_path, monkeypatch):
        # Drawn sources keep MIN_SOURCE_DISTANCE from every mic, not only from
        # the array centre, which a 1.2 m circle would put inside its rim.
        rooms = []

        def recording(*args, **kwargs):
            room, azimuths = sample_scene(*args, **kwargs)
            rooms.append(room)
            return room, azimuths

        monkeypatch.setattr(simulation, "sample_scene", recording)
        manifest = simulate(tmp_path / "wide", seed=3, n=12, duration=0.3,
                            extra=["--array-diameter", "1.2"])
        assert len(rooms) == 12
        for room in rooms:
            mics = manifest.array.positions + room.array_center
            gaps = np.linalg.norm(room.source_positions[:, None] - mics[None], axis=-1)
            assert gaps.min() >= MIN_SOURCE_DISTANCE

    @pytest.mark.parametrize("kind", ["noise", "am", "chirp"])
    def test_synth_kind_gives_a_valid_dataset(self, tmp_path, kind):
        out = tmp_path / kind
        manifest = simulate(out, seed=5, n=1, duration=0.4, extra=["--synth-kind", kind])
        for u in manifest.utterances:
            for ref in [u.mixture, *(s.image for s in u.sources), *(s.dry for s in u.sources)]:
                assert read_wav(out / ref)[0].size, ref
        assert main(["separate", "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "est"), "--method", "heuristic"]) == 0

    def test_array_larger_than_any_room_exits_1(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "huge"), "--num-scenes", "1",
                   "--duration", "0.3", "--array-diameter", "12"])
        assert rc == 1
        assert "could not satisfy scene constraints" in capsys.readouterr().err

    def test_histogram_printed(self, tmp_path, capsys):
        simulate(tmp_path / "h", seed=1, n=2)
        out = capsys.readouterr().out
        assert "angle-difference bins" in out

    @pytest.mark.parametrize("flag, value", [("--fft-size", "32"), ("--win-len", "50"),
                                             ("--hop", "13"), ("--grid-step", "5"),
                                             ("--fft-size", "0"), ("--win-len", "-40"),
                                             ("--hop", "0")])
    def test_analysis_flags_usage_error(self, dataset, tmp_path, flag, value, capsys):
        # The analysis is the paper's fixed 2.5 ms STFT and 10-degree grid
        # (PipelineConfig.default): no subcommand takes an STFT or grid flag,
        # whatever its value, and each refuses one before it writes anything.
        manifest = str(dataset[0] / "manifest.json")
        for command in (["simulate", "--num-scenes", "1"],
                        ["features", "--manifest", manifest],
                        ["separate", "--manifest", manifest, "--method", "das"],
                        ["evaluate", "--manifest", manifest, "--estimates", str(dataset[0])],
                        ["perturb", "--manifest", manifest]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--out", str(tmp_path / "x"), flag, value])
            assert exc.value.code == 2, command[0]
            assert "unrecognized arguments" in capsys.readouterr().err, command[0]
            assert not any(tmp_path.iterdir()), command[0]


class TestFeatures:
    def test_run_record_states_blocks_and_cond(self, dataset, tmp_path):
        # One run.json states the blocks, in stack order whatever the flag's
        # order, and the condition; nothing else sits beside the TSNF1 files.
        out, manifest = dataset
        dest = tmp_path / "feat"
        assert main(["features", "--manifest", str(out / "manifest.json"), "--out", str(dest),
                     "--features", "dpr,lps,af", "--cond", "tgt+intf"]) == 0
        assert json.loads((dest / "run.json").read_text()) == {
            "blocks": ["lps", "af", "dpr"], "cond": "tgt+intf"}
        assert {p.name for p in dest.iterdir()} == {"run.json"} | {
            f"{u.stem(t)}.tsnf" for u in manifest.utterances for t in range(len(u.sources))}

    def test_default_dimensionality_297(self, dataset, tmp_path):
        out, manifest = dataset
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "feat"),
                   "--features", "lps,cosipd,af,dpr", "--cond", "tgt"])
        assert rc == 0
        stack = read_features(tmp_path / "feat" / "utt_00000_tgt0.tsnf")
        assert stack.dim == 297

    def test_tgt_intf_dimensionality_363(self, dataset, tmp_path):
        out, _ = dataset
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "feat2"),
                   "--features", "lps,cosipd,af,dpr", "--cond", "tgt+intf"])
        assert rc == 0
        stack = read_features(tmp_path / "feat2" / "utt_00001_tgt1.tsnf")
        assert stack.dim == 363

    def test_cosipd_only_198(self, dataset, tmp_path):
        out, _ = dataset
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "feat3"), "--features", "cosipd"])
        assert rc == 0
        stack = read_features(tmp_path / "feat3" / "utt_00000_tgt0.tsnf")
        assert stack.dim == 198

    def test_no_pairwise_block_builds_no_phasors(self, dataset, tmp_path, monkeypatch):
        # The spatial analysis is built eagerly, so a run that asks for no
        # cosipd, sinipd or af block analyses without pairs; its LPS and DPR
        # blocks equal those of a run that asks for every block.
        out, manifest = dataset
        argv = ["features", "--manifest", str(out / "manifest.json"), "--cond", "tgt+intf"]
        assert main([*argv, "--out", str(tmp_path / "all"),
                     "--features", ",".join(pipeline.FEATURE_BLOCKS)]) == 0
        calls = []
        cos_sin = spatial_features.pair_cos_sin
        monkeypatch.setattr(spatial_features, "pair_cos_sin",
                            lambda *args: calls.append(1) or cos_sin(*args))
        assert main([*argv, "--out", str(tmp_path / "some"), "--features", "lps,dpr"]) == 0
        assert calls == []
        for name in (f"{u.id}_tgt{t}.tsnf" for u in manifest.utterances
                     for t in range(len(u.sources))):
            some, every = (read_features(tmp_path / run / name) for run in ("some", "all"))
            for block in ("lps", "dpr:tgt", "dpr:intf"):
                assert np.array_equal(some.block(block), every.block(block)), (name, block)

    def test_rerun_bit_identical(self, dataset, tmp_path):
        out, _ = dataset
        args = ["features", "--manifest", str(out / "manifest.json"),
                "--features", "lps,cosipd,af,dpr"]
        main(args + ["--out", str(tmp_path / "f1")])
        main(args + ["--out", str(tmp_path / "f2")])
        assert tree_hash(tmp_path / "f1") == tree_hash(tmp_path / "f2")

    @pytest.mark.parametrize("cond, jobs", [("tgt", 1), ("tgt", 2), ("tgt+intf", 1),
                                            ("tgt+intf", 2)])
    def test_matches_concatenation_oracle(self, dataset, tmp_path, monkeypatch, cond, jobs):
        # Every TSNF1 byte equals what stacking in float64, casting to float32
        # and writing the file as one bytes object gives.
        out, _ = dataset
        args = ["features", "--manifest", str(out / "manifest.json"), "--cond", cond,
                "--features", "lps,cosipd,sinipd,af,dpr", "--jobs", str(jobs)]
        assert main(args + ["--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setattr(pipeline, "assemble_features",
                            lambda blocks: FeatureStack(*oracles.concat_features(blocks)))
        monkeypatch.setattr(pipeline, "write_features", lambda path, stack: Path(path).write_bytes(
            oracles.tsnf1_bytes(stack.data, stack.layout)))
        assert main(args + ["--out", str(tmp_path / "oracle")]) == 0
        assert tree_hash(tmp_path / "plain") == tree_hash(tmp_path / "oracle")

    def test_unknown_feature_name(self, dataset, tmp_path):
        out, _ = dataset
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "f4"), "--features", "mel"])
        assert rc == 1

    def test_empty_feature_list_reads_nothing(self, dataset, tmp_path, monkeypatch, capsys):
        # A list that names no block is refused once, before any mixture is
        # read or --out is made, not as a failure of every utterance.
        out, _ = dataset
        monkeypatch.setattr(dataset_io, "read_wav", _bug)
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "f"), "--features", ","])
        assert rc == 1
        assert "no feature blocks given" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.sampled_from(pipeline.FEATURE_BLOCKS), min_size=1),
           st.sampled_from(pipeline.CONDS))
    def test_layout_follows_the_block_order(self, dataset, blocks, cond):
        # Blocks stack in FEATURE_BLOCKS order: LPS is F wide, each IPD block
        # U*F, AF and DPR F per direction (the target, then the interferer).
        _, manifest = dataset
        cfg = pipeline.PipelineConfig.default(manifest.sample_rate, manifest.array)
        analysis = pipeline.UtteranceAnalysis(
            manifest.utterances[0], manifest, cfg,
            [src.azimuth_deg for src in manifest.utterances[0].sources])
        stack = pipeline.compute_feature_stack(analysis, 0, frozenset(blocks), cond)
        bins, pairs = cfg.stft_cfg.num_bins, len(cfg.pairs.pairs)
        who = ["tgt", "intf"] if cond == "tgt+intf" else ["tgt"]
        expected = []
        for name in (n for n in pipeline.FEATURE_BLOCKS if n in blocks):
            if name == "lps":
                expected.append(("lps", bins))
            elif name in ("cosipd", "sinipd"):
                expected.append((name, pairs * bins))
            else:
                expected += [(f"{name}:{w}", bins) for w in who]
        assert stack.layout == tuple(expected)
        frames = (analysis.reference.size - cfg.stft_cfg.win_len) // cfg.stft_cfg.hop + 1
        assert stack.data.shape == (frames, sum(w for _, w in expected))


@pytest.mark.parametrize("stage", ["features", "separate", "perturb"])
def test_unknown_cond_raises_and_writes_nothing(dataset, tmp_path, stage):
    _, manifest = dataset
    dest = tmp_path / "out"
    with pytest.raises(ValueError, match="cond"):
        if stage == "features":
            pipeline.build_features(manifest, dest, frozenset(pipeline.FEATURE_BLOCKS),
                                    cond="intf", jobs=1)
        elif stage == "separate":
            pipeline.separate_dataset(manifest, [pipeline.Run(dest, 0.0, 1.0, 1.0)],
                                      "heuristic", cond="intf", error_seed=0, jobs=1)
        else:
            pipeline.perturb_sweep(manifest, dest, [0.0], 0, cond="intf", jobs=1)
    assert not dest.exists()


def _separate(manifest, runs, method="heuristic"):
    return pipeline.separate_dataset(manifest, runs, method, cond="tgt", error_seed=0, jobs=1)


# Each takes the manifest and the output directory it must leave unmade.
_BAD_RUNS = {
    "no-runs": lambda m, dest: _separate(m, [], "das"),
    "shared-out-dir": lambda m, dest: _separate(m, [pipeline.Run(dest, 0.0, 1.0, 1.0),
                                                    pipeline.Run(dest, 5.0, 1.0, 0.0)]),
    "negative-error": lambda m, dest: _separate(m, [pipeline.Run(dest, -3.0, 1.0, 1.0)]),
    "nan-error": lambda m, dest: _separate(m, [pipeline.Run(dest, np.nan, 1.0, 1.0)]),
    "inf-error": lambda m, dest: _separate(m, [pipeline.Run(dest, np.inf, 1.0, 1.0)]),
    "negative-weight": lambda m, dest: _separate(m, [pipeline.Run(dest, 0.0, -1.0, 1.0)]),
    "zero-weights": lambda m, dest: _separate(m, [pipeline.Run(dest, 0.0, 0.0, 0.0)]),
    "sweep-no-errors": lambda m, dest: pipeline.perturb_sweep(m, dest, [], 0, cond="tgt", jobs=1),
    "sweep-negative-error": lambda m, dest: pipeline.perturb_sweep(m, dest, [-3.0], 0,
                                                                   cond="tgt", jobs=1),
    # Checked before the error names its errNN directory, which neither
    # value could.
    "sweep-inf-error": lambda m, dest: pipeline.perturb_sweep(m, dest, [math.inf], 0,
                                                              cond="tgt", jobs=1),
    "sweep-nan-error": lambda m, dest: pipeline.perturb_sweep(m, dest, [math.nan], 0,
                                                              cond="tgt", jobs=1),
}


def test_zero_weights_read_nothing(dataset, tmp_path, monkeypatch, capsys):
    # Weights that are both zero are refused before any mixture is read, not
    # as a failure of every utterance.
    monkeypatch.setattr(dataset_io, "read_wav", _bug)
    rc = main(["separate", "--manifest", str(dataset[0] / "manifest.json"), "--out",
               str(tmp_path / "est"), "--method", "heuristic", "--alpha", "0", "--beta", "0"])
    assert rc == 1
    assert "weights must be non-negative and not both zero" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()


@pytest.mark.parametrize("case", list(_BAD_RUNS))
def test_bad_runs_raise_and_write_nothing(dataset, tmp_path, case):
    # The library refuses what the parser refuses, before it writes anything:
    # no run, two runs in one directory (whose run.json would state only the
    # last), a direction error that is not a finite magnitude (the sweep
    # would write it to af/err-3), and heuristic weights that are negative or
    # both zero (every mask would fail).
    dest = tmp_path / "out"
    with pytest.raises(ValueError, match="run|direction error|weights"):
        _BAD_RUNS[case](dataset[1], dest)
    assert not dest.exists()


class TestSeparate:
    def test_ipsm_positive_improvement(self, dataset, tmp_path):
        out, manifest = dataset
        rc = main(["separate", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "est"), "--method", "ipsm"])
        assert rc == 0
        u = manifest.utterances[0]
        est, _ = read_wav(tmp_path / "est" / f"{u.id}_tgt0.wav")
        mix, _ = read_wav(out / u.mixture)
        ref, _ = read_wav(out / u.sources[0].image)
        assert si_sdri(est[0], ref[0], mix[0]) > 0.0
        assert json.loads((tmp_path / "est" / "run.json").read_text())["method"] == "ipsm"

    def test_das_single_mic_passthrough(self, tmp_path):
        out = tmp_path / "mono"
        manifest = simulate(out, seed=3, n=1, speakers=1,
                            extra=["--num-mics", "1"])
        rc = main(["separate", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "est"), "--method", "das"])
        assert rc == 0
        u = manifest.utterances[0]
        est, _ = read_wav(tmp_path / "est" / f"{u.id}_tgt0.wav")
        mix, _ = read_wav(out / u.mixture)
        lo, hi = 40, est.shape[1] - 80
        err = np.linalg.norm(est[0, lo:hi] - mix[0, lo:hi]) / np.linalg.norm(mix[0, lo:hi])
        assert err < 1e-6

    @pytest.mark.parametrize("flag, value", [("--array-diameter", "0.2"),
                                             ("--num-mics", "4"), ("--sample-rate", "8000")])
    def test_geometry_flags_usage_error(self, dataset, tmp_path, flag, value):
        # The manifest decides geometry and sample rate; a flag that could
        # contradict it is not accepted.
        out, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["separate", "--manifest", str(out / "manifest.json"),
                  "--out", str(tmp_path / "x"), "--method", "das", flag, value])
        assert exc.value.code == 2

    def test_unknown_method_usage_error(self, dataset, tmp_path):
        out, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["separate", "--manifest", str(out / "manifest.json"),
                  "--out", str(tmp_path / "x"), "--method", "wishful"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("method", pipeline.METHODS)
    def test_run_record_states_each_azimuth_used(self, dataset, tmp_path, method):
        # One run.json per run states the settings once and, per estimate in
        # manifest and target order, the azimuth steered at: the source's
        # azimuth plus the error with the sign drawn per (utterance, target)
        # from the seed. An oracle mask steers at none, so its rows are null.
        out, manifest = dataset
        oracle = method in pipeline.ORACLE_KINDS
        error = 0.0 if oracle else 5.0
        dest = tmp_path / "est"
        assert main(["separate", "--manifest", str(out / "manifest.json"), "--out", str(dest),
                     "--method", method, "--direction-error-deg", str(error),
                     "--seed", "3"]) == 0
        doc = json.loads((dest / "run.json").read_text())
        rows = doc.pop("estimates")
        assert doc == {"method": method, "cond": "tgt", "direction_error_deg": error,
                       "alpha": 1.0, "beta": 1.0, "error_seed": 3}
        expected = []
        for index, u in enumerate(manifest.utterances):
            for target, src in enumerate(u.sources):
                sign = -1.0 if random.Random(f"3/{index}/{target}").random() < 0.5 else 1.0
                expected.append({"utterance": u.id, "target_index": target,
                                 "azimuth_used_deg": None if oracle
                                 else src.azimuth_deg + sign * error})
        assert rows == expected
        assert {p.name for p in dest.iterdir()} == {"run.json"} | {
            f"{u.stem(t)}.wav" for u in manifest.utterances for t in range(len(u.sources))}

    @pytest.mark.parametrize("method", pipeline.ORACLE_KINDS)
    def test_oracle_method_takes_no_direction_error(self, dataset, tmp_path, capsys, method):
        # An oracle mask is not steered, so a direction error would be
        # recorded but never used: the run is refused before it writes.
        out, _ = dataset
        assert main(["separate", "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "est"), "--method", method,
                     "--direction-error-deg", "5"]) == 1
        assert "oracle masks use no direction" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()


class TestEvaluate:
    def test_mixture_as_estimate_scores_zero(self, dataset, tmp_path):
        out, manifest = dataset
        est_dir = tmp_path / "identity"
        est_dir.mkdir()
        for u in manifest.utterances:
            mix, _ = read_wav(out / u.mixture)
            for t in range(len(u.sources)):
                write_wav(est_dir / f"{u.id}_tgt{t}.wav", mix[0], 16000)
        rc = main(["evaluate", "--manifest", str(out / "manifest.json"),
                   "--estimates", str(est_dir), "--out", str(tmp_path / "rep")])
        assert rc == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        for b in doc["bins"]:
            if b["count"]:
                assert abs(b["mean_si_sdri"]) < 1e-9
        assert (tmp_path / "rep.csv").exists()

    def test_out_prefix_keeps_its_dots(self, dataset, tmp_path):
        # --out is a prefix: .json and .csv are appended, so prefixes that
        # differ after a dot name different reports.
        out, _ = dataset
        m = str(out / "manifest.json")
        assert main(["separate", "--manifest", m, "--out", str(tmp_path / "est"),
                     "--method", "das"]) == 0
        for prefix, method in (("alpha0.5", "das"), ("alpha0.7", "other")):
            assert main(["evaluate", "--manifest", m, "--estimates", str(tmp_path / "est"),
                         "--out", str(tmp_path / "rep" / prefix), "--method", method]) == 0
        assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == [
            "alpha0.5.csv", "alpha0.5.json", "alpha0.7.csv", "alpha0.7.json"]
        assert json.loads((tmp_path / "rep" / "alpha0.5.json").read_text())["method"] == "das"

    def test_references_as_estimates_hit_cap(self, dataset, tmp_path):
        out, manifest = dataset
        est_dir = tmp_path / "refs"
        est_dir.mkdir()
        expected = []
        for u in manifest.utterances:
            mix, _ = read_wav(out / u.mixture)
            for t, s in enumerate(u.sources):
                img, _ = read_wav(out / s.image)
                write_wav(est_dir / f"{u.id}_tgt{t}.wav", img[0].astype(np.float32), 16000)
                expected.append(SI_SDR_CAP_DB - si_sdr(mix[0], img[0]))
        rc = main(["evaluate", "--manifest", str(out / "manifest.json"),
                   "--estimates", str(est_dir), "--out", str(tmp_path / "rep2")])
        assert rc == 0
        doc = json.loads((tmp_path / "rep2.json").read_text())
        npt.assert_allclose(doc["overall"]["mean_si_sdri"], np.mean(expected), atol=1e-6)

    @pytest.mark.parametrize("shape", ["two-channel", "short", "long"])
    def test_estimate_not_mono_at_mixture_length_rejected(self, dataset, tmp_path, capsys,
                                                           shape):
        # A 2-channel estimate whose channel 0 is the reference image would
        # score the SI-SDR cap if only channel 0 were read.
        out, manifest = dataset
        est_dir = tmp_path / "est"
        est_dir.mkdir()
        for u in manifest.utterances:
            for t, s in enumerate(u.sources):
                img, _ = read_wav(out / s.image)
                write_wav(est_dir / f"{u.id}_tgt{t}.wav", img[0], 16000)
        u = manifest.utterances[1]
        ref, mix = read_wav(out / u.sources[1].image)[0][0], read_wav(out / u.mixture)[0]
        est = {"two-channel": np.stack([ref, mix[1]]), "short": ref[:-1],
               "long": np.r_[ref, 0.0]}[shape]
        write_wav(est_dir / "utt_00001_tgt1.wav", est, 16000)
        rc = main(["evaluate", "--manifest", str(out / "manifest.json"),
                   "--estimates", str(est_dir), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert "utt_00001_tgt1.wav" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_missing_estimates_listed_nonzero_exit(self, dataset, tmp_path, capsys):
        out, _ = dataset
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["evaluate", "--manifest", str(out / "manifest.json"),
                   "--estimates", str(empty), "--out", str(tmp_path / "rep3")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "utt_00000_tgt0.wav" in err


class TestPerturb:
    def test_zero_error_matches_unperturbed(self, dataset, tmp_path):
        out, _ = dataset
        manifest = str(out / "manifest.json")
        rc = main(["perturb", "--manifest", manifest, "--out", str(tmp_path / "sweep"),
                   "--direction-error-deg", "0,7", "--seed", "5"])
        assert rc == 0
        sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        for k, error in enumerate(("0", "7")):
            plain = tmp_path / f"plain{error}"
            rc = main(["separate", "--manifest", manifest, "--out", str(plain),
                       "--method", "heuristic", "--direction-error-deg", error,
                       "--seed", "5"])
            assert rc == 0
            rc = main(["evaluate", "--manifest", manifest, "--estimates", str(plain),
                       "--out", str(tmp_path / f"rep{error}")])
            assert rc == 0
            report = json.loads((tmp_path / f"rep{error}.json").read_text())
            row = sweep["variants"]["af_dpr"][k]
            assert row["error_deg"] == float(error)
            npt.assert_allclose(row["overall"], report["overall"]["mean_si_sdri"], atol=1e-9)
        swept = tmp_path / "sweep" / "af_dpr" / "err07"
        wavs = sorted(p.name for p in swept.glob("*.wav"))
        assert wavs == sorted(p.name for p in (tmp_path / "plain7").glob("*.wav"))
        for name in wavs:
            assert (swept / name).read_bytes() == (tmp_path / "plain7" / name).read_bytes()

    def test_errors_sharing_a_directory_rejected(self, dataset, tmp_path, capsys):
        out, _ = dataset
        rc = main(["perturb", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "s"), "--direction-error-deg", "0,0.4"])
        assert rc == 1
        assert "err00" in capsys.readouterr().err

    @pytest.mark.parametrize("errors, name", [("4,4,4.0", "err04"), ("3,3", "err03")])
    def test_repeated_error_rejected(self, dataset, tmp_path, capsys, errors, name):
        # A repeated magnitude would be one run reported as several sweep points.
        out, _ = dataset
        rc = main(["perturb", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "s"), "--direction-error-deg", errors])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep.json").exists()

    def test_sweep_deterministic(self, dataset, tmp_path):
        out, _ = dataset
        args = ["perturb", "--manifest", str(out / "manifest.json"),
                "--direction-error-deg", "0,4", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "s1")])
        main(args + ["--out", str(tmp_path / "s2")])
        assert tree_hash(tmp_path / "s1") == tree_hash(tmp_path / "s2")


# ---------------------------------------------------------------------------
# Batch rule: every utterance runs, a failure ends only its own utterance,
# and a failed batch exits 1 naming each failure and writes no summary file.

CORRUPTIONS = ("missing", "not-riff", "channels", "nan", "-inf")
BATCH_STAGES = {
    "features": ["features", "--features", "lps,cosipd,af,dpr"],
    "separate": ["separate", "--method", "heuristic"],
    "perturb": ["perturb", "--direction-error-deg", "0,5"],
}


def tree_files(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def corrupt(path, kind, where):
    """Spoil one WAV: delete it, make it not RIFF, drop a channel, or make one
    float sample non-finite (``where`` picks it)."""
    if kind == "missing":
        path.unlink()
    elif kind == "not-riff":
        path.write_bytes(b"garbage")
    elif kind == "channels":
        wav, rate = read_wav(path)
        write_wav(path, wav[:-1], rate)
    else:
        raw = bytearray(path.read_bytes())
        start = raw.index(b"data") + 8
        at = start + 4 * (where % ((len(raw) - start) // 4))
        raw[at:at + 4] = struct.pack("<f", float(kind))
        path.write_bytes(bytes(raw))


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """A 3-scene dataset and each stage's clean outputs at --jobs 1."""
    root = tmp_path_factory.mktemp("batch")
    simulate(root / "data", seed=7, n=3, duration=0.3)
    clean = {}
    for stage, argv in BATCH_STAGES.items():
        assert main([*argv, "--manifest", str(root / "data" / "manifest.json"),
                     "--out", str(root / stage), "--jobs", "1"]) == 0
        clean[stage] = tree_files(root / stage)
    return root / "data", clean


@settings(max_examples=10, deadline=None)
@given(bad=st.dictionaries(st.integers(0, 2), st.sampled_from(CORRUPTIONS),
                           min_size=1, max_size=2),
       where=st.integers(0, 2 ** 20))
@example(bad={0: "channels", 2: "not-riff"}, where=0)
@example(bad={1: "missing"}, where=0)
def test_a_failed_utterance_ends_only_itself(batch, tmp_path_factory, bad, where):
    # Whatever --jobs is, every other utterance writes exactly its clean
    # outputs, no summary file is written, and stderr names each corrupted
    # utterance and its file, in manifest order.
    source, clean = batch
    data = tmp_path_factory.mktemp("corrupt")
    shutil.copytree(source, data, dirs_exist_ok=True)
    manifest = read_manifest(data / "manifest.json")
    failed = [manifest.utterances[k] for k in sorted(bad)]
    for k, kind in bad.items():
        corrupt(data / manifest.utterances[k].mixture, kind, where)
    for stage, argv in BATCH_STAGES.items():
        expected = {rel: body for rel, body in clean[stage].items()
                    if not rel.name.startswith(tuple(f"{u.id}_" for u in failed))
                    and rel.name not in ("sweep.json", "sweep.csv", "run.json")}
        for jobs in ("1", "2"):
            out = data / f"{stage}-{jobs}"
            with contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main([*argv, "--manifest", str(data / "manifest.json"),
                           "--out", str(out), "--jobs", jobs])
            assert rc == 1, (stage, jobs)
            text = err.getvalue()
            assert f"{len(failed)} of 3 failed: " in text
            at = [text.index(f"{u.id}: ") for u in failed]
            assert at == sorted(at)
            assert all(Path(u.mixture).name in text for u in failed)
            assert tree_files(out) == expected, (stage, jobs)


def test_missing_dry_wav_blocks_no_analysis(batch, tmp_path):
    # No analysis stage reads a dry source: with one deleted, every stage
    # runs and writes exactly its clean outputs.
    source, clean = batch
    data = tmp_path / "data"
    shutil.copytree(source, data)
    (data / read_manifest(data / "manifest.json").utterances[1].sources[0].dry).unlink()
    for stage, argv in BATCH_STAGES.items():
        assert main([*argv, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / stage), "--jobs", "1"]) == 0, stage
        assert tree_files(tmp_path / stage) == clean[stage], stage


@pytest.mark.parametrize("argv", [["features"], ["separate", "--method", "heuristic"],
                                  ["perturb", "--direction-error-deg", "0"]],
                         ids=["features", "separate", "perturb"])
def test_single_source_tgt_intf_fails_the_utterance(tmp_path, capsys, argv):
    # A one-source scene has no interferer: every stage fails the utterance
    # under tgt+intf, rather than running tgt and recording tgt+intf.
    simulate(tmp_path / "one", seed=2, n=1, speakers=1, duration=0.3)
    out = tmp_path / "out"
    assert main([*argv, "--manifest", str(tmp_path / "one" / "manifest.json"),
                 "--out", str(out), "--cond", "tgt+intf"]) == 1
    assert "utt_00000: utterance utt_00000 has a single source" in capsys.readouterr().err
    assert tree_files(out) == {}


def _fail_on(module, name, stem):
    """``module.name``, a writer, made to raise OSError for a path named ``stem``."""
    write = getattr(module, name)

    def failing(path, *args, **kwargs):
        if Path(path).stem == stem:
            raise OSError(f"cannot write {path}")
        return write(path, *args, **kwargs)
    return failing


@pytest.mark.parametrize("stage", ["simulate", "features", "separate", "perturb"])
def test_a_failed_utterance_leaves_none_of_its_files(tmp_path, monkeypatch, capsys, stage):
    # An utterance that fails after it has written files removes them: a
    # scene whose second source image cannot be written, a corrupt second
    # source image under perturb, or a feature file or estimate that cannot
    # be written. The other utterance keeps all of its files.
    scenes = ["--seed", "7", "--num-scenes", "2", "--num-speakers", "2", "--duration", "0.4"]
    if stage == "simulate":
        assert main(["simulate", *scenes, "--out", str(tmp_path / "clean")]) == 0
        kept = {p.name: p.read_bytes() for p in (tmp_path / "clean").rglob("utt_00000_*")}
        monkeypatch.setattr(simulation, "write_wav",
                            _fail_on(simulation, "write_wav", "utt_00001_src1_img"))
        argv = ["simulate", *scenes]
    else:
        manifest = simulate(tmp_path / "data", seed=7, n=2, speakers=2, duration=0.4)
        argv = ["--manifest", str(tmp_path / "data" / "manifest.json")]
    if stage == "perturb":
        (tmp_path / "data" / manifest.utterances[1].sources[1].image).write_bytes(b"garbage")
        argv = ["perturb", "--direction-error-deg", "0", *argv]
    elif stage == "features":
        monkeypatch.setattr(pipeline, "write_features",
                            _fail_on(pipeline, "write_features", "utt_00001_tgt1"))
        argv = ["features", *argv]
    elif stage == "separate":
        monkeypatch.setattr(pipeline, "write_wav",
                            _fail_on(pipeline, "write_wav", "utt_00001_tgt1"))
        argv = ["separate", "--method", "heuristic", *argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert "1 of 2 failed: utt_00001: " in capsys.readouterr().err
    names = {p.name for p in out.rglob("*") if p.is_file()}
    assert names and not {n for n in names if n.startswith("utt_00001_")}
    if stage == "simulate":
        assert {p.name: p.read_bytes() for p in out.rglob("utt_00000_*")} == kept
        assert "manifest.json" not in names
    else:
        assert {n for n in names if n.startswith("utt_00000_tgt1")}


SUMMARY_FILES = {"simulate": {"manifest.json"}, "features": {"run.json"},
                 "separate": {"run.json"}, "perturb": {"sweep.json", "sweep.csv", "run.json"},
                 "evaluate": {"report.json", "report.csv"}}


@pytest.mark.parametrize("stage", sorted(SUMMARY_FILES))
def test_a_failed_rerun_leaves_no_summary_file(tmp_path, capsys, stage):
    # A rerun into the same --out that fails on a corrupt input leaves no
    # summary file, neither its own nor the one of the clean run before, so
    # none sits beside a half-rewritten tree. simulate's input is its
    # source pool, the others' the dataset's mixtures. evaluate's --out is
    # the prefix of its report, here beside the estimates it scores.
    out = dest = tmp_path / "out"
    if stage == "simulate":
        pool = tmp_path / "pool"
        pool.mkdir()
        for k in range(2):
            write_wav(pool / f"{k}.wav", np.random.default_rng(k).standard_normal(8000), 16000)
        argv = ["simulate", "--num-scenes", "3", "--duration", "0.3", "--source-dir", str(pool)]
        spoiled = pool / "1.wav"
    else:
        manifest = simulate(tmp_path / "data", seed=7, n=2, speakers=2, duration=0.4)
        argv = [stage, "--manifest", str(tmp_path / "data" / "manifest.json")]
        argv += {"features": [], "separate": ["--method", "heuristic"],
                 "perturb": ["--direction-error-deg", "0,4"],
                 "evaluate": ["--estimates", str(out / "est")]}[stage]
        spoiled = tmp_path / "data" / manifest.utterances[1].mixture
        if stage == "evaluate":
            assert main(["separate", *argv[1:3], "--method", "heuristic",
                         "--out", str(out / "est")]) == 0
            dest = out / "report"
    assert main([*argv, "--out", str(dest)]) == 0
    names = {p.name for p in out.rglob("*") if p.is_file()}
    assert SUMMARY_FILES[stage] <= names
    spoiled.write_bytes(b"garbage")
    # features and evaluate take no --seed: their reruns differ only by the
    # spoiled input.
    seed = [] if stage in ("features", "evaluate") else ["--seed", "3"]
    assert main([*argv, "--out", str(dest), *seed]) == 1
    assert "failed: " in capsys.readouterr().err
    names = {p.name for p in out.rglob("*") if p.is_file()}
    assert names and not SUMMARY_FILES[stage] & names


def _bug(*args, **kwargs):
    raise TypeError("a bug")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv, module, name", [
    (["simulate", "--num-scenes", "2", "--duration", "0.3"], simulation, "render_mixture"),
    (["features"], pipeline, "compute_feature_stack"),
    (["separate", "--method", "das"], pipeline, "separate_utterance"),
    (["perturb", "--direction-error-deg", "0"], pipeline, "separate_utterance"),
], ids=["simulate", "features", "separate", "perturb"])
def test_a_bug_propagates_as_itself(dataset, tmp_path, monkeypatch, argv, module, name, jobs):
    # Only input errors fail an utterance; any other exception is a bug and
    # is raised as itself, not reported as exit 1.
    monkeypatch.setattr(module, name, _bug)
    manifest = [] if argv[0] == "simulate" else ["--manifest", str(dataset[0] / "manifest.json")]
    with pytest.raises(TypeError, match="a bug"):
        main([*argv, *manifest, "--out", str(tmp_path / "out"), "--jobs", jobs])


def test_a_bug_in_evaluate_propagates_as_itself(dataset, tmp_path, monkeypatch):
    # evaluate has no --jobs; its task reads the mixture first.
    monkeypatch.setattr(dataset_io, "read_wav", _bug)
    with pytest.raises(TypeError, match="a bug"):
        main(["evaluate", "--manifest", str(dataset[0] / "manifest.json"),
              "--estimates", str(tmp_path), "--out", str(tmp_path / "rep")])


def test_one_analysis_per_utterance(dataset, tmp_path, monkeypatch):
    # Every target, method and run of an utterance shares one analysis: one
    # STFT of each of the J mixture channels, block by block in the spatial
    # analysis (das beams in it too), or for the oracle masks one of the
    # reference-channel mixture and of each source image. Transforms are
    # counted in channel frames, so each frame of each channel is
    # transformed once.
    out, manifest = dataset
    analyses, frames = [], []
    spatial = spatial_features.SpatialAnalysis.__init__
    monkeypatch.setattr(spatial_features.SpatialAnalysis, "__init__",
                        lambda *a, **k: analyses.append(1) or spatial(*a, **k))
    original = spectral.rfft_frames

    def counted(waveform, cfg):
        spectra = original(waveform, cfg)
        frames.append(int(np.prod(spectra.shape[:-1])))
        return spectra

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ssk"]:
        if getattr(module, "rfft_frames", None) is original:
            monkeypatch.setattr(module, "rfft_frames", counted)
    m = str(out / "manifest.json")
    mics = manifest.array.num_mics
    cfg = pipeline.PipelineConfig.default(manifest.sample_rate, manifest.array)
    samples = {u.id: manifest.read(u.mixture).shape[-1] for u in manifest.utterances}

    def mixture(u):
        return mics * cfg.stft_cfg.num_frames(samples[u.id])

    def oracle(u):
        return (1 + len(u.sources)) * cfg.oracle_cfg.num_frames(samples[u.id])

    for argv, per_utterance in (
            (["features", "--cond", "tgt+intf"], mixture),
            (["features", "--features", "lps"], mixture),
            (["separate", "--method", "heuristic", "--cond", "tgt+intf"], mixture),
            (["separate", "--method", "das"], mixture),
            (["separate", "--method", "ibm"], oracle),
            (["separate", "--method", "irm"], oracle),
            (["separate", "--method", "ipsm"], oracle),
            (["perturb", "--direction-error-deg", "0,4"], mixture)):
        analyses.clear()
        frames.clear()
        assert main([*argv, "--manifest", m, "--out", str(tmp_path / "-".join(argv))]) == 0
        analysed = per_utterance is mixture  # the oracle masks analyse no mixture
        assert len(analyses) == analysed * len(manifest.utterances), argv
        assert sum(frames) == sum(per_utterance(u) for u in manifest.utterances), argv


@pytest.mark.parametrize("cond, most", [("tgt", 1), ("tgt+intf", 2)])
def test_af_maps_are_kept_only_where_read_out_of_turn(dataset, tmp_path, monkeypatch, cond,
                                                      most):
    # A target's own AF map is read only by its consecutive runs, and the
    # analysis keeps one map at a time, the latest. Under tgt+intf the stage
    # also holds the target's interferer map through the target's runs, so
    # two are alive. Counted when each estimate is written.
    out, manifest = dataset
    maps, live = [], []
    angle_feature = spatial_features.SpatialAnalysis.angle_feature
    write = pipeline.write_wav
    monkeypatch.setattr(spatial_features.SpatialAnalysis, "angle_feature",
                        lambda self, az: maps.append(weakref.ref(angle_feature(self, az)))
                        or maps[-1]())
    monkeypatch.setattr(pipeline, "write_wav", lambda *a: live.append(
        len({id(ref()) for ref in maps if ref() is not None})) or write(*a))
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out",
                 str(tmp_path / "sweep"), "--direction-error-deg", "0,4", "--cond", cond]) == 0
    assert max(live) == most


def test_interferer_maps_are_read_once_per_target(dataset, tmp_path, monkeypatch):
    # Under tgt+intf each target's interferer maps are read once, before its
    # runs: per target, one AF for the interferer and one per distinct
    # steered azimuth. A loop that read the interferer again in every run
    # would form two AF maps per run.
    out, manifest = dataset
    calls = []
    af = spatial_features.angle_feature
    monkeypatch.setattr(spatial_features, "angle_feature",
                        lambda *args: calls.append(1) or af(*args))
    sweep = tmp_path / "sweep"
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out", str(sweep),
                 "--direction-error-deg", "0,4", "--cond", "tgt+intf"]) == 0
    steered = {}
    for record in sweep.rglob("run.json"):
        for row in json.loads(record.read_text())["estimates"]:
            steered.setdefault((row["utterance"], row["target_index"]), set()).add(
                row["azimuth_used_deg"])
    assert len(steered) == sum(len(u.sources) for u in manifest.utterances)
    assert 0 < len(calls) <= sum(1 + len(azimuths) for azimuths in steered.values())


def test_sweep_computes_each_af_and_dpr_once(dataset, tmp_path, monkeypatch):
    # The af and af_dpr variants steer alike, and small errors often keep the
    # grid direction: each (utterance, azimuth) AF is computed exactly once,
    # and so are each (block, grid index) beam and each block's grid total,
    # over the frames of each utterance.
    out, manifest = dataset
    afs, beams, totals = [], [], []
    af, dpr, total = (spatial_features.angle_feature, spatial_features.dpr,
                      spatial_features.beam_power_total)
    monkeypatch.setattr(spatial_features, "angle_feature", lambda cos_ipd, sin_ipd, steer, keep:
                        afs.append((cos_ipd, steer)) or af(cos_ipd, sin_ipd, steer, keep))
    monkeypatch.setattr(spatial_features, "dpr", lambda spec, weights, grid_total, n, out=None:
                        beams.append((spec, weights.tobytes()))
                        or dpr(spec, weights, grid_total, n, out))
    monkeypatch.setattr(spatial_features, "beam_power_total", lambda spec, weights:
                        totals.append(spec) or total(spec, weights))
    sweep = tmp_path / "sweep"
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out", str(sweep),
                 "--direction-error-deg", "0,4"]) == 0
    used = {}
    for record in sweep.rglob("run.json"):
        for row in json.loads(record.read_text())["estimates"]:
            used.setdefault(row["utterance"], set()).add(row["azimuth_used_deg"])
    cfg = pipeline.PipelineConfig.default(manifest.sample_rate, manifest.array)
    frames = {u.id: cfg.stft_cfg.num_frames(manifest.read(u.mixture).shape[-1])
              for u in manifest.utterances}
    assert len(used) == len(manifest.utterances)
    # The recorded arrays stay referenced, so their ids identify them.
    assert len(set(map(id, totals))) == len(totals)
    assert sum(spec.num_frames for spec in totals) == sum(frames.values())
    assert len({(id(cos_ipd), steer.tobytes()) for cos_ipd, steer in afs}) == len(afs)
    assert len(afs) == sum(map(len, used.values()))
    assert len({(id(spec), weights) for spec, weights in beams}) == len(beams)
    assert sum(spec.num_frames for spec, _ in beams) == sum(
        frames[utterance] * len({spatial_features.nearest_direction(cfg.grid, az)
                                 for az in azimuths})
        for utterance, azimuths in used.items())


def test_sweep_reads_each_file_once_per_pass(dataset, tmp_path, monkeypatch):
    # The sweep scores each estimate as it separates it: each mixture and
    # each reference image is read once for all runs, and no estimate is
    # read back.
    out, manifest = dataset
    reads = []
    read = dataset_io.read_wav
    monkeypatch.setattr(dataset_io, "read_wav",
                        lambda path, **k: reads.append(Path(path).name) or read(path, **k))
    assert main(["perturb", "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "sweep"), "--direction-error-deg", "0,4"]) == 0
    expected = [Path(u.mixture).name for u in manifest.utterances] + [
        Path(src.image).name for u in manifest.utterances for src in u.sources]
    assert sorted(reads) == sorted(expected)


@pytest.mark.parametrize("errors", ["0,5,10", "0,1,2,3,4,5,6,7,8,9,10"])
def test_sweep_holds_at_most_one_perturbed_af_map(dataset, tmp_path, monkeypatch, errors):
    # However many error points the sweep has, an analysis keeps one AF map,
    # the latest, and under tgt no caller holds another, so one map is alive
    # whenever a new one has just been computed.
    out, _ = dataset
    live: dict[int, list] = {}
    most: dict[int, int] = {}
    af = spatial_features.angle_feature

    def tracked(cos_ipd, sin_ipd, steer, keep):
        result = af(cos_ipd, sin_ipd, steer, keep)
        refs = live.setdefault(id(cos_ipd), [])
        refs.append(weakref.ref(result))
        most[id(cos_ipd)] = max(most.get(id(cos_ipd), 0), sum(r() is not None for r in refs))
        return result

    monkeypatch.setattr(spatial_features, "angle_feature", tracked)
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out",
                 str(tmp_path / "sweep"), "--direction-error-deg", errors]) == 0
    assert most and max(most.values()) == 1


def test_sweep_holds_one_dpr_map_per_planned_direction(dataset, tmp_path, monkeypatch):
    # Errors of 0 to 180 degrees steer each target at up to 19 grid
    # directions, more than 2J for the utterance: the analysis pass writes
    # one DPR plane per planned grid direction and no other, at most P.
    out, manifest = dataset
    grid = pipeline.PipelineConfig.default(manifest.sample_rate, manifest.array).grid
    planes: list[set] = []
    dpr, init = spatial_features.dpr, spatial_features.SpatialAnalysis.__init__

    def tracked(spec, weights, total, num_directions, out):
        planes[-1].add(id(out.base))
        return dpr(spec, weights, total, num_directions, out)

    monkeypatch.setattr(spatial_features, "dpr", tracked)
    monkeypatch.setattr(spatial_features.SpatialAnalysis, "__init__",
                        lambda *a, **k: planes.append(set()) or init(*a, **k))
    errors = ",".join(str(e) for e in range(0, 181, 10))
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out",
                 str(tmp_path / "sweep"), "--direction-error-deg", errors]) == 0
    used = {}
    for record in (tmp_path / "sweep").rglob("run.json"):
        for row in json.loads(record.read_text())["estimates"]:
            used.setdefault(row["utterance"], set()).add(
                spatial_features.nearest_direction(grid, row["azimuth_used_deg"]))
    assert list(map(len, planes)) == [len(used[u.id]) for u in manifest.utterances]
    assert max(map(len, planes)) > 2 * manifest.array.num_mics
    assert max(map(len, planes)) <= grid.num_directions


@pytest.mark.parametrize("argv", [["perturb", "--direction-error-deg", "0,4"],
                                  ["separate", "--method", "heuristic", "--cond", "tgt+intf"],
                                  ["separate", "--method", "ibm"]],
                         ids=["perturb", "heuristic", "ibm"])
def test_no_multichannel_waveform_outlives_the_analysis(dataset, tmp_path, monkeypatch, argv):
    # Once an utterance's spectrogram is built (for the oracle masks, its
    # reference-row spectrograms), no (J, n) waveform is alive: the analysis
    # keeps the mixture's reference row and length, and the sweep a copied
    # reference row of each source image. Every signal scored owns its data.
    out, manifest = dataset
    wide = []
    read, score, write = dataset_io.read_wav, pipeline.si_sdr, pipeline.write_wav

    def tracked_read(path, **kwargs):
        wav, rate = read(path, **kwargs)
        if wav.ndim == 2 and wav.shape[0] > 1:
            wide.append(weakref.ref(wav))
        return wav, rate

    def checked_score(estimate, reference):
        assert estimate.base is None and reference.base is None
        return score(estimate, reference)

    def checked_write(path, data, rate):
        assert all(ref() is None for ref in wide)
        return write(path, data, rate)

    monkeypatch.setattr(dataset_io, "read_wav", tracked_read)
    monkeypatch.setattr(pipeline, "si_sdr", checked_score)
    monkeypatch.setattr(evaluation, "si_sdr", checked_score)
    monkeypatch.setattr(pipeline, "write_wav", checked_write)
    assert main([*argv, "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(wide) >= len(manifest.utterances)


@pytest.mark.parametrize("argv", [
    ["perturb"],
    ["separate", "--method", "heuristic", "--cond", "tgt+intf"],
    ["features", "--cond", "tgt+intf"],
    ["separate", "--method", "das"],
], ids=["perturb", "heuristic", "features", "das"])
def test_no_multichannel_spectrogram_outlives_the_spatial_analysis(dataset, tmp_path,
                                                                   monkeypatch, argv):
    # The spatial stages plan their DPR directions and das its beams before
    # the loop, and the spatial analysis reads the spectrogram block by
    # block, so no block of it is alive at any write: what the estimates and
    # feature stacks read is the pair phasors, the premask, the planned DPR
    # maps, the planned beams and the reference row. Each transform's array
    # is tracked, which a view of any channel keeps alive too.
    out, manifest = dataset
    specs, alive_at_write = [], []
    stft = spatial_features.rfft_frames

    def tracked(waveform, cfg):
        spectra = stft(waveform, cfg)
        specs.append(weakref.ref(spectra))
        return spectra

    def checked(write):
        def call(path, *args):
            alive_at_write.append(any(ref() is not None for ref in specs))
            return write(path, *args)
        return call

    monkeypatch.setattr(spatial_features, "rfft_frames", tracked)
    monkeypatch.setattr(pipeline, "write_wav", checked(pipeline.write_wav))
    monkeypatch.setattr(pipeline, "write_features", checked(pipeline.write_features))
    assert main([*argv, "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(specs) >= len(manifest.utterances)
    assert alive_at_write and set(alive_at_write) == {False}


@pytest.mark.parametrize("cond", ["tgt", "tgt+intf"])
def test_sweep_reports_equal_evaluate_of_each_run(dataset, tmp_path, cond):
    # The in-task scores are those of reading every estimate back: each
    # run's sweep report equals what evaluate writes for its directory.
    out, manifest = dataset
    sweep_dir = tmp_path / "sweep"
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out",
                 str(sweep_dir), "--direction-error-deg", "0,3,10", "--cond", cond]) == 0
    sweep = json.loads((sweep_dir / "sweep.json").read_text())
    for variant, rows in sweep["variants"].items():
        for row in rows:
            est = sweep_dir / variant / f"err{int(row['error_deg']):02d}"
            report = tmp_path / f"{variant}_{est.name}"
            assert main(["evaluate", "--manifest", str(out / "manifest.json"),
                         "--estimates", str(est), "--out", str(report),
                         "--method", f"heuristic/{variant}"]) == 0
            assert json.loads(report.with_suffix(".json").read_text()) == row["report"]


def test_cached_dpr_matches_grid_dpr(dataset):
    # The analysis takes DPR from one beam and the closed-form grid total;
    # the definition sums all P beams. They agree to rounding in every direction.
    out, manifest = dataset
    cfg = pipeline.PipelineConfig.default(manifest.sample_rate, manifest.array)
    entry = manifest.utterances[0]
    analysis = pipeline.UtteranceAnalysis(entry, manifest, cfg, cfg.grid.azimuths)
    spec = spectral.rfft_frames(manifest.read(entry.mixture), cfg.stft_cfg)
    bank = das_filterbank(cfg.array, cfg.grid, cfg.stft_cfg)
    for p, azimuth in enumerate(cfg.grid.azimuths):
        npt.assert_allclose(analysis.spatial.dpr(azimuth),
                            oracles.grid_dpr(spec, bank, p, DPR_POWER_FLOOR),
                            rtol=1e-12, atol=0)


def _run_every_path(manifest, out) -> None:
    m = str(manifest)
    for argv in (["features", "--features", "lps,cosipd,sinipd,af,dpr", "--cond", "tgt+intf"],
                 *(["separate", "--method", method, "--cond", "tgt+intf"]
                   for method in pipeline.METHODS),
                 ["perturb", "--direction-error-deg", "0,4"]):
        assert main([*argv, "--manifest", m, "--out", str(out / "-".join(argv))]) == 0, argv


def test_run_paths_build_no_kernels(dataset, tmp_path, monkeypatch):
    # The analysis kernels are the paper's reference form; every run path
    # transforms straight from the configs and never builds them.
    out, _ = dataset
    original = spectral.build_kernel

    def refuse(cfg):
        raise AssertionError("a run path built analysis kernels")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ssk"]:
        if getattr(module, "build_kernel", None) is original:
            monkeypatch.setattr(module, "build_kernel", refuse)
    _run_every_path(out / "manifest.json", tmp_path)


def test_run_paths_take_no_phase_angle(dataset, tmp_path, monkeypatch):
    # IPD phasors and the IPSM come from cross-spectra; no run path takes
    # the phase angle of a spectrum.
    out, _ = dataset

    def refuse(*args, **kwargs):
        raise AssertionError("a run path took a phase angle")

    monkeypatch.setattr(np, "angle", refuse)
    _run_every_path(out / "manifest.json", tmp_path)


class TestManifestDecides:
    def test_geometry_and_rate_come_from_the_manifest(self, tmp_path):
        # Every analysis stage takes the array and sample rate from the
        # manifest alone: on an 8 kHz, 4-mic, 0.1 m set each CLI tree equals
        # the API's given only the manifest.
        out = tmp_path / "data"
        manifest = simulate(out, seed=4, n=1, duration=0.5,
                            extra=["--array-diameter", "0.1", "--num-mics", "4",
                                   "--sample-rate", "8000"])
        npt.assert_array_equal(manifest.array.positions, circular_array(4, 0.1).positions)
        assert manifest.sample_rate == 8000

        def run(dest, method, cond="tgt"):
            return pipeline.separate_dataset(manifest, [pipeline.Run(dest, 0.0, 1.0, 1.0)],
                                             method, cond=cond, error_seed=0, jobs=1)

        estimates = tmp_path / "estimates"
        run(estimates, "das")

        stages = {
            ("features", "--cond", "tgt+intf"): lambda dest: pipeline.build_features(
                manifest, dest, frozenset({"lps", "cosipd", "af", "dpr"}), cond="tgt+intf",
                jobs=1),
            ("separate", "--method", "ibm"): lambda dest: run(dest, "ibm"),
            ("separate", "--method", "das"): lambda dest: run(dest, "das"),
            ("separate", "--method", "heuristic", "--cond", "tgt+intf"):
                lambda dest: run(dest, "heuristic", "tgt+intf"),
            ("perturb", "--direction-error-deg", "0,3"): lambda dest: pipeline.perturb_sweep(
                manifest, dest, [0.0, 3.0], 0, cond="tgt", jobs=1),
            ("evaluate", "--estimates", str(estimates), "--method", "das"):
                lambda dest: evaluation.evaluate_dataset(manifest, estimates, dest, method="das"),
        }
        # Each --out is "out" in a directory of its own, since evaluate's is
        # the prefix of its report files.
        for k, (argv, api) in enumerate(stages.items()):
            assert main([*argv, "--manifest", str(out / "manifest.json"),
                         "--out", str(tmp_path / f"cli{k}" / "out")]) == 0, argv
            api(tmp_path / f"api{k}" / "out")
            assert tree_hash(tmp_path / f"cli{k}") == tree_hash(tmp_path / f"api{k}"), argv
        # Four mics make three pairs of 33 bins in the IPD block.
        layout = dict(read_features(tmp_path / "cli0" / "out" / "utt_00000_tgt0.tsnf").layout)
        assert layout["cosipd"] == 3 * 33

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("array"),
        lambda doc: doc["array"].pop("positions"),
        lambda doc: doc["array"].update(positions=[[0.0, 0.0]] * 6),
        lambda doc: doc["array"].update(ref_index=9),
        lambda doc: doc["array"].update(ref_index=0.5),
        lambda doc: doc["array"].update(num_mics=4),
    ], ids=["no-array", "no-positions", "2-d-positions", "ref-index-out-of-range",
            "fractional-ref-index", "num-mics-mismatch"])
    def test_missing_or_malformed_array_exits_1(self, dataset, edit, capsys):
        out, _ = dataset
        doc = json.loads((out / "manifest.json").read_text())
        edit(doc)
        bad = out / "bad_array.json"
        bad.write_text(json.dumps(doc))
        try:
            rc = main(["separate", "--manifest", str(bad), "--out", str(out / "never"),
                       "--method", "das"])
        finally:
            bad.unlink()
        assert rc == 1
        assert "manifest array is missing or malformed" in capsys.readouterr().err
        assert not (out / "never").exists()

    @pytest.mark.parametrize("edit, field, where", [
        (lambda doc: doc["utterances"][1].pop("t60"), "t60", "utterance 'utt_00001'"),
        (lambda doc: doc.pop("sample_rate"), "sample_rate", "manifest"),
        (lambda doc: doc["utterances"][0]["sources"][1].update(image=3), "image",
         "source 1 of utterance 'utt_00000'"),
        (lambda doc: doc["utterances"][1].update(room_dimensions=[5.0, 6.0]),
         "room_dimensions", "utterance 'utt_00001'"),
        # Outputs are named after the id: a repeated one would overwrite the
        # other utterance's outputs, a path-like one write outside --out.
        (lambda doc: doc["utterances"][1].update(id="utt_00000"), "id", "utterance 'utt_00000'"),
        (lambda doc: doc["utterances"][1].update(id="../escaped"), "id",
         "utterance '../escaped'"),
    ], ids=["no-t60", "no-sample-rate", "numeric-image", "2-d-room", "repeated-id",
            "path-like-id"])
    def test_missing_or_mistyped_field_exits_1(self, dataset, tmp_path, edit, field, where,
                                               capsys):
        out, _ = dataset
        doc = json.loads((out / "manifest.json").read_text())
        edit(doc)
        bad = out / "bad_fields.json"
        bad.write_text(json.dumps(doc))
        try:
            rc = main(["separate", "--manifest", str(bad), "--out", str(tmp_path / "never"),
                       "--method", "das"])
        finally:
            bad.unlink()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field) in err and where in err
        assert not (tmp_path / "never").exists()

    def test_evaluate_scores_at_the_manifest_reference_mic(self, dataset, tmp_path):
        out, _ = dataset
        data = tmp_path / "data"
        shutil.copytree(out, data)
        doc = json.loads((data / "manifest.json").read_text())
        doc["array"]["ref_index"] = 1
        (data / "manifest.json").write_text(json.dumps(doc))
        manifest = read_manifest(data / "manifest.json")
        est_dir = tmp_path / "refs"
        est_dir.mkdir()
        expected = []
        for u in manifest.utterances:
            mix, _ = read_wav(data / u.mixture)
            for t, s in enumerate(u.sources):
                img, _ = read_wav(data / s.image)
                write_wav(est_dir / f"{u.id}_tgt{t}.wav", img[1], 16000)
                expected.append(SI_SDR_CAP_DB - si_sdr(mix[1], img[1]))
        rc = main(["evaluate", "--manifest", str(data / "manifest.json"),
                   "--estimates", str(est_dir), "--out", str(tmp_path / "rep")])
        assert rc == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        npt.assert_allclose(doc["overall"]["mean_si_sdri"], np.mean(expected), atol=1e-6)

    def test_mixture_with_more_channels_than_the_array_rejected(self, dataset, tmp_path,
                                                                 capsys):
        out, _ = dataset
        data = tmp_path / "data"
        shutil.copytree(out, data)
        doc = json.loads((data / "manifest.json").read_text())
        eight = doc["utterances"][0]["mixture"]
        write_wav(data / eight, np.random.default_rng(0).standard_normal((8, 12800)), 16000)
        rc = main(["features", "--manifest", str(data / "manifest.json"),
                   "--out", str(tmp_path / "feat"), "--features", "lps,cosipd"])
        assert rc == 1
        err = capsys.readouterr().err
        assert Path(eight).name in err and "8 channels" in err

    @pytest.mark.parametrize("argv, where, channels", [
        (["separate", "--method", "ibm"], "image", 4),
        (["perturb", "--direction-error-deg", "0"], "image", 4),
        (["evaluate"], "image", 4),
        (["evaluate"], "mixture", 8),
    ], ids=["ibm-image", "perturb-image", "evaluate-image", "evaluate-mixture"])
    def test_wrong_channel_count_fails_its_utterance(self, dataset, tmp_path, capsys, argv,
                                                     where, channels):
        # Every stage reads a mixture or image, whole or only its reference
        # row, through the manifest, which checks one channel per microphone.
        out, manifest = dataset
        data = tmp_path / "data"
        shutil.copytree(out, data)
        m = str(data / "manifest.json")
        if argv[0] == "evaluate":
            assert main(["separate", "--manifest", m, "--out", str(tmp_path / "est"),
                         "--method", "das"]) == 0
            argv = ["evaluate", "--estimates", str(tmp_path / "est")]
        entry = manifest.utterances[1]
        relative = entry.sources[1].image if where == "image" else entry.mixture
        wav, rate = read_wav(data / relative)
        write_wav(data / relative, np.resize(wav, (channels, wav.shape[1])), rate)
        assert main([*argv, "--manifest", m, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"1 of 2 failed: {entry.id}: " in err
        assert (f"{Path(relative).name}: {channels} channels, the manifest array has "
                f"{manifest.array.num_mics} microphones") in err
