import contextlib
import hashlib
import io
import json
import os
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
from ssk import evaluation, pipeline, simulation, spatial_features, spectral
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


# Modules a stage that does not run them must not load, at --jobs 1.
_SIMULATION = {"ssk.room_sim", "ssk.synth", "concurrent.futures"}
_ANALYSIS = {"ssk.separation", "ssk.spatial_features", "ssk.spectral", "concurrent.futures"}


@pytest.mark.parametrize("argv, stage, unloaded", [
    (["simulate", "--num-scenes", "1", "--duration", "0.3", "--jobs", "1"], "simulation",
     _ANALYSIS),
    (["features", "--cond", "tgt+intf", "--jobs", "1"], "pipeline", _SIMULATION),
    (["separate", "--method", "heuristic", "--jobs", "1"], "pipeline", _SIMULATION),
    (["perturb", "--direction-error-deg", "0,4", "--jobs", "1"], "pipeline", _SIMULATION),
    (["evaluate", "--estimates"], "evaluation", _SIMULATION | _ANALYSIS | {"ssk.pipeline"}),
], ids=["simulate", "features", "separate", "perturb", "evaluate"])
def test_each_stage_loads_only_its_modules(dataset, tmp_path, argv, stage, unloaded):
    # In a fresh interpreter, each subcommand imports the modules it runs
    # and none of another stage's.
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
    (["perturb", "--direction-error-deg", "0,inf"], "--direction-error-deg"),
    (["perturb", "--direction-error-deg", "nan"], "--direction-error-deg"),
    (["separate", "--method", "heuristic", "--alpha", "nan"], "--alpha"),
    (["separate", "--method", "heuristic", "--direction-error-deg", "nan"],
     "--direction-error-deg"),
    (["simulate", "--jobs", "0"], "--jobs"),
    (["features", "--jobs", "-4"], "--jobs"),
    (["separate", "--method", "das", "--jobs", "0"], "--jobs"),
    (["perturb", "--jobs", "-4"], "--jobs"),
    (["simulate", "--num-scenes", "-2"], "--num-scenes"),
    (["simulate", "--sample-rate", "0", "--num-scenes", "1"], "--sample-rate"),
    (["simulate", "--num-mics", "0"], "--num-mics"),
    (["features", "--fft-size", "0"], "--fft-size"),
    (["separate", "--method", "das", "--win-len", "-40"], "--win-len"),
    (["perturb", "--hop", "0"], "--hop"),
], ids=["duration-inf", "error-list-inf", "error-list-nan", "alpha-nan", "error-nan",
        "simulate-jobs-0", "features-jobs-negative", "separate-jobs-0",
        "perturb-jobs-negative", "num-scenes-negative", "sample-rate-0", "num-mics-0",
        "fft-size-0", "win-len-negative", "hop-0"])
def test_non_finite_float_flag_usage_error(dataset, tmp_path, capsys, argv, flag):
    # Every float flag, and each item of perturb's error list, must be
    # finite, --jobs and the other size flags at least 1 and --num-scenes at
    # least 0: a usage error names the flag before any output is made.
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
        simulate(tmp_path / "j1", seed=11, n=3, duration=0.5)
        simulate(tmp_path / "j2", seed=11, n=3, duration=0.5,
                 extra=["--jobs", "3"])
        assert tree_hash(tmp_path / "j1") == tree_hash(tmp_path / "j2")

    def test_source_at_other_rate_rejected(self, tmp_path, capsys):
        pool = tmp_path / "pool"
        pool.mkdir()
        write_wav(pool / "a.wav", np.random.default_rng(0).standard_normal(8000), 8000)
        rc = main(["simulate", "--out", str(tmp_path / "d"), "--num-scenes", "1",
                   "--source-dir", str(pool)])
        assert rc == 1
        assert "sample rate 8000 Hz, expected 16000 Hz" in capsys.readouterr().err

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
        simulate(out, seed=5, n=1, duration=0.4, extra=["--synth-kind", kind])
        read_manifest(out / "manifest.json", validate_files=True)
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
                                             ("--hop", "13"), ("--grid-step", "5")])
    def test_analysis_flags_usage_error(self, tmp_path, flag, value, capsys):
        # simulate analyses nothing; the STFT and grid flags belong to the
        # stages that read a dataset, and only those accept them.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path / "x"), "--num-scenes", "1", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        for command in (["features"], ["separate", "--method", "das"], ["perturb"]):
            build_parser().parse_args([*command, "--manifest", "m", "--out", "o", flag, value])


class TestFeatures:
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

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.sampled_from(pipeline.FEATURE_BLOCKS), min_size=1),
           st.sampled_from(pipeline.CONDS))
    def test_layout_follows_the_block_order(self, dataset, blocks, cond):
        # Blocks stack in FEATURE_BLOCKS order: LPS is F wide, each IPD block
        # U*F, AF and DPR F per direction (the target, then the interferer).
        _, manifest = dataset
        cfg = pipeline.PipelineConfig.default()
        analysis = pipeline.UtteranceAnalysis(manifest.utterances[0], manifest, cfg)
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
        assert stack.data.shape == (analysis.spec.num_frames, sum(w for _, w in expected))


@pytest.mark.parametrize("stage", ["features", "separate"])
def test_unknown_cond_raises_and_writes_nothing(dataset, tmp_path, stage):
    _, manifest = dataset
    cfg = pipeline.PipelineConfig.default()
    dest = tmp_path / "out"
    with pytest.raises(ValueError, match="cond"):
        if stage == "features":
            pipeline.build_features(manifest, dest, cfg, frozenset(pipeline.FEATURE_BLOCKS),
                                    "intf")
        else:
            pipeline.separate_dataset(manifest, [pipeline.Run(dest, 0.0, 1.0, 1.0)],
                                      "heuristic", cfg, cond="intf")
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
        sidecar = json.loads((tmp_path / "est" / f"{u.id}_tgt0.json").read_text())
        assert sidecar["method"] == "ipsm"

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

CORRUPTIONS = ("not-riff", "channels", "nan", "-inf")
BATCH_STAGES = {
    "features": ["features", "--features", "lps,cosipd,af,dpr"],
    "separate": ["separate", "--method", "heuristic"],
    "perturb": ["perturb", "--direction-error-deg", "0,5"],
}


def tree_files(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def corrupt(path, kind, where):
    """Spoil one WAV: not RIFF, one channel short, or one float sample made
    non-finite (``where`` picks it)."""
    if kind == "not-riff":
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
                    and rel.name not in ("sweep.json", "sweep.csv")}
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


@pytest.mark.parametrize("stage", ["features", "separate", "perturb"])
def test_a_failed_utterance_leaves_none_of_its_files(tmp_path, monkeypatch, capsys, stage):
    # An utterance that fails after its first target has written its files
    # removes them: a corrupt second source image under perturb, or a
    # feature file or sidecar that cannot be written.
    manifest = simulate(tmp_path / "data", seed=7, n=2, speakers=2, duration=0.4)
    if stage == "perturb":
        (tmp_path / "data" / manifest.utterances[1].sources[1].image).write_bytes(b"garbage")
        argv = ["perturb", "--direction-error-deg", "0"]
    elif stage == "features":
        monkeypatch.setattr(pipeline, "write_features",
                            _fail_on(pipeline, "write_features", "utt_00001_tgt1"))
        argv = ["features"]
    else:
        monkeypatch.setattr(pipeline, "write_json",
                            _fail_on(pipeline, "write_json", "utt_00001_tgt1"))
        argv = ["separate", "--method", "heuristic"]
    out = tmp_path / "out"
    assert main([*argv, "--manifest", str(tmp_path / "data" / "manifest.json"),
                 "--out", str(out)]) == 1
    assert "1 of 2 failed: utt_00001: " in capsys.readouterr().err
    names = {p.name for p in out.rglob("*") if p.is_file()}
    assert names and not {n for n in names if n.startswith("utt_00001_")}
    assert {n for n in names if n.startswith("utt_00000_tgt1")}


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
    monkeypatch.setattr(evaluation, "_read", _bug)
    with pytest.raises(TypeError, match="a bug"):
        main(["evaluate", "--manifest", str(dataset[0] / "manifest.json"),
              "--estimates", str(tmp_path), "--out", str(tmp_path / "rep")])


def test_one_analysis_per_utterance(dataset, tmp_path, monkeypatch):
    # Every target, method and run of an utterance shares one analysis: one
    # STFT of each of the J mixture channels, or for the oracle masks one of
    # the reference-channel mixture and of each source image. A transform of
    # a (J, n) waveform counts as J channel STFTs.
    out, manifest = dataset
    analyses, stfts = [], []
    multichannel = pipeline.multichannel_stft
    monkeypatch.setattr(pipeline, "multichannel_stft",
                        lambda *a, **k: analyses.append(1) or multichannel(*a, **k))
    original = spectral.rfft_frames

    def counted(waveform, cfg):
        stfts.extend([1] * int(np.prod(np.shape(waveform)[:-1])))
        return original(waveform, cfg)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ssk"]:
        if getattr(module, "rfft_frames", None) is original:
            monkeypatch.setattr(module, "rfft_frames", counted)
    m = str(out / "manifest.json")
    mics = manifest.array.num_mics
    for argv, per_utterance, multichannel_calls in (
            (["features", "--cond", "tgt+intf"], lambda u: mics, 1),
            (["separate", "--method", "heuristic", "--cond", "tgt+intf"], lambda u: mics, 1),
            (["separate", "--method", "das"], lambda u: mics, 1),
            (["separate", "--method", "ibm"], lambda u: 1 + len(u.sources), 0),
            (["separate", "--method", "irm"], lambda u: 1 + len(u.sources), 0),
            (["separate", "--method", "ipsm"], lambda u: 1 + len(u.sources), 0),
            (["perturb", "--direction-error-deg", "0,4"], lambda u: mics, 1)):
        analyses.clear()
        stfts.clear()
        assert main([*argv, "--manifest", m, "--out", str(tmp_path / "-".join(argv))]) == 0
        assert len(analyses) == multichannel_calls * len(manifest.utterances), argv
        assert len(stfts) == sum(per_utterance(u) for u in manifest.utterances), argv


def test_sweep_computes_each_af_and_dpr_once(dataset, tmp_path, monkeypatch):
    # The af and af_dpr variants steer alike, and small errors often keep the
    # grid direction: each (utterance, azimuth) AF, each (utterance, grid
    # index) beam and each utterance's grid total is computed exactly once.
    out, manifest = dataset
    afs, beams, totals = [], [], []
    af, dpr, total = (spatial_features.angle_feature, spatial_features.dpr,
                      spatial_features.beam_power_total)
    monkeypatch.setattr(spatial_features, "angle_feature", lambda cos_ipd, sin_ipd, steer, keep:
                        afs.append((cos_ipd, steer)) or af(cos_ipd, sin_ipd, steer, keep))
    monkeypatch.setattr(spatial_features, "dpr", lambda spec, weights, grid_total, n:
                        beams.append((spec, weights.tobytes()))
                        or dpr(spec, weights, grid_total, n))
    monkeypatch.setattr(spatial_features, "beam_power_total", lambda spec, weights:
                        totals.append(spec) or total(spec, weights))
    sweep = tmp_path / "sweep"
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out", str(sweep),
                 "--direction-error-deg", "0,4"]) == 0
    used = {}
    for sidecar in sweep.rglob("*.json"):
        if sidecar.name != "sweep.json":
            doc = json.loads(sidecar.read_text())
            used.setdefault(doc["utterance"], set()).add(doc["azimuth_used_deg"])
    grid = pipeline.PipelineConfig.default().grid
    assert len(used) == len(manifest.utterances) == len(totals) == len(set(map(id, totals)))
    # The recorded arrays stay referenced, so their ids identify them.
    assert len({(id(cos_ipd), steer.tobytes()) for cos_ipd, steer in afs}) == len(afs)
    assert len(afs) == sum(map(len, used.values()))
    assert len({(id(spec), weights) for spec, weights in beams}) == len(beams)
    assert len(beams) == sum(len({spatial_features.nearest_direction(grid, az) for az in azimuths})
                             for azimuths in used.values())


def test_sweep_reads_each_file_once_per_pass(dataset, tmp_path, monkeypatch):
    # The sweep scores each estimate as it separates it: each mixture and
    # each reference image is read once for all runs, and no estimate is
    # read back.
    out, manifest = dataset
    reads = []
    read = pipeline.read_wav
    monkeypatch.setattr(pipeline, "read_wav",
                        lambda path, **k: reads.append(Path(path).name) or read(path, **k))
    assert main(["perturb", "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "sweep"), "--direction-error-deg", "0,4"]) == 0
    expected = [Path(u.mixture).name for u in manifest.utterances] + [
        Path(src.image).name for u in manifest.utterances for src in u.sources]
    assert sorted(reads) == sorted(expected)


@pytest.mark.parametrize("errors", ["0,5,10", "0,1,2,3,4,5,6,7,8,9,10"])
def test_sweep_holds_at_most_one_perturbed_af_map(dataset, tmp_path, monkeypatch, errors):
    # However many error points the sweep has, an analysis holds the AF maps
    # of its S source azimuths and of the one perturbed azimuth in use, so
    # at most S + 1 maps are alive whenever a new one has just been computed.
    out, manifest = dataset
    sources = {len(u.sources) for u in manifest.utterances}
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
    assert most and max(most.values()) <= max(sources) + 1


def test_sweep_holds_the_dpr_maps_of_its_sources_and_one_other(dataset, tmp_path,
                                                                monkeypatch):
    # Errors of 0 to 180 degrees steer each target at up to 19 grid
    # directions; an analysis keeps the DPR maps of the G grid directions of
    # its sources and of the latest other one, so at most G + 1 are alive.
    out, manifest = dataset
    grid = pipeline.PipelineConfig.default().grid
    pinned = max(len({spatial_features.nearest_direction(grid, s.azimuth_deg)
                      for s in u.sources}) for u in manifest.utterances)
    live: dict[int, list] = {}
    most: dict[int, int] = {}
    dpr = spatial_features.dpr

    def tracked(spec, weights, total, num_directions):
        result = dpr(spec, weights, total, num_directions)
        refs = live.setdefault(id(spec), [])
        refs.append(weakref.ref(result))
        most[id(spec)] = max(most.get(id(spec), 0), sum(r() is not None for r in refs))
        return result

    monkeypatch.setattr(spatial_features, "dpr", tracked)
    errors = ",".join(str(e) for e in range(0, 181, 10))
    assert main(["perturb", "--manifest", str(out / "manifest.json"), "--out",
                 str(tmp_path / "sweep"), "--direction-error-deg", errors]) == 0
    assert sum(map(len, live.values())) > len(manifest.utterances) * (pinned + 1)
    assert max(most.values()) <= pinned + 1


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
    read, score, write = pipeline.read_wav, pipeline.si_sdr, pipeline.write_wav

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

    monkeypatch.setattr(pipeline, "read_wav", tracked_read)
    monkeypatch.setattr(pipeline, "si_sdr", checked_score)
    monkeypatch.setattr(evaluation, "si_sdr", checked_score)
    monkeypatch.setattr(pipeline, "write_wav", checked_write)
    assert main([*argv, "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(wide) >= len(manifest.utterances)


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
    cfg = pipeline.PipelineConfig.default()
    analysis = pipeline.UtteranceAnalysis(manifest.utterances[0], manifest, cfg)
    bank = das_filterbank(cfg.array, cfg.grid, cfg.stft_cfg)
    for p, azimuth in enumerate(cfg.grid.azimuths):
        npt.assert_allclose(analysis.spatial.dpr(azimuth),
                            oracles.grid_dpr(analysis.spec.data, bank, p,
                                             DPR_POWER_FLOOR),
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
        out = tmp_path / "data"
        manifest = simulate(out, seed=4, n=1, duration=0.5,
                            extra=["--array-diameter", "0.1", "--num-mics", "4",
                                   "--sample-rate", "8000"])
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "feat"), "--cond", "tgt+intf"])
        assert rc == 0
        expected = pipeline.PipelineConfig.default(sample_rate=8000,
                                                   array=circular_array(4, 0.1))
        pipeline.build_features(manifest, tmp_path / "ref", expected,
                                frozenset({"lps", "cosipd", "af", "dpr"}), "tgt+intf")
        assert tree_hash(tmp_path / "feat") == tree_hash(tmp_path / "ref")

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
    ], ids=["no-t60", "no-sample-rate", "numeric-image", "2-d-room"])
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
