import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ssk
from ssk import pipeline
from ssk.cli import main
from ssk.dataset_io import read_features, read_manifest, read_wav, write_wav
from ssk.metrics import SI_SDR_CAP_DB, si_sdr, si_sdri


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

    def test_histogram_printed(self, tmp_path, capsys):
        simulate(tmp_path / "h", seed=1, n=2)
        out = capsys.readouterr().out
        assert "angle-difference bins" in out


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

    def test_unknown_feature_name(self, dataset, tmp_path):
        out, _ = dataset
        rc = main(["features", "--manifest", str(out / "manifest.json"),
                   "--out", str(tmp_path / "f4"), "--features", "mel"])
        assert rc == 1


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
                   "--out", str(tmp_path / "est"), "--method", "das",
                   "--num-mics", "1"])
        assert rc == 0
        u = manifest.utterances[0]
        est, _ = read_wav(tmp_path / "est" / f"{u.id}_tgt0.wav")
        mix, _ = read_wav(out / u.mixture)
        lo, hi = 40, est.shape[1] - 80
        err = np.linalg.norm(est[0, lo:hi] - mix[0, lo:hi]) / np.linalg.norm(mix[0, lo:hi])
        assert err < 1e-6

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

    def test_sweep_deterministic(self, dataset, tmp_path):
        out, _ = dataset
        args = ["perturb", "--manifest", str(out / "manifest.json"),
                "--direction-error-deg", "0,4", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "s1")])
        main(args + ["--out", str(tmp_path / "s2")])
        assert tree_hash(tmp_path / "s1") == tree_hash(tmp_path / "s2")


def test_one_analysis_per_utterance(dataset, tmp_path, monkeypatch):
    # Every target and run of an utterance shares one spectrogram.
    out, manifest = dataset
    calls = []
    stft = pipeline.multichannel_stft
    monkeypatch.setattr(pipeline, "multichannel_stft",
                        lambda *a, **k: calls.append(1) or stft(*a, **k))
    m = str(out / "manifest.json")
    for argv in (["features", "--cond", "tgt+intf"],
                 ["separate", "--method", "heuristic", "--cond", "tgt+intf"],
                 ["perturb", "--direction-error-deg", "0,4"]):
        calls.clear()
        assert main([*argv, "--manifest", m, "--out", str(tmp_path / argv[0])]) == 0
        assert len(calls) == len(manifest.utterances), argv[0]


def test_sweep_reads_each_file_once_per_pass(dataset, tmp_path, monkeypatch):
    # Separation reads each mixture; scoring reads it again, each reference
    # image once for all runs, and every run's estimate.
    out, manifest = dataset
    reads = []
    read = pipeline.read_wav
    monkeypatch.setattr(pipeline, "read_wav",
                        lambda path, **k: reads.append(Path(path).name) or read(path, **k))
    assert main(["perturb", "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "sweep"), "--direction-error-deg", "0,4"]) == 0
    runs = 2 * 2
    expected = sum(2 + len(u.sources) * (1 + runs) for u in manifest.utterances)
    assert len(reads) == expected
    for u in manifest.utterances:
        assert reads.count(Path(u.mixture).name) == 2
        for src in u.sources:
            assert reads.count(Path(src.image).name) == 1


def test_cached_dpr_total_is_bit_identical(dataset):
    out, manifest = dataset
    cfg = pipeline.PipelineConfig.default()
    analysis = pipeline.UtteranceAnalysis(manifest.utterances[0], manifest, cfg)
    for p, azimuth in enumerate(cfg.grid.azimuths):
        npt.assert_array_equal(analysis.dpr(azimuth),
                               pipeline.dpr_from_powers(analysis.beam_powers, p))
    assert "beam_total" in vars(analysis)
