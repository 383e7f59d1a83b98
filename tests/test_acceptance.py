"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is deterministic and finishes in a few minutes.
"""

import struct
import time
from pathlib import Path

import numpy as np
import pytest

from ssk import synth
from ssk.cli import main as cli_main
from ssk.dataset_io import read_features
from ssk.geometry import circular_array, tdoa
from ssk.metrics import si_sdr, si_sdri
from ssk.pipeline import PipelineConfig, perturb_sweep, simulate_dataset
from ssk.room_sim import RoomConfig, calibrated_reflection_coefficient, estimate_t60, \
    render_mixture, sample_scene, simulate_rir
from ssk.separation import apply_mask, oracle_mask
from ssk.spatial_features import SpatialAnalysis, nearest_direction
from ssk.spectral import ComplexSpectrogram, istft, stft

from conftest import whole_analysis
from oracles import ARRAY_RADIUS, FS, naive_stft, xcorr_peak_lag
from test_cli import tree_hash


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[C{num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig.default(FS, circular_array(6, 0.07))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_small")
    cli_main(["simulate", "--out", str(out), "--seed", "7", "--num-scenes", "2",
              "--num-speakers", "2", "--duration", "0.8"])
    return out


def _anechoic_scene(seed, azimuths, duration=0.8):
    rng = np.random.default_rng(seed)
    array = circular_array(6, 0.07)
    room, az = sample_scene(rng, len(azimuths), FS, ARRAY_RADIUS,
                            azimuths=azimuths, t60_range=(0.0, 0.0))
    dry = [synth.speech_like(rng, duration, FS) for _ in azimuths]
    return render_mixture(dry, room, array, mixing_gains_db=[0.0] * len(azimuths)), az, array


def _grid_dpr(spatial: SpatialAnalysis) -> np.ndarray:
    """DPR toward every grid direction, (P, T, F), one run-path call each."""
    return np.stack([spatial.dpr(az) for az in spatial.grid.azimuths])


def test_c01_stft_equivalence(cfg):
    kernel = cfg.stft_cfg
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(FS)
        ours = np.abs(stft(x, kernel).data)
        ref = np.abs(naive_stft(x, cfg.stft_cfg.window, cfg.stft_cfg.fft_size,
                                cfg.stft_cfg.hop))
        rel = np.abs(ours - ref) / (ref + 1e-12)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    report(1, "STFT equals brute-force windowed zero-padded DFT",
           worst < 1e-6 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s for 100 signals")


def test_c02_istft_round_trip(cfg):
    kernel = cfg.stft_cfg
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(FS)
        y = istft(stft(x, kernel))
        lo, hi = cfg.stft_cfg.win_len, y.size - cfg.stft_cfg.win_len
        err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
        worst = max(worst, float(err))
    report(2, "ISTFT interior round trip at 40/20/64", worst < 1e-6,
           f"max rel err {worst:.2e}")


def test_c03_dpr_normalization(cfg):
    rng = np.random.default_rng(303)
    data = rng.standard_normal((6, 40, 33)) + 1j * rng.standard_normal((6, 40, 33))
    spec = ComplexSpectrogram(data=data, config=cfg.stft_cfg)
    sums = _grid_dpr(whole_analysis(spec, cfg.array, cfg.pairs, cfg.grid,
                                    cfg.grid.azimuths)).sum(axis=0)
    sum_err = float(np.abs(sums - 1.0).max())
    silent = ComplexSpectrogram(data=np.zeros((6, 4, 33), dtype=complex),
                                config=cfg.stft_cfg)
    silent_vals = _grid_dpr(whole_analysis(silent, cfg.array, cfg.pairs, cfg.grid,
                                            cfg.grid.azimuths))
    silent_exact = bool((silent_vals == 1.0 / 36.0).all())
    report(3, "DPR sums to one; silent bins exactly 1/P",
           sum_err < 1e-6 and silent_vals.size > 0 and silent_exact,
           f"{sums.size} bins, max |sum-1| {sum_err:.2e}")


def test_c04_si_sdr_invariances():
    rng = np.random.default_rng(404)
    ref = rng.standard_normal(8000)
    est = ref + 0.3 * rng.standard_normal(8000)
    scale_err = abs(si_sdr(2.5 * est, ref) - si_sdr(est, ref))
    dc_err = max(abs(si_sdr(est + 7.0, ref) - si_sdr(est, ref)),
                 abs(si_sdr(est, ref + 7.0) - si_sdr(est, ref)))
    mix = ref + rng.standard_normal(8000)
    mix_zero = si_sdri(mix, ref, mix)
    report(4, "SI-SDR scale/DC invariance and si_sdri(mixture)=0",
           scale_err < 1e-9 and dc_err < 1e-9 and mix_zero == 0.0,
           f"scale {scale_err:.1e} dB, dc {dc_err:.1e} dB, mix {mix_zero}")


def test_c05_geometry_consistency():
    array = circular_array(6, 0.07)
    failures = 0
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        room, az = sample_scene(rng, 1, FS, ARRAY_RADIUS, t60_range=(0.0, 0.0))
        dry = [synth.noise_burst(rng, 0.3, FS)]
        scene = render_mixture(dry, room, array)
        delays = tdoa(array, az[0]) * FS
        ref = scene.images[0][0]
        for j in range(1, 6):
            lag = xcorr_peak_lag(ref, scene.images[0][j], max_lag=8)
            if abs(lag - delays[j]) > 1.0:
                failures += 1
    report(5, "cross-correlation TDOA matches geometry within 1 sample",
           failures == 0, f"{failures} failures over 50 scenes x 5 mics")


def test_c06_rir_fidelity():
    c = 343.0
    arrival_ok = True
    for seed in range(12):
        rng = np.random.default_rng(6000 + seed)
        room, _ = sample_scene(rng, 1, FS, ARRAY_RADIUS, t60_range=(0.0, 0.0))
        mic = room.array_center + np.array([0.02, -0.015, 0.0])
        h = simulate_rir(room, 0, mic, calibrated_reflection_coefficient(room))
        d = float(np.linalg.norm(room.source_positions[0] - mic))
        if abs(int(np.argmax(np.abs(h))) - round(d / c * FS)) > 1:
            arrival_ok = False
    t60_errs = []
    for t60 in (0.15, 0.3, 0.5):
        room = RoomConfig(dimensions=[5, 6, 3], t60=t60, array_center=[2.5, 3, 1.5],
                          source_positions=[[1.5, 2.0, 1.5]], sample_rate=FS)
        h = simulate_rir(room, 0, [2.6, 3.1, 1.5], calibrated_reflection_coefficient(room))
        t60_errs.append(abs(estimate_t60(h, FS) - t60) / t60)
    report(6, "direct path within 1 sample; Schroeder T60 within 25%",
           arrival_ok and max(t60_errs) < 0.25,
           "t60 rel errs " + ", ".join(f"{e:.2f}" for e in t60_errs))


def test_c07_af_discrimination(cfg):
    kernel = cfg.stft_cfg
    true_means, off_means = [], []
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        azimuth = float(rng.uniform(0.0, 360.0))
        scene, az, array = _anechoic_scene(7000 + seed, [azimuth], duration=0.6)
        spatial = SpatialAnalysis.of_mixture(scene.mixture, kernel, array, cfg.pairs,
                                             cfg.grid, (), frozenset(az))
        keep = spatial.premask
        true_means.append(float(spatial.angle_feature(az[0])[keep].mean()))
        off_means.append(float(spatial.angle_feature(az[0] + 90.0)[keep].mean()))
    gap = float(np.mean(true_means) - np.mean(off_means))
    report(7, "AF at true azimuth beats azimuth+90 by > 0.5", gap > 0.5,
           f"mean AF true {np.mean(true_means):.3f}, +90deg {np.mean(off_means):.3f}")


def test_c08_dpr_localization(cfg):
    kernel = cfg.stft_cfg
    high = cfg.stft_cfg.freqs > 1000.0
    hits = 0
    for seed in range(50):
        grid_index = seed % 36
        azimuth = float(cfg.grid.azimuths[grid_index])
        scene, az, array = _anechoic_scene(8000 + seed, [azimuth], duration=0.6)
        spatial = SpatialAnalysis.of_mixture(scene.mixture, kernel, array, cfg.pairs,
                                             cfg.grid, cfg.grid.azimuths, frozenset(az))
        keep = spatial.premask[:, high]
        powers = _grid_dpr(spatial)
        means = np.array([powers[p][:, high][keep].mean() for p in range(36)])
        if int(means.argmax()) == nearest_direction(cfg.grid, az[0]):
            hits += 1
    report(8, "DPR argmax localization accuracy >= 90%", hits >= 45,
           f"{hits}/50 correct")


def test_c09_oracle_mask_ordering(cfg):
    kernel = cfg.oracle_cfg
    start = time.monotonic()
    means = {"ibm": [], "irm": [], "ipsm": []}
    for seed in range(100):
        rng = np.random.default_rng(50_000 + seed)
        room, _ = sample_scene(rng, 2, FS, ARRAY_RADIUS)
        dry = [synth.speech_like(rng, 1.5, FS) for _ in range(2)]
        gains = [0.0, float(rng.uniform(-5.0, 0.0))]
        scene = render_mixture(dry, room, cfg.array, mixing_gains_db=gains)
        mix_ref = scene.mixture[0]
        tgt_ref, intf_ref = scene.images[0][0], scene.images[1][0]
        for name in means:
            mask = oracle_mask(stft(tgt_ref, kernel), [stft(intf_ref, kernel)], name)
            est = apply_mask(stft(mix_ref, kernel), mask, mix_ref.size)
            means[name].append(si_sdri(est, tgt_ref, mix_ref))
    elapsed = time.monotonic() - start
    ipsm = float(np.mean(means["ipsm"]))
    irm = float(np.mean(means["irm"]))
    ibm = float(np.mean(means["ibm"]))
    ok = ipsm >= irm and ipsm >= ibm and min(ipsm, irm, ibm) > 5.0 and elapsed < 300.0
    report(9, "oracle ordering IPSM >= IRM, IBM; all > 5 dB over 100 scenes", ok,
           f"ipsm {ipsm:.2f}, irm {irm:.2f}, ibm {ibm:.2f} dB in {elapsed:.0f}s")


def test_c10_direction_error_robustness(cfg, tmp_path):
    manifest = simulate_dataset(tmp_path / "data", 20, 2, 424242, cfg.array, FS, duration=1.2,
                                synth_kind="speech", source_dir=None, jobs=1)
    sweep = perturb_sweep(manifest, tmp_path / "sweep", [0.0, 10.0], 77, cond="tgt", jobs=1)
    drops = {}
    for variant, rows in sweep["variants"].items():
        drops[variant] = rows[0]["mean_gt15"] - rows[1]["mean_gt15"]
    ok = drops["af_dpr"] <= drops["af"] and drops["af_dpr"] <= 1.0
    report(10, "AF+DPR drop at 10deg error <= AF-only drop and <= 1 dB", ok,
           f"af {drops['af']:+.3f} dB, af_dpr {drops['af_dpr']:+.3f} dB (>15deg bins)")


def test_c11_determinism(small_dataset, tmp_path):
    cli_main(["simulate", "--out", str(tmp_path / "s1"), "--seed", "7",
              "--num-scenes", "2", "--num-speakers", "2", "--duration", "0.8"])
    cli_main(["simulate", "--out", str(tmp_path / "s2"), "--seed", "7",
              "--num-scenes", "2", "--num-speakers", "2", "--duration", "0.8"])
    sim_ok = tree_hash(tmp_path / "s1") == tree_hash(tmp_path / "s2")
    manifest = str(small_dataset / "manifest.json")
    cli_main(["perturb", "--manifest", manifest, "--out", str(tmp_path / "p1"),
              "--direction-error-deg", "0,3", "--seed", "5"])
    cli_main(["perturb", "--manifest", manifest, "--out", str(tmp_path / "p2"),
              "--direction-error-deg", "0,3", "--seed", "5"])
    pert_ok = tree_hash(tmp_path / "p1") == tree_hash(tmp_path / "p2")
    report(11, "simulate and perturb byte-identical across reruns",
           sim_ok and pert_ok, f"simulate {sim_ok}, perturb {pert_ok}")


def test_c12_feature_dimensionality(small_dataset, tmp_path):
    manifest = str(small_dataset / "manifest.json")
    cli_main(["features", "--manifest", manifest, "--out", str(tmp_path / "tgt"),
              "--features", "lps,cosipd,af,dpr", "--cond", "tgt"])
    cli_main(["features", "--manifest", manifest, "--out", str(tmp_path / "both"),
              "--features", "lps,cosipd,af,dpr", "--cond", "tgt+intf"])

    def header_dim(path: Path) -> int:
        raw = path.read_bytes()
        _, _, dim, _ = struct.unpack_from("<HIII", raw, 5)
        return dim

    d_tgt = header_dim(tmp_path / "tgt" / "utt_00000_tgt0.tsnf")
    d_both = header_dim(tmp_path / "both" / "utt_00000_tgt0.tsnf")
    parsed = read_features(tmp_path / "tgt" / "utt_00000_tgt0.tsnf")
    report(12, "feature headers read D=297 (tgt) and D=363 (tgt+intf)",
           d_tgt == 297 and d_both == 363 and parsed.dim == 297,
           f"tgt {d_tgt}, tgt+intf {d_both}")
