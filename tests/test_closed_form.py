"""The closed forms the analysis uses (rfft STFT, IPD phasors and the IPSM
from cross-spectra, AF from IPD cosines and sines, DPR from one beam and a
factored grid total) against the definitions in ``oracles``: formula by
formula, and end to end through the CLI."""

import csv
import json

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings, strategies as st

from ssk import pipeline, spatial_features
from ssk.cli import main
from ssk.dataset_io import read_features, read_wav
from ssk.geometry import DirectionGrid, circular_array, tdoa
from ssk.separation import MASK_EPS
from ssk.spatial_features import (DPR_POWER_FLOOR, SpatialAnalysis, angle_feature, beam,
                                  beam_power_total, das_filterbank, grid_factor)
from ssk.spectral import ComplexSpectrogram, StftConfig, hann_periodic, stft

import oracles

# Output contract against the reference formulas: float32 samples within
# 2^-23 of their file's (or feature block's) peak, report means within 1e-6 dB.
SAMPLE_TOL = 2.0 ** -23
REPORT_TOL_DB = 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 32), st.integers(0, 64), st.integers(0, 300), st.integers(0, 2 ** 31 - 1))
def test_stft_matches_kernel_matmul(half_window, pad, extra, seed):
    cfg = StftConfig(window=hann_periodic(2 * half_window), fft_size=2 * half_window + pad,
                     hop=half_window, sample_rate=oracles.FS)
    x = np.random.default_rng(seed).standard_normal(cfg.win_len + extra)
    ours, ref = stft(x, cfg).data, oracles.kernel_stft(x, cfg)
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 30), st.integers(1, 40), st.integers(0, 2 ** 31 - 1))
def test_angle_feature_matches_definition(pairs, frames, bins, seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-np.pi, np.pi, (pairs, frames, bins))
    steer = rng.uniform(-60.0, 60.0, (pairs, bins))
    keep = rng.random((frames, bins)) < 0.7
    ours = angle_feature(np.cos(phi), np.sin(phi), steer, keep)
    npt.assert_allclose(ours, oracles.direct_angle_feature(phi, steer, keep), rtol=0,
                        atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.02, 0.3), st.sampled_from([5.0, 10.0, 30.0, 90.0]),
       st.sampled_from([(40, 20, 64), (256, 128, 256)]), st.integers(0, 2 ** 31 - 1))
def test_beam_power_total_matches_grid_sum(mics, diameter, step, shape, seed):
    win_len, hop, fft_size = shape
    cfg = StftConfig(window=hann_periodic(win_len), fft_size=fft_size, hop=hop,
                     sample_rate=oracles.FS)
    rng = np.random.default_rng(seed)
    gains = 10.0 ** rng.uniform(-3.0, 3.0, (mics, 1, 1))
    data = gains * (rng.standard_normal((mics, 12, cfg.num_bins))
                    + 1j * rng.standard_normal((mics, 12, cfg.num_bins)))
    spec = ComplexSpectrogram(data=data, config=cfg)
    bank = das_filterbank(circular_array(mics, diameter), DirectionGrid.uniform(step), cfg)
    powers = np.abs(beam(spec, bank)) ** 2
    # Rounding in any evaluation of a beam scales with the beam of |y_j|,
    # which equals the beam itself unless the channels cancel in it.
    scale = bank.shape[0] * (np.abs(data).sum(axis=0) / mics) ** 2
    assert np.all(np.abs(beam_power_total(spec, grid_factor(bank)) - powers.sum(axis=0)) <= 1e-12 * scale)
    p = int(rng.integers(bank.shape[0]))
    assert np.all(np.abs(np.abs(beam(spec, bank[p])) ** 2 - powers[p]) <= 1e-12 * scale)


def _reference_formulas(monkeypatch) -> None:
    """Put the definitions from ``oracles`` in place of the closed forms
    behind every spectrogram, IPD cosine and sine, AF, DPR and IPSM the
    analysis hands out."""
    def one(x, cfg):
        return ComplexSpectrogram(data=oracles.kernel_stft(x, cfg), config=cfg)

    def frames(wav, cfg):
        return np.stack([oracles.kernel_stft(ch, cfg) for ch in wav])

    def cos_sin(spec, pairs, out):
        phi = oracles.angle_ipd(spec.data, pairs)
        out[0][...], out[1][...] = np.cos(phi), np.sin(phi)

    def keeping_spec(self, frames, num_frames, config, *args):
        # The analysis keeps no spectrogram; the references below read the
        # one its blocks make up.
        blocks = []
        real_init(self, lambda a, b: blocks.append(frames(a, b)) or blocks[-1], num_frames,
                  config, *args)
        self.reference_spec = ComplexSpectrogram(data=np.concatenate(blocks, axis=1),
                                                 config=config)

    def angle_feature(self, azimuth):
        steer = oracles.loop_steering_phases(tdoa(self.array, azimuth),
                                             self.reference_spec.config.freqs, self.pairs)
        return oracles.direct_angle_feature(
            oracles.angle_ipd(self.reference_spec.data, self.pairs), steer, self.premask)

    def oracle_mask(target, others, kind):
        if kind != "ipsm":
            return real_oracle_mask(target, others, kind)
        mixture = target.data + sum(o.data for o in others)
        return oracles.angle_ipsm(target.data, mixture, MASK_EPS)

    def dpr(self, azimuth):
        bank = das_filterbank(self.array, self.grid, self.reference_spec.config)
        return oracles.grid_dpr(self.reference_spec.data, bank,
                                oracles.nearest_direction(self.grid.azimuths, azimuth),
                                DPR_POWER_FLOOR)

    real_oracle_mask, real_init = pipeline.oracle_mask, SpatialAnalysis.__init__
    monkeypatch.setattr(pipeline, "stft", one)
    monkeypatch.setattr(spatial_features, "rfft_frames", frames)
    monkeypatch.setattr(spatial_features, "pair_cos_sin", cos_sin)
    monkeypatch.setattr(pipeline, "oracle_mask", oracle_mask)
    monkeypatch.setattr(SpatialAnalysis, "__init__", keeping_spec)
    monkeypatch.setattr(SpatialAnalysis, "angle_feature", angle_feature)
    monkeypatch.setattr(SpatialAnalysis, "dpr", dpr)


def _run_all(manifest, out) -> None:
    m = str(manifest)
    assert main(["features", "--manifest", m, "--out", str(out / "features"),
                 "--features", "lps,cosipd,sinipd,af,dpr", "--cond", "tgt+intf"]) == 0
    for method in pipeline.METHODS:
        assert main(["separate", "--manifest", m, "--out", str(out / method),
                     "--method", method, "--cond", "tgt+intf"]) == 0
        assert main(["evaluate", "--manifest", m, "--estimates", str(out / method),
                     "--out", str(out / "reports" / method)]) == 0
    assert main(["perturb", "--manifest", m, "--out", str(out / "sweep"), "--seed", "3",
                 "--direction-error-deg", "0,1,4,10"]) == 0


def _within(ours, ref, where) -> None:
    assert ours.shape == ref.shape, where
    assert np.max(np.abs(ours - ref)) <= SAMPLE_TOL * np.max(np.abs(ref)), where


def _close_values(ours, ref, tol, where) -> None:
    if isinstance(ref, dict):
        assert ours.keys() == ref.keys(), where
        for key in ref:
            _close_values(ours[key], ref[key], tol, f"{where}.{key}")
    elif isinstance(ref, list):
        assert len(ours) == len(ref), where
        for k, (a, b) in enumerate(zip(ours, ref)):
            _close_values(a, b, tol, f"{where}[{k}]")
    elif isinstance(ref, float):
        assert abs(ours - ref) <= tol, where
    else:
        assert ours == ref, where


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def test_outputs_match_reference_formulas(tmp_path, monkeypatch):
    assert main(["simulate", "--out", str(tmp_path / "data"), "--seed", "7",
                 "--num-scenes", "2", "--num-speakers", "3", "--duration", "0.8"]) == 0
    manifest = tmp_path / "data" / "manifest.json"
    with monkeypatch.context() as patched:
        _reference_formulas(patched)
        _run_all(manifest, tmp_path / "ref")
    _run_all(manifest, tmp_path / "ours")

    ref_root, our_root = tmp_path / "ref", tmp_path / "ours"
    files = sorted(p.relative_to(ref_root) for p in ref_root.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(our_root) for p in our_root.rglob("*") if p.is_file())
    for rel in files:
        ref, ours = ref_root / rel, our_root / rel
        if rel.suffix == ".wav":
            _within(read_wav(ours)[0], read_wav(ref)[0], rel)
        elif rel.suffix == ".tsnf":
            a, b = read_features(ours), read_features(ref)
            assert a.layout == b.layout, rel
            for name, _ in b.layout:
                _within(a.block(name), b.block(name), (rel, name))
        elif rel.suffix == ".json":
            _close_values(json.loads(ours.read_text()), json.loads(ref.read_text()),
                          REPORT_TOL_DB, rel)
        else:
            # CSV reports print the same means to 6 decimals.
            rows = [[_number(c) for c in row] for row in csv.reader(ours.read_text().splitlines())]
            ref_rows = [[_number(c) for c in row] for row in csv.reader(ref.read_text().splitlines())]
            _close_values(rows, ref_rows, REPORT_TOL_DB + 1e-6, rel)
    assert any(rel.suffix == ".tsnf" for rel in files)
    assert sum(rel.suffix == ".wav" for rel in files) == 6 * (len(pipeline.METHODS) + 8)
