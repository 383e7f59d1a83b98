import csv

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from ssk import synth
from ssk.geometry import circular_array
from ssk.metrics import (SI_SDR_CAP_DB, EvalRecord, aggregate, bin_index,
                         si_sdr, si_sdri)
from ssk.room_sim import sample_scene
from ssk.separation import apply_mask, oracle_mask
from ssk.spectral import stft

from conftest import render_scene
from oracles import ARRAY_RADIUS, FS, ORACLE_STFT


class TestSiSdr:
    def test_identical_signals_cap(self, rng):
        x = rng.standard_normal(1000)
        assert si_sdr(x, x) == SI_SDR_CAP_DB

    def test_scale_invariance_exact(self, rng):
        x = rng.standard_normal(1000)
        est = x + 0.1 * rng.standard_normal(1000)
        assert abs(si_sdr(2.5 * est, x) - si_sdr(est, x)) < 1e-9

    def test_orthogonal_estimate_negative_cap(self):
        n = 1000
        t = np.arange(n)
        ref = np.sin(2 * np.pi * 50 * t / n)
        est = np.cos(2 * np.pi * 50 * t / n)
        assert si_sdr(est, ref) == -SI_SDR_CAP_DB

    def test_dc_offset_invariance(self, rng):
        x = rng.standard_normal(1000)
        est = x + 0.2 * rng.standard_normal(1000)
        base = si_sdr(est, x)
        assert abs(si_sdr(est + 5.0, x) - base) < 1e-9
        assert abs(si_sdr(est, x + 3.0) - base) < 1e-9

    def test_zero_reference_rejected(self, rng):
        with pytest.raises(ValueError):
            si_sdr(rng.standard_normal(100), np.zeros(100))

    def test_constant_reference_rejected(self, rng):
        with pytest.raises(ValueError):
            si_sdr(rng.standard_normal(100), np.full(100, 3.3))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            si_sdr(rng.standard_normal(100), rng.standard_normal(99))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(min_value=0.01, max_value=50.0))
    def test_scale_invariance_property(self, seed, alpha):
        r = np.random.default_rng(seed)
        ref = r.standard_normal(300)
        est = ref + 0.5 * r.standard_normal(300)
        assert abs(si_sdr(alpha * est, ref) - si_sdr(est, ref)) < 1e-9


class TestSiSdri:
    def test_mixture_as_estimate_is_zero(self, rng):
        ref = rng.standard_normal(2000)
        mix = ref + rng.standard_normal(2000)
        assert si_sdri(mix, ref, mix) == 0.0

    def test_reference_as_estimate_hits_cap(self, rng):
        ref = rng.standard_normal(2000)
        mix = ref + rng.standard_normal(2000)
        assert si_sdri(ref, ref, mix) == SI_SDR_CAP_DB - si_sdr(mix, ref)

    def test_ipsm_pipeline_regression(self):
        # End-to-end pipeline oracle, value frozen from the first run.
        rng = np.random.default_rng(11)
        array = circular_array(6, 0.07)
        room, _ = sample_scene(rng, 2, FS, ARRAY_RADIUS)
        dry = [synth.speech_like(rng, 1.0, FS) for _ in range(2)]
        scene = render_scene(dry, room, array, mixing_gains_db=[0.0, -3.0])
        cfg = ORACLE_STFT
        mask = oracle_mask(stft(scene.images[0][0], cfg),
                           [stft(scene.images[1][0], cfg)], "ipsm")
        est = apply_mask(stft(scene.mixture[0], cfg), mask, scene.mixture.shape[1])
        value = si_sdri(est, scene.images[0][0], scene.mixture[0])
        assert value > 0.0
        npt.assert_allclose(value, 15.700500730364766, atol=1e-6)


def _rec(ad, value, uid="u"):
    return EvalRecord(utterance_id=uid, target_azimuth=0.0, angle_difference=ad,
                      si_sdr_est=value, si_sdr_mix=0.0)


def _bin_mean(report, label):
    return next(b.mean_si_sdri for b in report.bins if b.label == label)


class TestAggregate:
    def test_single_record(self):
        report = aggregate([_rec(30.0, 5.0)], "test")
        assert _bin_mean(report, "15-45") == pytest.approx(5.0)
        assert report.overall_mean == pytest.approx(5.0)
        assert report.overall_count == 1

    def test_empty_input(self):
        report = aggregate([], "test")
        assert report.overall_count == 0
        assert report.overall_mean is None
        assert all(b.count == 0 and b.mean_si_sdri is None for b in report.bins)

    def test_two_records_one_bin(self):
        report = aggregate([_rec(20.0, 4.0), _rec(40.0, 6.0)], "test")
        assert _bin_mean(report, "15-45") == pytest.approx(5.0)

    def test_bin_edges(self):
        assert bin_index(0.0) == 0
        assert bin_index(14.999) == 0
        assert bin_index(15.0) == 1
        assert bin_index(45.0) == 2
        assert bin_index(90.0) == 3
        assert bin_index(180.0) == 3

    def test_overall_is_count_weighted_bin_mean(self):
        records = [_rec(5.0, 1.0), _rec(30.0, 2.0), _rec(30.0, 4.0), _rec(170.0, 8.0)]
        report = aggregate(records, "test")
        weighted = sum(b.mean_si_sdri * b.count for b in report.bins if b.count)
        assert report.overall_mean == pytest.approx(weighted / report.overall_count)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 180), st.floats(-30, 30)), max_size=40))
    def test_permutation_invariance(self, items):
        records = [_rec(ad, v, uid=str(i)) for i, (ad, v) in enumerate(items)]
        fwd = aggregate(records, "test")
        rev = aggregate(records[::-1], "test")
        assert fwd.overall_count == rev.overall_count
        for a, b in zip(fwd.bins, rev.bins):
            assert a.count == b.count
            if a.mean_si_sdri is None:
                assert b.mean_si_sdri is None
            else:
                assert a.mean_si_sdri == pytest.approx(b.mean_si_sdri)

    def test_angle_difference_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _rec(181.0, 0.0)

    def test_mean_above_threshold(self):
        records = [_rec(5.0, 1.0), _rec(30.0, 3.0), _rec(100.0, 5.0)]
        report = aggregate(records, "test")
        assert report.mean_above(15.0) == pytest.approx(4.0)

    def test_report_serialization(self, tmp_path):
        report = aggregate([_rec(30.0, 5.0), _rec(120.0, 7.0)], method="irm")
        doc = report.to_dict()
        assert doc["method"] == "irm"
        assert doc["overall"]["count"] == 2
        csv_path = tmp_path / "report.csv"
        report.write_csv(csv_path)
        rows = list(csv.reader(csv_path.open()))
        assert rows[0] == ["bin", "count", "mean_si_sdri"]
        assert rows[-1][0] == "overall"

    def test_csv_bytes(self, tmp_path):
        # The csv module's rows: comma separated, "\r\n" terminated, an
        # empty mean for an empty bin.
        report = aggregate([_rec(30.0, 5.0), _rec(120.0, 7.0)], method="irm")
        report.write_csv(tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_bytes() == (
            b"bin,count,mean_si_sdri\r\n<15,0,\r\n15-45,1,5.000000\r\n45-90,0,\r\n"
            b">90,1,7.000000\r\noverall,2,6.000000\r\n")

    def test_failed_csv_write_leaves_no_file(self, tmp_path, monkeypatch):
        # A write interrupted after the header leaves no partial report.csv
        # (nor a temp file) next to a finished report.json.
        real_writer = csv.writer

        class Failing:
            def __init__(self, fh):
                self.inner, self.rows = real_writer(fh), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows > 2:
                    raise OSError("interrupted")
                return self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", Failing)
        report = aggregate([_rec(30.0, 5.0)], "test")
        with pytest.raises(OSError, match="interrupted"):
            report.write_csv(tmp_path / "report.csv")
        assert list(tmp_path.iterdir()) == []
