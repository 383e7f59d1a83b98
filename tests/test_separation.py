import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from ssk import synth
from ssk.geometry import angle_difference, circular_array
from ssk.metrics import si_sdr, si_sdri
from ssk.room_sim import render_mixture, sample_scene
from ssk.separation import (MASK_EPS, apply_mask, das_beamform, directional_mask,
                            oracle_mask)
from ssk.spatial_features import SpatialAnalysis, beam, das_weights
from ssk.spectral import ComplexSpectrogram, rfft_frames, stft

import oracles

FS, ARRAY_RADIUS, ORACLE_CFG = oracles.FS, oracles.ARRAY_RADIUS, oracles.ORACLE_STFT


def oracle(target, others, kind):
    """Oracle mask from reference-channel waveforms at the oracle config."""
    return oracle_mask(stft(target, ORACLE_CFG),
                       [stft(o, ORACLE_CFG) for o in others], kind)


def masked(mixture, mask, cfg=ORACLE_CFG):
    """Apply ``mask`` to the analysis of a reference-channel waveform."""
    return apply_mask(stft(mixture, cfg), mask, mixture.size)


def das(mixture, azimuth, array, cfg):
    """The delay-and-sum estimate of a (J, n) mixture, beamed from its whole
    spectrogram."""
    whole = ComplexSpectrogram(data=rfft_frames(mixture, cfg), config=cfg)
    steered = beam(whole, das_weights(array, [azimuth], cfg)[0])
    return das_beamform(ComplexSpectrogram(data=steered, config=cfg), mixture.shape[-1])


def _reverberant_scene(seed, n_sources=2, duration=1.0, anechoic=False,
                       azimuths=None):
    rng = np.random.default_rng(seed)
    t60_range = (0.0, 0.0) if anechoic else (0.05, 0.5)
    room, az = sample_scene(rng, n_sources, FS, ARRAY_RADIUS, azimuths=azimuths,
                            t60_range=t60_range)
    dry = [synth.speech_like(rng, duration, FS) for _ in range(n_sources)]
    gains = [0.0] + [float(rng.uniform(-5, 0)) for _ in range(n_sources - 1)]
    array = circular_array(6, 0.07)
    return render_mixture(dry, room, array, mixing_gains_db=gains), az, array


class TestOracleMask:
    def test_equal_magnitudes_give_half_irm(self, rng):
        x = synth.speech_like(rng, 0.5, FS)
        mask = oracle(x, [x.copy()], "irm")
        spec = stft(x, ORACLE_CFG)
        active = np.abs(spec.data) > 1e-3 * np.abs(spec.data).max()
        npt.assert_allclose(mask[active], 0.5, atol=1e-6)

    def test_no_interference_ipsm_is_one_at_active_bins(self, rng):
        x = synth.speech_like(rng, 0.5, FS)
        mask = oracle(x, [], "ipsm")
        spec = stft(x, ORACLE_CFG)
        active = np.abs(spec.data) > 1e-3 * np.abs(spec.data).max()
        npt.assert_allclose(mask[active], 1.0, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 20), st.floats(0.0, 0.5),
           st.integers(0, 2 ** 31 - 1))
    def test_ipsm_matches_angle_definition(self, interferers, frames, zero_share, seed):
        # Spectra over six decades with exact-zero bins: the cross-spectrum
        # IPSM equals the phase-angle formula, 0 where the mixture is 0.
        rng = np.random.default_rng(seed)
        shape = (1 + interferers, frames, ORACLE_CFG.num_bins)
        data = 10.0 ** rng.uniform(-3.0, 3.0, shape) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, shape))
        data[rng.random(shape) < zero_share] = 0.0
        specs = [ComplexSpectrogram(data=d, config=ORACLE_CFG) for d in data]
        mask = oracle_mask(specs[0], specs[1:], "ipsm")
        npt.assert_allclose(mask, oracles.angle_ipsm(data[0], data.sum(axis=0), MASK_EPS),
                            rtol=0, atol=1e-12)

    def test_ibm_one_where_target_dominates(self, rng):
        x = synth.speech_like(rng, 0.5, FS)
        mask = oracle(2.0 * x, [x], "ibm")
        spec = stft(x, ORACLE_CFG)
        active = np.abs(spec.data) > 0
        npt.assert_array_equal(mask[active], 1.0)

    def test_ibm_ties_go_to_zero(self, rng):
        x = synth.speech_like(rng, 0.5, FS)
        mask = oracle(x, [x.copy()], "ibm")
        npt.assert_array_equal(mask, 0.0)

    def test_ibm_without_interference_is_one_at_active_bins(self, rng):
        x = synth.speech_like(rng, 0.5, FS)
        mask = oracle(x, [], "ibm")
        spec = stft(x, ORACLE_CFG)
        active = np.abs(spec.data) > 0
        npt.assert_array_equal(mask[active], 1.0)

    def test_interferer_at_other_config_rejected(self, cfg_default, rng):
        x = rng.standard_normal(4000)
        with pytest.raises(ValueError, match="config"):
            oracle_mask(stft(x, ORACLE_CFG), [stft(x, cfg_default)], "irm")

    @pytest.mark.parametrize("kind", ["IPSM", "", "das"])
    def test_unknown_kind_rejected(self, rng, kind):
        # A name outside ORACLE_KINDS must not fall through to the IPSM branch.
        x = rng.standard_normal(4000)
        with pytest.raises(ValueError, match="kind"):
            oracle(x, [x.copy()], kind)

    @pytest.mark.parametrize("kind", ["ibm", "irm", "ipsm"])
    def test_declared_ranges(self, rng, kind):
        tgt = rng.standard_normal(4000)
        intf = rng.standard_normal(4000)
        mask = oracle(tgt, [intf], kind)
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        if kind == "ibm":
            assert set(np.unique(mask)) <= {0.0, 1.0}

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0),
           st.sampled_from(["ibm", "irm", "ipsm"]))
    def test_scale_covariance(self, scale, kind):
        r = np.random.default_rng(7)
        tgt = r.standard_normal(3000)
        intf = r.standard_normal(3000)
        m1 = oracle(tgt, [intf], kind)
        m2 = oracle(scale * tgt, [scale * intf], kind)
        npt.assert_allclose(m1, m2, atol=1e-5)


class TestApplyMask:
    def test_all_ones_recovers_mixture_interior(self, cfg_default, rng):
        mix = rng.standard_normal(8000)
        frames = stft(mix, cfg_default).num_frames
        mask = np.ones((frames, 33))
        est = masked(mix, mask, cfg_default)
        lo = cfg_default.win_len
        hi = (frames - 1) * cfg_default.hop
        err = np.linalg.norm(est[lo:hi] - mix[lo:hi]) / np.linalg.norm(mix[lo:hi])
        assert err < 1e-6

    def test_all_zeros_gives_silence(self, cfg_default, rng):
        mix = rng.standard_normal(4000)
        mask = np.zeros((stft(mix, cfg_default).num_frames, 33))
        npt.assert_array_equal(masked(mix, mask, cfg_default), 0.0)

    def test_ipsm_improves_over_mixture(self):
        scene, az, _ = _reverberant_scene(11)
        mask = oracle(scene.images[0][0], [scene.images[1][0]], "ipsm")
        est = masked(scene.mixture[0], mask)
        assert si_sdri(est, scene.images[0][0], scene.mixture[0]) > 0.0

    def test_oracle_recovery_single_source(self):
        # IRM with no interferer is all ones at active bins; the
        # reconstruction must sit within -40 dB of the target image.
        scene, az, _ = _reverberant_scene(13, n_sources=1)
        target = scene.images[0][0]
        mask = oracle(target, [], "irm")
        est = masked(target, mask)
        lo = ORACLE_CFG.win_len
        hi = est.size - 2 * ORACLE_CFG.win_len
        err_db = 10 * np.log10(np.sum((est[lo:hi] - target[lo:hi]) ** 2)
                               / np.sum(target[lo:hi] ** 2))
        assert err_db < -40.0

    def test_config_mismatch_rejected(self, cfg_default, rng):
        mask = np.ones((10, 129))
        with pytest.raises(ValueError, match="config"):
            masked(rng.standard_normal(4000), mask, cfg_default)

    def test_frame_mismatch_rejected(self, cfg_default, rng):
        mask = np.ones((3, 33))
        with pytest.raises(ValueError, match="frames"):
            masked(rng.standard_normal(4000), mask, cfg_default)

    def test_oracle_estimates_have_no_boundary_spikes(self):
        # At the first and last samples the overlap-add normaliser is a single
        # tapered window square; dividing by it made masked estimates spike.
        array = circular_array(1, 0.07)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            room, _ = sample_scene(rng, 3, FS, ARRAY_RADIUS, t60_range=(0.05, 0.2))
            dry = [synth.speech_like(rng, 1.0, FS) for _ in range(3)]
            scene = render_mixture(dry, room, array)
            mix = scene.mixture[array.ref_index]
            for kind in ("ibm", "irm", "ipsm"):
                for t, img in enumerate(scene.images):
                    others = [o[array.ref_index] for c, o in enumerate(scene.images) if c != t]
                    mask = oracle(img[array.ref_index], others, kind)
                    peak = np.abs(masked(mix, mask)).max()
                    assert peak <= 4.0 * np.abs(mix).max(), (seed, kind, t)


class TestDirectionalMask:
    def test_max_evidence_gives_ones(self):
        shape = (9, 33)
        mask = directional_mask(np.ones(shape), np.ones(shape), alpha=1.0, beta=1.0)
        npt.assert_allclose(mask, 1.0)

    def test_min_evidence_gives_zeros(self):
        shape = (9, 33)
        mask = directional_mask(-np.ones(shape), np.zeros(shape), alpha=1.0, beta=1.0)
        npt.assert_allclose(mask, 0.0)

    def test_contrast_zeroes_interferer_bins(self):
        af_t = np.full((2, 4), 0.5)
        dpr_t = np.full((2, 4), 0.2)
        af_i = np.full((2, 4), 0.9)
        dpr_i = np.full((2, 4), 0.9)
        mask = directional_mask(af_t, dpr_t, af_i, dpr_i, alpha=1.0, beta=1.0)
        npt.assert_array_equal(mask, 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            directional_mask(np.ones((3, 4)), np.ones((4, 3)), alpha=1.0, beta=1.0)

    def test_range_for_random_inputs(self, rng):
        af = rng.uniform(-1, 1, (20, 33))
        d = rng.uniform(0, 1, (20, 33))
        mask = directional_mask(af, d, alpha=1.0, beta=1.0)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_heuristic_positive_on_wide_anechoic_mixtures(self, array6, pairs6,
                                                          grid36, cfg_default):
        # Desk-scale check that directional evidence alone separates widely
        # spaced anechoic speakers.
        scores = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            az1 = float(rng.uniform(0, 360))
            az2 = az1 + float(rng.choice([-1, 1])) * float(rng.uniform(95, 180))
            scene, az, _ = _reverberant_scene(2000 + seed, anechoic=True,
                                              duration=0.6, azimuths=[az1, az2])
            assert angle_difference(az[0], az[1]) > 90.0
            spatial = SpatialAnalysis.of_mixture(scene.mixture, cfg_default, array6, pairs6,
                                                 grid36, az, frozenset(az))
            mask = directional_mask(spatial.angle_feature(az[0]), spatial.dpr(az[0]),
                                    alpha=1.0, beta=1.0)
            est = apply_mask(spatial.ref_spec, mask, scene.mixture.shape[1])
            scores.append(si_sdri(est, scene.images[0][0], scene.mixture[0]))
        assert float(np.mean(scores)) > 0.0


class TestDasBeamform:
    def test_single_mic_passthrough(self, cfg_default, rng):
        arr1 = circular_array(1, 0.07)
        mix = rng.standard_normal(4000)
        est = das(mix[None, :], 123.0, arr1, cfg_default)
        lo, hi = cfg_default.win_len, est.size - 2 * cfg_default.win_len
        err = np.linalg.norm(est[lo:hi] - mix[lo:hi]) / np.linalg.norm(mix[lo:hi])
        assert err < 1e-6

    def test_steering_at_source_beats_off_steering(self, cfg_default):
        scene, az, array = _reverberant_scene(21, n_sources=1, anechoic=True)
        ref = scene.images[0][0]
        on = das(scene.mixture, az[0], array, cfg_default)
        off = das(scene.mixture, az[0] + 90.0, array, cfg_default)
        assert si_sdr(on, ref) > si_sdr(off, ref)

    def test_opposite_sources_positive_improvement(self, cfg_default):
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            az1 = float(rng.uniform(0, 360))
            scene, az, array = _reverberant_scene(3000 + seed, anechoic=True,
                                                  duration=0.6,
                                                  azimuths=[az1, az1 + 180.0])
            est = das(scene.mixture, az[0], array, cfg_default)
            scores.append(si_sdri(est, scene.images[0][0], scene.mixture[0]))
        assert float(np.mean(scores)) > 0.0

    def test_channel_count_mismatch(self, array6, cfg_default, rng):
        with pytest.raises(ValueError):
            das(rng.standard_normal((4, 2000)), 0.0, array6, cfg_default)
