import pathlib
import tempfile
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from ssk import synth
from ssk.dataset_io import read_features, write_features
from ssk.geometry import DirectionGrid, PairSelection, circular_array, tdoa
from ssk.spatial_features import (SpatialAnalysis, assemble_features, beam, beam_power_total,
                                  das_filterbank, das_weights, dpr, grid_factor, ipd,
                                  multichannel_stft, nearest_direction, pair_cos_sin,
                                  pair_steering_phases, premask)
from ssk.spectral import ComplexSpectrogram, rfft_frames, stft

import oracles
from conftest import pinned_scene, render_scene, traced_peak, whole_analysis

FS, ARRAY_RADIUS = oracles.FS, oracles.ARRAY_RADIUS


def _anechoic_scene(seed, azimuth, array, duration=0.8):
    rng = np.random.default_rng(seed)
    room, az = pinned_scene(rng, [azimuth], FS, ARRAY_RADIUS)
    dry = [synth.speech_like(rng, duration, FS)]
    return render_scene(dry, replace(room, t60=0.0), array).mixture, az[0]


def _angle_feature(spec, azimuth, array, pairs):
    """AF toward ``azimuth`` as the run paths form it."""
    return whole_analysis(spec, array, pairs, DirectionGrid.uniform(10.0),
                          ()).angle_feature(azimuth)


def _grid_dpr(spec, array, grid):
    """DPR toward every grid direction, (P, T, F), one run-path call each."""
    analysis = whole_analysis(spec, array, None, grid, grid.azimuths)
    return np.stack([analysis.dpr(az) for az in grid.azimuths])


def _row(spec, j=0):
    """Channel ``j`` of a (J, T, F) spectrogram."""
    return ComplexSpectrogram(data=spec.data[j], config=spec.config)


class TestIpd:
    def test_identical_channels(self, cfg_default, rng):
        x = rng.standard_normal(2000)
        spec = multichannel_stft(np.stack([x, x]), cfg_default)
        pairs = PairSelection(((0, 1),))
        phi = ipd(spec, pairs)
        npt.assert_array_equal(phi, 0.0)
        npt.assert_array_equal(np.cos(phi), 1.0)
        npt.assert_array_equal(np.sin(phi), 0.0)

    @pytest.mark.parametrize("m0, delay", [(4, 2), (8, 1), (12, 3)])
    def test_integer_delay_tone(self, cfg_default, m0, delay):
        # Analytic delay-phase oracle: channel 2 lags by d samples, so the
        # pair IPD at the tone bin is wrap(2*pi*m*d/N).
        t = np.arange(4000)
        tone = np.cos(2.0 * np.pi * m0 * t / 64.0)
        ch1 = tone[delay:delay + 3000]
        ch2 = tone[:3000]
        spec = multichannel_stft(np.stack([ch1, ch2]), cfg_default)
        phi = ipd(spec, PairSelection(((0, 1),)))[0]
        expected = oracles.wrap_phase(np.array(2.0 * np.pi * m0 * delay / 64.0))
        mags = np.abs(spec.data[0])
        strong = mags[:, m0] > 0.5 * mags[:, m0].max()
        npt.assert_allclose(phi[strong, m0], expected, atol=0.05)

    def test_anechoic_source_matches_steering(self, array6, pairs6, cfg_default):
        mixture, az = _anechoic_scene(3, 75.0, array6)
        spec = multichannel_stft(mixture, cfg_default)
        phi = ipd(spec, pairs6)
        steer = pair_steering_phases(array6, az, pairs6, cfg_default)
        keep = premask(_row(spec))
        mid = slice(2, 10)
        err = np.abs(oracles.wrap_phase(phi[:, :, mid] - steer[:, None, mid]))
        active = np.broadcast_to(keep[None, :, mid], err.shape)
        assert np.median(err[active]) < 0.2

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_pair_swap_antisymmetry(self, seed):
        r = np.random.default_rng(seed)
        wav = r.standard_normal((2, 1500))
        spec = multichannel_stft(wav, oracles.PAPER_STFT)
        fwd = ipd(spec, PairSelection(((0, 1),)))[0]
        rev = ipd(spec, PairSelection(((1, 0),)))[0]
        npt.assert_allclose(oracles.wrap_phase(fwd + rev), 0.0, atol=1e-9)
        npt.assert_allclose(np.cos(fwd), np.cos(rev), atol=1e-9)
        npt.assert_allclose(np.sin(fwd), -np.sin(rev), atol=1e-9)

    def test_pair_out_of_range(self, cfg_default, rng):
        spec = multichannel_stft(rng.standard_normal((2, 500)), cfg_default)
        with pytest.raises(ValueError):
            ipd(spec, PairSelection(((0, 5),)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 20), st.floats(0.0, 0.5),
           st.integers(0, 2 ** 31 - 1))
    def test_pair_cos_sin_matches_angle_definition(self, mics, frames, zero_share, seed):
        # Random spectra over six decades, with exact-zero bins in one or
        # both channels of a pair: the phasor equals cos and sin of the
        # angle-difference IPD, which is 0 wherever a channel is 0.
        rng = np.random.default_rng(seed)
        cfg = oracles.PAPER_STFT
        shape = (mics, frames, cfg.num_bins)
        data = 10.0 ** rng.uniform(-3.0, 3.0, shape) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, shape))
        data[rng.random(shape) < zero_share] = 0.0
        pairs = PairSelection(tuple((a, b) for a in range(mics) for b in range(mics) if a != b))
        cos, sin = pair_cos_sin(ComplexSpectrogram(data=data, config=cfg), pairs)
        phi = oracles.angle_ipd(data, pairs)
        npt.assert_allclose(cos, np.cos(phi), rtol=0, atol=1e-12)
        npt.assert_allclose(sin, np.sin(phi), rtol=0, atol=1e-12)


class TestAngleFeature:
    def test_perfect_alignment_gives_one(self, array6, pairs6, cfg_default):
        # Build channel spectra whose phases are exactly the steering
        # phases of 40 degrees; AF there must be exactly 1.
        delays = tdoa(array6, 40.0)
        freqs = cfg_default.freqs
        base = np.ones((12, 33), dtype=complex)
        data = np.stack([base * np.exp(-2j * np.pi * freqs * d)[None, :]
                         for d in delays])
        spec = ComplexSpectrogram(data=data, config=cfg_default)
        af = _angle_feature(spec, 40.0, array6, pairs6)
        npt.assert_allclose(af, 1.0, atol=1e-12)

    def test_anechoic_source_discrimination(self, array6, pairs6, cfg_default):
        mixture, az = _anechoic_scene(4, 150.0, array6)
        spec = multichannel_stft(mixture, cfg_default)
        keep = premask(_row(spec))
        af_true = _angle_feature(spec, az, array6, pairs6)
        af_off = _angle_feature(spec, az + 90.0, array6, pairs6)
        assert af_true[keep].mean() > 0.9
        assert af_true[keep].mean() - af_off[keep].mean() > 0.5

    def test_silent_utterance_fully_masked(self, array6, pairs6, cfg_default):
        data = np.zeros((6, 10, 33), dtype=complex)
        spec = ComplexSpectrogram(data=data, config=cfg_default)
        npt.assert_array_equal(_angle_feature(spec, 10.0, array6, pairs6), 0.0)

    def test_invariant_to_global_scaling(self, array6, pairs6, cfg_default, rng):
        wav = rng.standard_normal((6, 2000))
        spec1 = multichannel_stft(wav, cfg_default)
        spec2 = multichannel_stft(0.01 * wav, cfg_default)
        af1 = _angle_feature(spec1, 33.0, array6, pairs6)
        af2 = _angle_feature(spec2, 33.0, array6, pairs6)
        npt.assert_allclose(af1, af2, atol=1e-9)

    def test_range(self, array6, pairs6, cfg_default, rng):
        wav = rng.standard_normal((6, 2000))
        af = _angle_feature(multichannel_stft(wav, cfg_default), 0.0, array6, pairs6)
        assert af.min() >= -1.0 - 1e-12 and af.max() <= 1.0 + 1e-12


class TestDasFilterbank:
    def test_dc_weights(self, array6, grid36, cfg_default):
        bank = das_filterbank(array6, grid36, cfg_default)
        npt.assert_allclose(bank[:, 0, :], 1.0 / 6.0)

    def test_unit_modulus_over_j(self, array6, grid36, cfg_default):
        bank = das_filterbank(array6, grid36, cfg_default)
        npt.assert_allclose(np.abs(bank), 1.0 / 6.0, rtol=1e-12)

    def test_beampattern_prefers_steered_direction(self, array6, grid36, cfg_default):
        # Narrowband oracle: a unit plane wave from grid direction p gives
        # |w_p^H Y| = 1, strictly more than the antipodal beam at high bins.
        p = 9  # 90 degrees
        delays = tdoa(array6, float(grid36.azimuths[p]))
        bank = das_filterbank(array6, grid36, cfg_default)
        for m in (16, 24, 32):
            y = np.exp(-2j * np.pi * cfg_default.freqs[m] * delays)
            responses = np.abs(bank[:, m, :].conj() @ y)
            assert responses[p] == pytest.approx(1.0, abs=1e-12)
            antipodal = (p + 18) % 36
            assert responses[p] > responses[antipodal]


class TestDpr:
    def test_sums_to_one_at_energetic_bins(self, array6, grid36, cfg_default, rng):
        data = rng.standard_normal((6, 40, 33)) + 1j * rng.standard_normal((6, 40, 33))
        spec = ComplexSpectrogram(data=data, config=cfg_default)
        total = _grid_dpr(spec, array6, grid36).sum(axis=0)
        npt.assert_allclose(total, 1.0, atol=1e-6)

    def test_bank_form_matches_one_direction_at_a_time(self, array6, grid36, cfg_default, rng):
        data = rng.standard_normal((6, 40, 33)) + 1j * rng.standard_normal((6, 40, 33))
        spec = ComplexSpectrogram(data=data, config=cfg_default)
        bank = das_filterbank(array6, grid36, cfg_default)
        every = dpr(spec, bank, beam_power_total(spec, grid_factor(bank)), 36)
        npt.assert_allclose(every, _grid_dpr(spec, array6, grid36), rtol=1e-12, atol=0)

    def test_silent_bins_uniform(self, array6, grid36, cfg_default):
        spec = ComplexSpectrogram(data=np.zeros((6, 5, 33), dtype=complex),
                                  config=cfg_default)
        analysis = whole_analysis(spec, array6, None, grid36, [70.0])
        npt.assert_array_equal(analysis.dpr(70.0), 1.0 / 36.0)

    def test_anechoic_source_localized(self, array6, grid36, cfg_default):
        mixture, az = _anechoic_scene(6, 130.0, array6)
        spec = multichannel_stft(mixture, cfg_default)
        powers = _grid_dpr(spec, array6, grid36)
        keep = premask(_row(spec))
        high = cfg_default.freqs > 1000.0
        sel = keep[:, high]
        means = np.array([powers[p][:, high][sel].mean() for p in range(36)])
        assert int(means.argmax()) == nearest_direction(grid36, az)

    def test_invariant_to_global_scaling(self, array6, grid36, cfg_default, rng):
        wav = rng.standard_normal((6, 1500))
        d1 = SpatialAnalysis.of_mixture(wav, cfg_default, array6, None, grid36,
                                        [30.0]).dpr(30.0)
        d2 = SpatialAnalysis.of_mixture(2.0 * wav, cfg_default, array6, None, grid36,
                                        [30.0]).dpr(30.0)
        npt.assert_allclose(d1, d2, atol=1e-9)

    def test_spectrogram_channel_check(self, grid36, cfg_default, rng):
        bank = das_filterbank(circular_array(4, 0.07), grid36, cfg_default)
        spec = ComplexSpectrogram(
            data=rng.standard_normal((6, 3, 33)) + 0j, config=cfg_default)
        with pytest.raises(ValueError, match="6 spectrogram channels"):
            dpr(spec, bank, np.ones((3, 33)), 36)


class TestPairSteeringPhases:
    PAIR03 = PairSelection(((0, 3),))

    def test_zero_frequency(self, array6, cfg_default):
        steer = pair_steering_phases(array6, 77.0, self.PAIR03, cfg_default)
        assert steer[0, 0] == 0.0

    def test_equal_delays_give_zero(self, array6, cfg_default):
        # Broadside direction makes the (1,4) pair delays equal.
        steer = pair_steering_phases(array6, 90.0, self.PAIR03, cfg_default)
        npt.assert_allclose(steer[0, 16], 0.0, atol=1e-12)

    def test_frozen_regression_pair14_azimuth0(self, array6, cfg_default):
        # Brute force from coordinates: delay difference 0.07/343 s at
        # f = 16*16000/64 = 4000 Hz -> 2*pi*4000*0.07/343 rad.
        expected = 2.0 * np.pi * 4000.0 * (0.07 / 343.0)
        val = pair_steering_phases(array6, 0.0, self.PAIR03, cfg_default)[0, 16]
        npt.assert_allclose(val, expected, rtol=1e-12)
        npt.assert_allclose(val, 5.129130863003744, rtol=1e-12)

    def test_bit_equal_to_per_pair_loop(self, array6, pairs6, cfg_default, grid36):
        for az in grid36.azimuths:
            delays = tdoa(array6, float(az))
            assert np.array_equal(pair_steering_phases(array6, float(az), pairs6, cfg_default),
                                  oracles.loop_steering_phases(delays, cfg_default.freqs, pairs6))

    def test_linear_in_band_index(self, array6, cfg_default):
        steer = pair_steering_phases(array6, 40.0, PairSelection(((0, 1),)), cfg_default)
        npt.assert_allclose(np.diff(steer[0], 2), 0.0, atol=1e-12)


class TestPairContrast:
    def test_axis_pair_blind_to_broadside_opposites(self, array6, pairs6, cfg_default):
        # Sources at 90 and 270 degrees sit broadside to the (1,4) axis:
        # that pair's steering phases coincide, while a rotated pair
        # separates them.
        steer_a = pair_steering_phases(array6, 90.0, pairs6, cfg_default)
        steer_b = pair_steering_phases(array6, 270.0, pairs6, cfg_default)
        contrast = np.abs(oracles.wrap_phase(steer_a - steer_b)).max(axis=1)
        assert contrast[0] < 1e-9          # pair (1,4)
        assert contrast[2] > 1.0           # pair (3,6)


class TestNearestDirection:
    def test_rounds_down_to_ten(self, grid36):
        assert nearest_direction(grid36, 14.0) == 1

    def test_tie_goes_to_lower_index(self, grid36):
        assert nearest_direction(grid36, 15.0) == 1

    def test_wraparound(self, grid36):
        assert nearest_direction(grid36, 359.0) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([10.0, 7.0, 45.0, 0.5, 180.0]).map(DirectionGrid.uniform),
                     st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=2,
                              max_size=40, unique=True).map(sorted).map(DirectionGrid)),
           st.data())
    def test_matches_scan_over_the_grid(self, grid, data):
        # Midpoints between neighbours (and their wrapped copies) are ties.
        az = grid.azimuths
        midpoints = [(a + b) / 2.0 + k * 360.0 for a, b in zip(az, az[1:]) for k in (-1, 0, 1)]
        azimuth = data.draw(st.floats(-1e4, 1e4, allow_nan=False) | st.sampled_from(midpoints))
        assert nearest_direction(grid, azimuth) == oracles.nearest_direction(az, azimuth)


class TestAssembleFeatures:
    def test_default_tgt_dimensionality(self, rng):
        frames = 7
        stack = assemble_features([
            ("lps", rng.standard_normal((frames, 33))),
            ("cosipd", rng.standard_normal((6, frames, 33))),
            ("af:tgt", rng.standard_normal((frames, 33))),
            ("dpr:tgt", rng.standard_normal((frames, 33))),
        ])
        assert stack.dim == 297
        assert stack.layout == (("lps", 33), ("cosipd", 198), ("af:tgt", 33),
                                ("dpr:tgt", 33))

    def test_tgt_plus_intf_dimensionality(self, rng):
        frames = 5
        blocks = [("lps", rng.standard_normal((frames, 33))),
                  ("cosipd", rng.standard_normal((6, frames, 33)))]
        for name in ("af:tgt", "af:intf", "dpr:tgt", "dpr:intf"):
            blocks.append((name, rng.standard_normal((frames, 33))))
        assert assemble_features(blocks).dim == 363

    def test_single_block_passthrough(self, rng):
        block = rng.standard_normal((4, 10))
        stack = assemble_features([("lps", block)])
        assert stack.data.dtype == np.float32
        npt.assert_array_equal(stack.data, block.astype(np.float32))

    def test_frame_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="frames"):
            assemble_features([("a", rng.standard_normal((4, 3))),
                               ("b", rng.standard_normal((5, 3)))])

    def test_block_accessor(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 2))
        stack = assemble_features([("a", a), ("b", b)])
        assert stack.data.dtype == np.float32
        npt.assert_array_equal(stack.block("b"), b.astype(np.float32))
        with pytest.raises(KeyError):
            stack.block("missing")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12),
           st.lists(st.tuples(st.integers(1, 9)) | st.tuples(st.integers(1, 4), st.integers(1, 9)),
                    min_size=1, max_size=6),
           st.integers(-140, 120), st.integers(0, 2 ** 32 - 1))
    def test_matches_concatenation_oracle(self, frames, shapes, exponent, seed):
        # Each block is written into its columns of one float32 matrix; the
        # stack, its file and the file read back are bit-equal to stacking
        # in float64, casting, and writing one bytes object.
        r = np.random.default_rng(seed)
        blocks = [(f"b{k}", r.standard_normal((frames, *shape) if len(shape) == 1
                                              else (shape[0], frames, shape[1])) * 2.0 ** exponent)
                  for k, shape in enumerate(shapes)]
        stack = assemble_features(blocks)
        data, layout = oracles.concat_features(blocks)
        assert stack.layout == layout
        assert stack.data.dtype == data.dtype and stack.data.shape == data.shape
        assert stack.data.tobytes() == data.tobytes()
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "f.tsnf"
            write_features(path, stack)
            assert path.read_bytes() == oracles.tsnf1_bytes(data, layout)
            back = read_features(path)
        assert back.layout == stack.layout
        assert back.data.dtype == stack.data.dtype and back.data.shape == stack.data.shape
        assert back.data.tobytes() == stack.data.tobytes()

    def test_allocates_only_its_output(self, rng):
        # The 363-wide tgt+intf stack of a 2000-frame utterance: no block is
        # copied or concatenated on the way into the float32 matrix.
        frames = 2000
        blocks = [("lps", rng.standard_normal((frames, 33))),
                  ("cosipd", rng.standard_normal((6, frames, 33)))]
        blocks += [(name, rng.standard_normal((frames, 33)))
                   for name in ("af:tgt", "af:intf", "dpr:tgt", "dpr:intf")]
        stack, peak = traced_peak(lambda: assemble_features(blocks))
        assert stack.dim == 363
        assert peak <= stack.data.nbytes + 64 * 1024


class TestMultichannel:
    @pytest.mark.parametrize("num_samples", [32_000, 19_200, 31_999])
    def test_channel_is_bit_equal_to_its_stft(self, cfg_default, rng, num_samples):
        # Separation reads the reference channel of the utterance's analysis
        # where it used to analyse the channel itself; the outputs stay equal.
        wav = rng.standard_normal((6, num_samples))
        spec = multichannel_stft(wav, cfg_default)
        for j in range(6):
            npt.assert_array_equal(spec.data[j], stft(wav[j], cfg_default).data)


class TestSpatialAnalysis:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1), st.data())
    def test_memo_matches_a_fresh_analysis(self, num_sources, seed, data):
        # Any sequence of source azimuths, perturbed azimuths and repeats,
        # planned alone or with the whole grid: every AF and DPR equals the
        # same call on a fresh analysis, and after each call at most one AF
        # map, the latest, is alive. DPR comes from one map per planned grid
        # direction, formed in the pass.
        array, pairs, grid = circular_array(6, 0.07), PairSelection.default_six(), \
            DirectionGrid.uniform(10.0)
        rng = np.random.default_rng(seed)
        shape = (6, 6, 33)
        spec = ComplexSpectrogram(data=rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape), config=oracles.PAPER_STFT)
        azimuth = st.floats(0.0, 360.0, exclude_max=True)
        sources = data.draw(st.lists(azimuth, min_size=num_sources, max_size=num_sources,
                                     unique=True), label="sources")
        perturbed = data.draw(st.lists(st.builds(lambda az, err: az + err, st.sampled_from(sources),
                                                 st.floats(-10.0, 10.0)),
                                       min_size=1, max_size=4), label="perturbed")
        calls = data.draw(st.lists(st.tuples(st.sampled_from(["angle_feature", "dpr"]),
                                             st.sampled_from(sources + perturbed)),
                                   min_size=1, max_size=25), label="calls")
        wide = data.draw(st.booleans(), label="wide")
        plan = [az for _, az in calls] + (list(grid.azimuths) if wide else [])
        analysis = whole_analysis(spec, array, pairs, grid, plan)
        planned = len({nearest_direction(grid, az) for az in plan})
        maps = {"angle_feature": [], "dpr": []}
        for name, az in calls:
            got = getattr(analysis, name)(az)
            fresh = getattr(whole_analysis(spec, array, pairs, grid, plan), name)(az)
            assert np.array_equal(got, fresh), (name, az)
            maps[name].append(weakref.ref(got))
            del got, fresh
            live = {key: len({id(ref()) for ref in refs if ref() is not None})
                    for key, refs in maps.items()}
            assert live["angle_feature"] <= 1
            assert live["dpr"] <= planned

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.sampled_from([5.0, 10.0]), st.integers(0, 2 ** 31 - 1),
           st.data())
    def test_planned_maps_equal_the_on_demand_maps(self, mics, step, seed, data):
        # For random spectra, sources and signed errors, a plan of any width
        # is served from one map per planned grid direction, formed in the
        # pass, each bit-equal to the map of an analysis planned over the
        # whole grid, which serves any direction on demand; a DPR outside the
        # plan raises KeyError.
        array, grid = circular_array(mics, 0.07), DirectionGrid.uniform(step)
        pairs = PairSelection(tuple((0, j) for j in range(1, mics)))
        rng = np.random.default_rng(seed)
        shape = (mics, 5, 33)
        spec = ComplexSpectrogram(data=rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape), config=oracles.PAPER_STFT)
        sources = data.draw(st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=1,
                                     max_size=3, unique=True), label="sources")
        errors = data.draw(st.lists(st.floats(0.0, 180.0), min_size=1, max_size=6),
                           label="errors")
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(sources),
                                   max_size=len(sources)), label="signs")
        plan = [az + sign * error for az, sign in zip(sources, signs) for error in errors]
        planned = {nearest_direction(grid, az) for az in plan}
        analysis = whole_analysis(spec, array, pairs, grid, plan)
        on_demand = whole_analysis(spec, array, pairs, grid, grid.azimuths)
        for az in plan:
            assert np.array_equal(analysis.dpr(az), on_demand.dpr(az)), az
        assert len({id(analysis.dpr(az)) for az in plan}) == len(planned)
        unplanned = [p for p in range(grid.num_directions) if p not in planned]
        for p in unplanned[:1]:
            with pytest.raises(KeyError):
                analysis.dpr(grid.azimuths[p])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.one_of(st.integers(40, 400), st.integers(5200, 7000)),
           st.booleans(), st.integers(0, 2 ** 31 - 1), st.data())
    def test_block_splitting_changes_nothing(self, mics, samples, wide, seed, data):
        # For random mixtures and plans, at most 2J directions or the whole
        # grid, and random beams, off the grid and perturbed, the analysis of
        # the mixture, which transforms it block by block, equals that of its
        # whole spectrogram, sliced into the same blocks: the reference row,
        # the premask, the phasors, every planned DPR map, every AF map and
        # every beam are bit-equal, and equal to the whole-spectrogram
        # formulas (beams bit-equal; DPR to rounding: its BLAS products are
        # cut into BLOCK_FRAMES-frame blocks). The longer mixtures span more
        # than one such block.
        cfg, grid = oracles.PAPER_STFT, DirectionGrid.uniform(10.0)
        array = circular_array(mics, 0.07)
        pairs = PairSelection(tuple((0, j) for j in range(1, mics))) if mics > 1 else None
        wav = np.random.default_rng(seed).standard_normal((mics, samples))
        sources = data.draw(st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=1,
                                     max_size=3, unique=True), label="sources")
        steered = sources + [az + 7.0 for az in sources]
        plan = list(grid.azimuths) if wide else steered
        errors = data.draw(st.lists(st.floats(-180.0, 180.0), min_size=len(sources),
                                    max_size=len(sources)), label="errors")
        beams = sources + [az + error for az, error in zip(sources, errors)]
        one = SpatialAnalysis.of_mixture(wav, cfg, array, pairs, grid, plan, beams)
        whole = ComplexSpectrogram(data=rfft_frames(wav, cfg), config=cfg)
        other = whole_analysis(whole, array, pairs, grid, plan, beams)
        bank = das_filterbank(array, grid, cfg)
        total = beam_power_total(whole, grid_factor(bank))
        assert np.array_equal(one.ref_spec.data, whole.data[0])
        assert np.array_equal(one.premask, premask(_row(whole)))
        if pairs is not None:
            assert np.array_equal(np.stack(one.pair_cos_sin), np.stack(pair_cos_sin(whole, pairs)))
        # The whole-grid plan serves every grid direction's map from the pass.
        for az in (grid.azimuths if wide else steered):
            p = nearest_direction(grid, az)
            assert one.dpr(az) is one.dpr(az)
            npt.assert_allclose(one.dpr(az), dpr(whole, bank[p], total, grid.num_directions),
                                rtol=0, atol=1e-12)
        for az in beams:
            assert np.array_equal(one.beam(az).data,
                                  beam(whole, das_weights(array, [az], cfg)[0])), az
        assert np.array_equal(other.ref_spec.data, one.ref_spec.data)
        assert np.array_equal(other.premask, one.premask)
        for az in plan:
            assert np.array_equal(other.dpr(az), one.dpr(az)), az
        for az in beams:
            assert np.array_equal(other.beam(az).data, one.beam(az).data), az
        if pairs is not None:
            assert np.array_equal(np.stack(other.pair_cos_sin), np.stack(one.pair_cos_sin))
            for az in steered:
                assert np.array_equal(other.angle_feature(az), one.angle_feature(az)), az

    def test_blocks_must_hold_the_stated_frames(self, array6, grid36, cfg_default):
        # Each block ``frames`` returns must hold the array's channels, the
        # frames asked for and the config's bins.
        for shape in ((6, 4, 33), (5, 8, 33), (6, 8, 32)):
            block = np.zeros(shape, dtype=complex)
            with pytest.raises(ValueError, match="block of shape"):
                SpatialAnalysis(lambda a, b: block, 8, cfg_default, array6, None, grid36, ())

    def test_build_holds_no_whole_spectrogram(self, array6, pairs6, grid36, cfg_default):
        # 10 s of a 6-channel mixture, planned as tgt+intf plans three
        # sources, as das plans three beams (no pairs), and over the whole
        # grid: the traced peak of each build, less the arrays the analysis
        # keeps, stays below one whole (J, T, F) complex128 spectrogram, which
        # the build held before it read the spectrogram in blocks.
        wav = np.random.default_rng(5).standard_normal((6, 10 * FS))
        spectrogram = 6 * cfg_default.num_frames(wav.shape[1]) * cfg_default.num_bins * 16
        sources = [20.0, 140.0, 260.0]
        for pairs, plan, beams in ((pairs6, sources + [80.0, 200.0, 320.0], ()),
                                   (None, (), sources),
                                   (pairs6, list(grid36.azimuths), ())):
            analysis, peak = traced_peak(lambda: SpatialAnalysis.of_mixture(
                wav, cfg_default, array6, pairs, grid36, plan, beams))
            # The premask is taken on the first AF read, so no build forms it.
            assert "premask" not in vars(analysis)
            maps = {id(m): m for m in map(analysis.dpr, plan)}
            kept = sum(a.nbytes for a in (*(analysis.pair_cos_sin if pairs else ()),
                                          analysis.ref_spec.data, *maps.values(),
                                          *(analysis.beam(az).data for az in beams)))
            assert peak - kept < spectrogram, (len(plan), len(beams))
            del analysis, maps

    def test_af_needs_pairs(self, array6, grid36, cfg_default):
        spec = ComplexSpectrogram(data=np.ones((6, 4, 33), dtype=complex), config=cfg_default)
        with pytest.raises(ValueError, match="two microphones"):
            whole_analysis(spec, array6, None, grid36, ()).angle_feature(0.0)
