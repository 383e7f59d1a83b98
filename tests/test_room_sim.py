import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from ssk import synth
from ssk.geometry import angle_difference, circular_array, tdoa
from ssk.metrics import bin_index
from ssk.room_sim import (REF_IMAGE_RMS, SINC_HALF_WIDTH, RoomConfig, SceneGenerationError,
                          _convolve_rows, _fast_rfft_length, _windowed_sinc_rir,
                          calibrated_reflection_coefficient, estimate_t60,
                          mic_positions_in_room, render_mixture, sample_scene,
                          simulate_rir, simulate_rirs)

from conftest import traced_peak
from oracles import (fresh_render_mixture, image_method_rir, per_tap_windowed_sinc_rir,
                     xcorr_peak_lag)

FS = 16000
C = 343.0


def _room(dims, t60, center, sources):
    return RoomConfig(dimensions=dims, t60=t60, array_center=center,
                      source_positions=sources, sample_rate=FS)


class TestRoomConfig:
    def test_negative_t60_rejected(self):
        with pytest.raises(ValueError):
            _room([5, 6, 3], -0.1, [2, 3, 1.5], [[1, 1, 1.5]])

    def test_source_outside_room_rejected(self):
        with pytest.raises(ValueError):
            _room([5, 6, 3], 0.3, [2, 3, 1.5], [[9, 1, 1.5]])

    def test_azimuths_from_positions(self):
        room = _room([8, 8, 4], 0.2, [4, 4, 2], [[5, 4, 2], [4, 5, 2]])
        npt.assert_allclose(room.source_azimuths(), [0.0, 90.0])


class TestSimulateRir:
    def test_anechoic_limit_single_direct_impulse(self):
        # Distance chosen to land on an exact sample so the windowed sinc
        # collapses onto one tap.
        d = 100 * C / FS
        room = _room([8, 8, 4], 0.0, [2, 2, 2], [[2 + d, 2, 2]])
        h = simulate_rir(room, 0, [2, 2, 2])
        peak = int(np.argmax(np.abs(h)))
        assert peak == 100
        npt.assert_allclose(h[peak], 1.0 / (4.0 * np.pi * d), rtol=1e-9)
        others = np.delete(h, peak)
        assert np.abs(others).max() < 1e-12 * abs(h[peak]) + 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_direct_path_arrival_sample(self, seed):
        rng = np.random.default_rng(seed)
        room, _ = sample_scene(rng, 1, sample_rate=FS, t60_range=(0.0, 0.0))
        mic = room.array_center + np.array([0.01, -0.02, 0.0])
        h = simulate_rir(room, 0, mic)
        d = np.linalg.norm(room.source_positions[0] - mic)
        expected = round(d / C * FS)
        assert abs(int(np.argmax(np.abs(h))) - expected) <= 1

    def test_schroeder_t60_within_tolerance(self):
        room = _room([5, 6, 3], 0.3, [2.5, 3.0, 1.5], [[1.5, 2.0, 1.5]])
        h = simulate_rir(room, 0, [2.6, 3.1, 1.5])
        est = estimate_t60(h, FS)
        assert abs(est - 0.3) / 0.3 < 0.25

    def test_energy_monotonic_in_absorption(self):
        # Longer T60 means weaker absorption, hence more energy.
        center, src = [2.5, 3.0, 1.5], [[1.5, 2.0, 1.5]]
        energies = []
        for t60 in (0.1, 0.25, 0.4):
            h = simulate_rir(_room([5, 6, 3], t60, center, src), 0, [2.6, 3.1, 1.5])
            energies.append(float(np.sum(h ** 2)))
        assert energies[0] < energies[1] < energies[2]

    def test_bad_source_index(self):
        room = _room([5, 6, 3], 0.2, [2.5, 3, 1.5], [[1.5, 2, 1.5]])
        with pytest.raises(ValueError):
            simulate_rir(room, 1, [2.5, 3, 1.5])


def _delays(npts):
    """Delays in samples: anywhere in reach, exact integers, halves (np.round
    takes them to the even neighbour) and the last W samples before npts."""
    w = SINC_HALF_WIDTH
    anywhere = st.floats(0.0, npts + w + 2.0)
    exact = st.integers(0, npts + w).map(float)
    halves = st.integers(0, npts + w).map(lambda k: k + 0.5)
    near_end = st.floats(max(npts - w - 1.0, 0.0), npts + w + 1.0)
    return st.lists(st.one_of(anywhere, exact, halves, near_end), min_size=1, max_size=40)


class TestWindowedSincKernel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), npts=st.integers(1, 120))
    def test_matches_per_tap_oracle(self, data, npts):
        delays = np.array(data.draw(_delays(npts)))
        amps = np.array(data.draw(st.lists(
            st.floats(1e-3, 1e3).flatmap(lambda a: st.sampled_from([a, -a])),
            min_size=delays.size, max_size=delays.size)))
        # fs = c = 1: distances are delays in samples, so integers and halves
        # stay exact.
        h = _windowed_sinc_rir(delays, amps, npts, 1.0, 1.0)
        ref = per_tap_windowed_sinc_rir(delays, amps, npts, 1.0, 1.0, SINC_HALF_WIDTH)
        # Each tap rounds at the scale of its impulse's amplitude, also where
        # the tap itself is near zero (window edge, sinc zero, or impulses of
        # opposite sign cancelling); in an RIR the largest amplitude is the
        # peak.
        assert h.shape == (npts,)
        npt.assert_allclose(h, ref, rtol=0.0, atol=1e-13 * np.abs(amps).max())


@pytest.mark.parametrize("dims,t60", [
    # Small and reverberant: image orders near 30 per axis, and reflection
    # counts past 100 (a 100-entry gain table would be overrun).
    ([3.0, 3.2, 2.5], 0.5),
    # Anechoic: the direct path alone, with beta == 0.
    ([5.0, 6.0, 3.0], 0.0),
])
def test_simulate_rirs_matches_image_method_oracle(dims, t60):
    center = np.array([1.4, 1.7, 1.2])
    room = _room(dims, t60, center, [[0.6, 0.5, 1.2]])
    array = circular_array(2, 0.07)
    beta = calibrated_reflection_coefficient(room)
    rirs = simulate_rirs(room, array)[0]
    for h, mic in zip(rirs, mic_positions_in_room(room, array)):
        direct = np.linalg.norm(room.source_positions[0] - mic)
        npts = int(np.ceil((t60 + direct / C) * FS)) + SINC_HALF_WIDTH + 1
        ref = image_method_rir(room.source_positions[0], mic, room.dimensions, beta,
                               npts, FS, C, SINC_HALF_WIDTH)
        npt.assert_allclose(h[:npts], ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
        assert not np.any(h[npts:])


class TestRenderMixture:
    def test_single_source_mixture_equals_image(self, array6, rng):
        room, _ = sample_scene(rng, 1, sample_rate=FS)
        dry = [synth.noise_burst(rng, 0.4, FS)]
        scene = render_mixture(dry, room, array6)
        npt.assert_array_equal(scene.mixture, scene.images[0])

    def test_relative_gain_realized_on_ref_channel(self, array6, rng):
        room, _ = sample_scene(rng, 2, sample_rate=FS)
        dry = [synth.speech_like(rng, 0.7, FS) for _ in range(2)]
        scene = render_mixture(dry, room, array6, mixing_gains_db=[0.0, -5.0])
        p0 = np.mean(scene.images[0][0] ** 2)
        p1 = np.mean(scene.images[1][0] ** 2)
        assert 10.0 * np.log10(p0 / p1) == pytest.approx(5.0, abs=0.01)

    def test_mixture_is_sum_of_images(self, array6, rng):
        room, _ = sample_scene(rng, 2, sample_rate=FS)
        dry = [synth.speech_like(rng, 0.5, FS) for _ in range(2)]
        scene = render_mixture(dry, room, array6)
        npt.assert_array_equal(scene.mixture, scene.images[0] + scene.images[1])

    def test_anechoic_ref_channel_is_scaled_delayed_sum(self, array6, rng):
        # Convolution oracle: convolve each dry source with its anechoic RIR
        # by hand and rescale to the realized image level.
        room, _ = sample_scene(rng, 2, sample_rate=FS, t60_range=(0.0, 0.0))
        dry = [synth.noise_burst(rng, 0.4, FS) for _ in range(2)]
        scene = render_mixture(dry, room, array6)
        rirs = simulate_rirs(room, array6)
        n = scene.mixture.shape[1]
        manual = np.zeros(n)
        for c in range(2):
            conv = np.convolve(dry[c], rirs[c][0])
            conv = np.pad(conv, (0, max(0, n - conv.size)))[:n]
            scale = np.sqrt(np.mean(scene.images[c][0] ** 2) / np.mean(conv ** 2))
            manual += conv * scale
        assert np.linalg.norm(scene.mixture[0] - manual) / np.linalg.norm(manual) < 1e-9

    def test_convolution_matches_fftconvolve_bit_for_bit(self, array6):
        rng = np.random.default_rng(45)
        room, _ = sample_scene(rng, 1, sample_rate=FS, t60_range=(0.45, 0.45))
        rirs = simulate_rirs(room, array6)[0]
        dry = synth.speech_like(rng, 1.0, FS)
        expected = np.stack([fftconvolve(dry, h) for h in rirs])
        npt.assert_array_equal(_convolve_rows(dry, rirs), expected)

    def test_fft_length_is_scipy_fast_length(self):
        for n in list(range(1, 3000)) + [38803, 65537, 100001]:
            assert _fast_rfft_length(n) == next_fast_len(n, real=True)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    def test_equals_the_padded_scaled_sum_bit_for_bit(self, sources, seed):
        # Sources of different lengths, so every image but the longest is
        # padded before it is scaled and summed.
        rng = np.random.default_rng(seed)
        array = circular_array(4, 0.1)
        room, _ = sample_scene(rng, sources, sample_rate=8000, t60_range=(0.05, 0.3))
        dry = [rng.standard_normal(int(rng.integers(50, 3000))) for _ in range(sources)]
        gains = list(rng.uniform(-5.0, 0.0, sources))
        scene = render_mixture(dry, room, array, mixing_gains_db=gains)
        convolved = [_convolve_rows(s, h) for s, h in zip(dry, simulate_rirs(room, array))]
        mixture, images = fresh_render_mixture(convolved, array.ref_index, gains, REF_IMAGE_RMS)
        assert scene.mixture.tobytes() == mixture.tobytes()
        assert [img.tobytes() for img in scene.images] == [img.tobytes() for img in images]
        assert all(img.shape == mixture.shape for img in scene.images)

    def test_holds_the_images_the_mixture_and_one_convolution(self, array6):
        # Each image is convolved into its padded buffer and scaled there:
        # the peak is the S images, the mixture, the RIRs and one
        # convolution's two (J, n_fft/2 + 1) spectra and (J, n_fft) inverse.
        rng = np.random.default_rng(5)
        room, _ = sample_scene(rng, 3, sample_rate=FS, t60_range=(0.1, 0.1))
        dry = [synth.speech_like(rng, 2.0, FS) for _ in range(3)]
        rirs = simulate_rirs(room, array6)
        scene, peak = traced_peak(lambda: render_mixture(dry, room, array6))
        J = array6.num_mics
        n_fft = max(_fast_rfft_length(s.size + h.shape[1] - 1) for s, h in zip(dry, rirs))
        convolution = 2 * J * (n_fft // 2 + 1) * 16 + J * n_fft * 8
        held = sum(img.nbytes for img in scene.images) + scene.mixture.nbytes
        assert peak <= held + sum(h.nbytes for h in rirs) + convolution

    def test_silent_source_rejected(self, array6, rng):
        room, _ = sample_scene(rng, 2, sample_rate=FS)
        with pytest.raises(ValueError, match="silent"):
            render_mixture([np.zeros(1000), np.ones(1000)], room, array6)

    def test_source_count_mismatch_rejected(self, array6, rng):
        room, _ = sample_scene(rng, 2, sample_rate=FS)
        with pytest.raises(ValueError):
            render_mixture([synth.noise_burst(rng, 0.3, FS)], room, array6)


class TestSampleScene:
    def test_deterministic_for_seed(self):
        room1, az1 = sample_scene(321, 2)
        room2, az2 = sample_scene(321, 2)
        npt.assert_array_equal(room1.source_positions, room2.source_positions)
        npt.assert_array_equal(room1.dimensions, room2.dimensions)
        assert room1.t60 == room2.t60
        assert az1 == az2

    def test_invariants_over_many_scenes(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            room, _ = sample_scene(rng, 2)
            dims = room.dimensions
            assert (dims >= [3, 3, 2.5]).all() and (dims <= [8, 10, 6]).all()
            assert 0.05 <= room.t60 <= 0.5
            pts = np.vstack([room.array_center, room.source_positions])
            assert (pts[:, :2] >= 0.3 - 1e-9).all()
            assert (pts[:, :2] <= dims[:2] - 0.3 + 1e-9).all()
            assert (pts[:, 2] >= 0.3 - 1e-9).all() and (pts[:, 2] <= dims[2] - 0.3 + 1e-9).all()
            # same horizontal plane
            assert np.ptp(pts[:, 2]) < 1e-12

    def test_angle_difference_bins_all_populated(self):
        rng = np.random.default_rng(17)
        counts = [0, 0, 0, 0]
        for _ in range(10_000):
            _, az = sample_scene(rng, 2)
            counts[bin_index(angle_difference(az[0], az[1]))] += 1
        assert min(counts) > 0

    def test_pinned_azimuths(self):
        room, az = sample_scene(9, 2, azimuths=[30.0, 210.0])
        npt.assert_allclose(az, [30.0, 210.0], atol=1e-9)

    def test_generation_error_when_unsatisfiable(self):
        with pytest.raises(SceneGenerationError):
            sample_scene(0, 2, max_attempts=0)


class TestGeometryConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_xcorr_tdoa_matches_geometry(self, array6, seed):
        # Anechoic images cross-correlated against the reference channel
        # recover the plane-wave TDOA within one sample.
        rng = np.random.default_rng(seed)
        room, az = sample_scene(rng, 1, sample_rate=FS, t60_range=(0.0, 0.0))
        dry = [synth.noise_burst(rng, 0.4, FS)]
        scene = render_mixture(dry, room, array6)
        delays = tdoa(array6, az[0]) * FS
        ref = scene.images[0][0]
        for j in range(1, 6):
            lag = xcorr_peak_lag(ref, scene.images[0][j], max_lag=8)
            assert abs(lag - delays[j]) <= 1.0


class TestEstimateT60:
    def test_synthetic_exponential_decay(self, rng):
        # Oracle sanity: a known exponential decay is recovered.
        t60 = 0.4
        n = int(0.6 * FS)
        t = np.arange(n) / FS
        h = rng.standard_normal(n) * 10.0 ** (-3.0 * t / t60)
        est = estimate_t60(h, FS)
        assert est == pytest.approx(t60, rel=0.05)

    def test_no_energy_rejected(self):
        with pytest.raises(ValueError):
            estimate_t60(np.zeros(100), FS)
