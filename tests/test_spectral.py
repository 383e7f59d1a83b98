import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import check_COLA

from ssk.spectral import (ComplexSpectrogram, StftConfig, StftConfigError,
                          build_kernel, hann_periodic, istft, lps, stft)

from oracles import FS, PAPER_STFT, loop_istft, naive_stft


class TestConfig:
    def test_default_bins(self, cfg_default):
        assert cfg_default.num_bins == 33
        assert cfg_default.win_len == 40
        assert cfg_default.hop == 20

    def test_hop_bounds(self):
        with pytest.raises(StftConfigError):
            StftConfig(window=hann_periodic(40), fft_size=64, hop=41, sample_rate=FS)

    def test_fft_shorter_than_window(self):
        with pytest.raises(StftConfigError):
            StftConfig(window=hann_periodic(40), fft_size=32, hop=20, sample_rate=FS)

    def test_freqs(self, cfg_default):
        npt.assert_allclose(cfg_default.freqs[:3], [0.0, 250.0, 500.0])


class TestBuildKernel:
    def test_dc_row_is_window(self, cfg_default):
        real, imag = build_kernel(cfg_default)
        npt.assert_allclose(real[0], cfg_default.window)
        npt.assert_allclose(imag[0], 0.0)

    def test_default_shape_33x40(self, cfg_default):
        real, imag = build_kernel(cfg_default)
        assert real.shape == (33, 40)
        assert imag.shape == (33, 40)

    def test_row_energy_equals_window_energy(self, cfg_default):
        # cos^2 + sin^2 collapses each row pair to sum(w^2), checked by
        # direct summation.
        real, imag = build_kernel(cfg_default)
        expected = float(np.sum(cfg_default.window ** 2))
        for m in range(1, 32):
            row = float(np.sum(real[m] ** 2 + imag[m] ** 2))
            npt.assert_allclose(row, expected, rtol=1e-12)

    def test_cola_violation_rejected(self):
        with pytest.raises(StftConfigError, match="COLA"):
            StftConfig(window=hann_periodic(40), fft_size=64, hop=13, sample_rate=FS)

    @pytest.mark.parametrize("window, hop, fft_size",
                             [(hann_periodic(40), h, 64) for h in range(1, 41)]
                             + [(np.ones(40), 40, 64), (hann_periodic(256), 128, 256),
                                # COLA with a hop that does not divide the length.
                                (np.r_[np.ones(30), np.zeros(15)], 10, 64)])
    def test_cola_check_agrees_with_scipy(self, window, hop, fft_size, rng):
        if check_COLA(window, window.size, window.size - hop):
            cfg = StftConfig(window=window, fft_size=fft_size, hop=hop, sample_rate=FS)
            # The blockwise overlap-add sums in the per-frame loop's order.
            shape = (45, cfg.num_bins)
            data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            npt.assert_array_equal(istft(ComplexSpectrogram(data, cfg)),
                                   loop_istft(data, window, fft_size, hop))
        else:
            with pytest.raises(StftConfigError, match="COLA"):
                StftConfig(window=window, fft_size=fft_size, hop=hop, sample_rate=FS)


class TestStft:
    def test_tone_peaks_at_its_bin(self):
        # Rectangular window so the only leakage is the zero-padded
        # Dirichlet kernel, whose peak stays at the tone bin.
        cfg = StftConfig(window=np.ones(40), fft_size=64, hop=40, sample_rate=FS)
        m0 = 8
        t = np.arange(16000) / 16000.0
        tone = np.cos(2.0 * np.pi * (m0 * 16000 / 64) * t)
        spec = stft(tone, cfg)
        assert (np.abs(spec.data).argmax(axis=1) == m0).all()

    def test_zero_signal(self, cfg_default):
        spec = stft(np.zeros(1000), cfg_default)
        npt.assert_array_equal(spec.data, 0.0)

    def test_matches_naive_dft_oracle(self, cfg_default, rng):
        x = rng.standard_normal(4000)
        ours = stft(x, cfg_default).data
        ref = naive_stft(x, cfg_default.window, cfg_default.fft_size, cfg_default.hop)
        npt.assert_allclose(np.abs(ours), np.abs(ref), rtol=1e-6, atol=1e-12)

    def test_short_signal_rejected(self, cfg_default):
        with pytest.raises(ValueError):
            stft(np.zeros(10), cfg_default)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31 - 1))
    def test_linearity(self, a, b, seed):
        cfg = PAPER_STFT
        r = np.random.default_rng(seed)
        x = r.standard_normal(400)
        y = r.standard_normal(400)
        lhs = stft(a * x + b * y, cfg).data
        rhs = a * stft(x, cfg).data + b * stft(y, cfg).data
        npt.assert_allclose(lhs, rhs, atol=1e-9)

    def test_parseval_rectangular_no_overlap(self, rng):
        # hop == window length, rectangular window: per-frame energy in
        # time equals the rfft-style band sum divided by N.
        cfg = StftConfig(window=np.ones(40), fft_size=64, hop=40, sample_rate=FS)
        x = rng.standard_normal(800)
        spec = stft(x, cfg).data
        for t in range(spec.shape[0]):
            frame = x[t * 40:(t + 1) * 40]
            time_energy = float(np.sum(frame ** 2))
            band = (np.abs(spec[t, 0]) ** 2 + np.abs(spec[t, 32]) ** 2
                    + 2.0 * np.sum(np.abs(spec[t, 1:32]) ** 2))
            npt.assert_allclose(band / 64.0, time_energy, rtol=1e-6)


class TestIstft:
    def test_round_trip_interior(self, cfg_default, rng):
        x = rng.standard_normal(16000)
        y = istft(stft(x, cfg_default))
        lo, hi = cfg_default.win_len, y.size - cfg_default.win_len
        err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
        assert err < 1e-6

    def test_zero_spec(self, cfg_default):
        spec = ComplexSpectrogram(data=np.zeros((50, 33), dtype=complex),
                                  config=cfg_default)
        npt.assert_array_equal(istft(spec), 0.0)

    def test_all_ones_mask_is_identity(self, cfg_default, rng):
        x = rng.standard_normal(4000)
        spec = stft(x, cfg_default)
        masked = ComplexSpectrogram(data=spec.data * np.ones_like(spec.data.real),
                                    config=cfg_default)
        npt.assert_allclose(istft(masked), istft(spec), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("window, hop, fft_size",
                             [(hann_periodic(40), 20, 64), (hann_periodic(256), 128, 256),
                              (np.r_[np.ones(30), np.zeros(15)], 10, 64)])
    def test_normaliser_is_kept_per_frame_count(self, window, hop, fft_size, rng):
        # One config inverts spectrograms of several lengths, in turn and
        # again; each keeps its own normaliser and matches the loop inverse.
        cfg = StftConfig(window=window, fft_size=fft_size, hop=hop, sample_rate=FS)
        for num_frames in (45, 7, 45, 120, 7):
            data = (rng.standard_normal((num_frames, cfg.num_bins))
                    + 1j * rng.standard_normal((num_frames, cfg.num_bins)))
            y = istft(ComplexSpectrogram(data, cfg))
            npt.assert_array_equal(y, loop_istft(data, window, fft_size, hop))
            assert y.flags.writeable


class TestLps:
    def test_unit_magnitude_is_zero_db(self, cfg_default):
        spec = ComplexSpectrogram(data=np.ones((2, 33), dtype=complex), config=cfg_default)
        npt.assert_allclose(lps(spec), 0.0, atol=1e-10)

    def test_magnitude_ten_is_twenty_db(self, cfg_default):
        spec = ComplexSpectrogram(data=10.0 * np.ones((1, 33), dtype=complex),
                                  config=cfg_default)
        npt.assert_allclose(lps(spec), 20.0, atol=1e-10)

    def test_zero_bin_floors_at_minus_120(self, cfg_default):
        spec = ComplexSpectrogram(data=np.zeros((1, 33), dtype=complex), config=cfg_default)
        npt.assert_allclose(lps(spec), -120.0)
