"""The analysis and separation kernels that run once per map, estimate or
score allocate their output and at most a scratch map or two, and equal the
same formula written with a fresh array per step (``oracles``) bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssk.geometry import DirectionGrid, PairSelection, circular_array
from ssk.metrics import SI_SDR_CAP_DB, _ZERO_ERROR_RATIO, si_sdr
from ssk.separation import MASK_EPS, apply_mask, directional_mask
from ssk.spatial_features import (DPR_POWER_FLOOR, angle_feature, beam_power_total,
                                  das_filterbank, dpr, grid_factor, pair_cos_sin,
                                  pair_steering_phases)
from ssk.spectral import (BLOCK_FRAMES, ComplexSpectrogram, StftConfig, _istft_normaliser,
                          hann_periodic, istft)

import oracles
from conftest import traced_peak

# A 2 s utterance at the default analysis config: (T, F) maps of 422 KB.
FRAMES, BINS = 1599, 33
MAP = FRAMES * BINS * 8


def _spectrum(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _same(ours, ref) -> bool:
    ours, ref = np.asarray(ours), np.asarray(ref)
    return ours.shape == ref.shape and ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


class TestAllocation:
    def test_pair_cos_sin(self, cfg_default, pairs6, rng):
        spec = ComplexSpectrogram(data=_spectrum(rng, (6, FRAMES, BINS)), config=cfg_default)
        (cos, sin), peak = traced_peak(lambda: pair_cos_sin(spec, pairs6))
        # Two scratch maps and one boolean map serve every pair.
        assert peak <= cos.nbytes + sin.nbytes + 2 * MAP + MAP // 8 + MAP // 32

    def test_angle_feature(self, cfg_default, array6, pairs6, rng):
        cos, sin = rng.uniform(-1.0, 1.0, (2, len(pairs6.pairs), FRAMES, BINS))
        steer = pair_steering_phases(array6, 40.0, pairs6, cfg_default)
        keep = rng.random((FRAMES, BINS)) < 0.5
        out, peak = traced_peak(lambda: angle_feature(cos, sin, steer, keep))
        # The second einsum's map is the scratch; the premask is inverted once.
        assert peak <= out.nbytes + MAP + MAP // 8 + MAP // 32

    def test_dpr(self, cfg_default, array6, grid36, rng):
        spec = ComplexSpectrogram(data=_spectrum(rng, (6, FRAMES, BINS)), config=cfg_default)
        bank = das_filterbank(array6, grid36, cfg_default)
        total = beam_power_total(spec, grid_factor(bank))
        out, peak = traced_peak(lambda: dpr(spec, bank[3], total, 36))
        # The complex beam is the scratch; the power is squared and divided
        # in the output.
        assert peak <= out.nbytes + 2 * MAP + MAP // 32

    @staticmethod
    def _check_one_block_scratch(cfg, rng, masked):
        # A 2 s mixture: every frame but the trailing partial one.
        frames = 32_000 // cfg.hop - 1
        spec = ComplexSpectrogram(data=_spectrum(rng, (frames, cfg.num_bins)), config=cfg)
        mask = rng.random(spec.data.shape)
        run = (lambda: apply_mask(spec, mask, 32_000)) if masked else (lambda: istft(spec, 32_000))
        run()  # the normaliser is cached per (config, frame count)
        out, peak = traced_peak(run)
        # The output is a view of the overlap-add buffer. One block's inverse
        # rfft frames (and, with a mask, its masked spectrum) are the scratch:
        # window and normaliser are applied in place. The strided in-place
        # steps may each use two float64 ufunc buffers.
        overlap_add = (frames + -(-cfg.win_len // cfg.hop) - 1) * cfg.hop * 8
        block = BLOCK_FRAMES * (cfg.fft_size * 8 + (cfg.num_bins * 16 if masked else 0))
        buffers = 2 * 8 * np.getbufsize()
        assert out.size == 32_000
        assert peak <= overlap_add + block + buffers

    @pytest.mark.parametrize("cfg", [oracles.PAPER_STFT, oracles.ORACLE_STFT],
                             ids=["default", "oracle"])
    def test_istft(self, cfg, rng):
        self._check_one_block_scratch(cfg, rng, masked=False)

    @pytest.mark.parametrize("cfg", [oracles.PAPER_STFT, oracles.ORACLE_STFT],
                             ids=["default", "oracle"])
    def test_apply_mask(self, cfg, rng):
        self._check_one_block_scratch(cfg, rng, masked=True)

    @pytest.mark.parametrize("alpha, beta, intf", [(1.0, 1.0, True), (1.0, 1.0, False),
                                                   (0.5, 0.5, True), (1.0, 0.0, False)])
    def test_directional_mask(self, rng, alpha, beta, intf):
        af, af_intf = rng.uniform(-1.0, 1.0, (2, FRAMES, BINS))
        dpr_tgt, dpr_intf = rng.random((2, FRAMES, BINS))
        others = (af_intf, dpr_intf) if intf else (None, None)
        out, peak = traced_peak(lambda: directional_mask(af, dpr_tgt, *others,
                                                         alpha=alpha, beta=beta))
        # One scratch map for the DPR term, none without it.
        scratch = MAP if beta else 0
        assert peak <= out.nbytes + scratch + MAP // 32

    def test_si_sdr(self, rng):
        est, ref = rng.standard_normal((2, 32_000))
        _, peak = traced_peak(lambda: si_sdr(est, ref))
        # The zero-mean copies become the scaled reference and the residual.
        assert peak <= 2 * est.nbytes + est.nbytes // 32


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 12), st.integers(1, 9), st.floats(0.0, 0.5),
       st.integers(0, 2 ** 31 - 1))
def test_pair_cos_sin_bit_equal(mics, frames, bins, zero_share, seed):
    rng = np.random.default_rng(seed)
    shape = (mics, frames, bins)
    data = 10.0 ** rng.uniform(-3.0, 3.0, shape) * _spectrum(rng, shape)
    data[rng.random(shape) < zero_share] = 0.0
    pairs = PairSelection(tuple((a, b) for a in range(mics) for b in range(mics) if a != b))
    ours = pair_cos_sin(ComplexSpectrogram(data=data, config=oracles.PAPER_STFT), pairs)
    ref = oracles.fresh_pair_cos_sin(data, pairs)
    assert _same(ours[0], ref[0]) and _same(ours[1], ref[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 15), st.integers(1, 12), st.integers(1, 9), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 31 - 1))
def test_angle_feature_bit_equal(pairs, frames, bins, keep_share, seed):
    rng = np.random.default_rng(seed)
    cos, sin = rng.uniform(-1.0, 1.0, (2, pairs, frames, bins))
    steer = rng.uniform(-np.pi, np.pi, (pairs, bins))
    keep = rng.random((frames, bins)) < keep_share
    ours = angle_feature(cos, sin, steer, keep)
    assert _same(ours, oracles.fresh_angle_feature(cos, sin, steer, keep))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 12), st.sampled_from([-9, -6, 0, 3]),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_dpr_bit_equal(mics, frames, decade, every, seed):
    # Levels down to 1e-9 put grid totals under the power floor.
    rng = np.random.default_rng(seed)
    cfg = oracles.PAPER_STFT
    data = 10.0 ** decade * _spectrum(rng, (mics, frames, cfg.num_bins))
    data[:, rng.random((frames, cfg.num_bins)) < 0.2] = 0.0
    spec = ComplexSpectrogram(data=data, config=cfg)
    bank = das_filterbank(circular_array(mics, 0.07), DirectionGrid.uniform(30.0), cfg)
    total = beam_power_total(spec, grid_factor(bank))
    weights = bank if every else bank[int(rng.integers(bank.shape[0]))]
    ours = dpr(spec, weights, total, bank.shape[0])
    assert _same(ours, oracles.fresh_dpr(data, weights, total, bank.shape[0], DPR_POWER_FLOOR))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.sampled_from([2, 4]), st.integers(0, 32),
       st.integers(1, 3 * BLOCK_FRAMES + 20), st.none() | st.integers(-100, 100),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_istft_bit_equal(hop, overlap, pad, frames, extra, masked, seed):
    # Past BLOCK_FRAMES frames the synthesis runs in several blocks; at 4x
    # overlap a sample sums up to four frames, so their order shows in the
    # rounding. The output is padded or trimmed by ``extra`` samples past
    # those the frames cover (None: none).
    cfg = StftConfig(window=hann_periodic(overlap * hop), fft_size=overlap * hop + pad,
                     hop=hop, sample_rate=oracles.FS)
    rng = np.random.default_rng(seed)
    data = _spectrum(rng, (frames, cfg.num_bins))
    mask = rng.random(data.shape) if masked else None
    norm = _istft_normaliser(cfg, frames)
    length = max(norm.size + (extra or 0), 0)
    ours = istft(ComplexSpectrogram(data=data, config=cfg), length, mask)
    ref = oracles.fresh_istft(data if mask is None else data * mask, cfg, norm)
    assert _same(ours, oracles.fit(ref, length))


mask_weights = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]) | st.floats(0.0, 4.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), mask_weights, mask_weights, st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_directional_mask_bit_equal(frames, bins, alpha, beta, intf, seed):
    # beta = 0 and alpha + beta = 1 take the exact shortcuts.
    if alpha + beta <= 0.0:
        alpha = 1.0
    rng = np.random.default_rng(seed)
    af, af_intf = rng.uniform(-1.0, 1.0, (2, frames, bins))
    af[rng.random((frames, bins)) < 0.2] = -1.0
    dpr_tgt, dpr_intf = rng.random((2, frames, bins))
    others = (af_intf, dpr_intf) if intf else (None, None)
    ours = directional_mask(af, dpr_tgt, *others, alpha=alpha, beta=beta)
    assert _same(ours, oracles.fresh_directional_mask(af, dpr_tgt, *others, alpha, beta,
                                                      MASK_EPS))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.sampled_from(["noise", "scaled", "offset"]),
       st.integers(0, 2 ** 31 - 1))
def test_si_sdr_bit_equal(size, kind, seed):
    # A scaled copy of the reference takes the +300 dB cap.
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(size)
    est = {"noise": rng.standard_normal(size), "scaled": 0.5 * ref,
           "offset": ref + 1e-3 * rng.standard_normal(size)}[kind]
    ours = si_sdr(est, ref)
    assert _same(ours, oracles.fresh_si_sdr(est, ref, SI_SDR_CAP_DB, _ZERO_ERROR_RATIO))
