"""Oracle T-F masks, a directional heuristic mask, mask application and a
delay-and-sum beamforming baseline.

Every function here works in the T-F domain and runs no analysis of its
own: it takes spectrograms (and AF/DPR maps and delay-and-sum beams) built
once per utterance by ``pipeline.UtteranceAnalysis`` and its
``spatial_features.SpatialAnalysis`` (or by :func:`~ssk.spectral.stft`
directly) and returns masks or reference-channel waveforms. A mask is a
plain (T, F) float array in [0, 1]; it carries no config.
:func:`apply_mask` and :func:`das_beamform` are single calls of
:func:`~ssk.spectral.istft`, which checks a mask's shape against the mixture
spectrogram it scales, applies it one block of frames at a time (so no whole
masked spectrogram or frame array is formed, and frames still sum in
ascending order across blocks) and writes the estimate at the mixture's
length. Oracle masks are named by :data:`ORACLE_KINDS` and computed from
ground-truth source-image spectrograms at their own analysis configuration
(16 ms Hann, 256-point FFT by default) and applied with the mixture phase.
The directional heuristic is a non-neural stand-in that turns AF/DPR
evidence into a soft mask; its numbers are this toolkit's own, not a
published reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .spectral import ComplexSpectrogram, istft
from .stages import ORACLE_KINDS

MASK_EPS = 1e-12


def oracle_mask(target: ComplexSpectrogram, others: Sequence[ComplexSpectrogram],
                kind: str) -> np.ndarray:
    """Ideal (T, F) mask of ``kind`` (one of :data:`ORACLE_KINDS`) from the
    spectrograms of ground-truth reference-channel images; every interferer
    must have the target's shape, so its analysis config.

    With S the target spectrum, I_c the interference spectra and
    Y = S + sum(I_c):

        IBM  = 1 where |S| > max_c |I_c|, else 0 (ties to 0)
        IRM  = |S| / (|S| + sum_c |I_c|)        (magnitude form)
        IPSM = clip(Re(S conj(Y)) / (|Y| (|Y| + eps)), 0, 1), 0 where Y = 0
               (|S| cos(angle(S) - angle(Y)) / |Y|, without taking an angle)
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle mask kind {kind!r}; choose from {ORACLE_KINDS}")
    tgt, intf = target.data, [o.data for o in others]
    if any(o.shape != tgt.shape for o in intf):
        raise ValueError(f"interference spectrograms {[o.shape for o in intf]} differ from "
                         f"the target's {tgt.shape}: another analysis config")
    tgt_mag = np.abs(tgt)
    if kind == "ibm":
        if intf:
            strongest = np.max(np.stack([np.abs(o) for o in intf]), axis=0)
        else:
            strongest = np.zeros_like(tgt_mag)
        return (tgt_mag > strongest).astype(float)
    if kind == "irm":
        interf = sum(np.abs(o) for o in intf) if intf else 0.0
        return tgt_mag / (tgt_mag + interf + MASK_EPS)
    mix = tgt + sum(intf)
    mix_mag = np.abs(mix)
    denom = mix_mag * (mix_mag + MASK_EPS)
    proj = tgt.real * mix.real + tgt.imag * mix.imag  # 0 wherever Y = 0
    return np.clip(proj / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)


def directional_mask(af_tgt: np.ndarray, dpr_tgt: np.ndarray,
                     af_intf: np.ndarray | None = None,
                     dpr_intf: np.ndarray | None = None, *,
                     alpha: float, beta: float) -> np.ndarray:
    """Soft mask from directional evidence, values in [0, 1], with the shape
    of the feature maps.

    score = (alpha * (af_tgt + 1)/2 + beta * dpr_norm) / (alpha + beta),
    where dpr_norm rescales the target DPR by its utterance maximum. When
    interference features are given, bins where the interferer beats the
    target on both AF and DPR are zeroed.

    The score is built in its output array with one (T, F) scratch map for
    the DPR term; that term is skipped when beta is 0 (it would add +0.0)
    and the division when alpha + beta is 1, both exactly.
    """
    af_tgt = np.asarray(af_tgt, dtype=float)
    dpr_tgt = np.asarray(dpr_tgt, dtype=float)
    if af_tgt.shape != dpr_tgt.shape:
        raise ValueError("af/dpr shapes disagree")
    for extra in (af_intf, dpr_intf):
        if extra is not None and np.asarray(extra).shape != af_tgt.shape:
            raise ValueError("interference feature shape disagrees")
    if alpha < 0 or beta < 0 or alpha + beta <= 0:
        raise ValueError("weights must be non-negative and not both zero")

    score = af_tgt + 1.0
    score *= alpha
    score /= 2.0
    if beta != 0.0:
        dpr_term = np.divide(dpr_tgt, max(float(dpr_tgt.max()), MASK_EPS))
        dpr_term *= beta
        score += dpr_term
        del dpr_term
    if alpha + beta != 1.0:
        score /= alpha + beta
    if af_intf is not None and dpr_intf is not None:
        contrast = np.greater_equal(af_tgt, af_intf)
        contrast |= np.greater_equal(dpr_tgt, dpr_intf)
        score *= contrast
    return np.clip(score, 0.0, 1.0, out=score)


def apply_mask(mixture: ComplexSpectrogram, mask: np.ndarray, length: int) -> np.ndarray:
    """Reconstruct with the mixture phase: :func:`~ssk.spectral.istft` of
    ``mask * mixture`` at the mixture's config, as the mixture's ``length``
    samples. The (T, F) ``mask`` must have the spectrogram's shape; the bin
    count tells the analysis configs in use apart. The trailing partial frame
    and boundary windows carry reconstruction error as usual."""
    return istft(mixture, length, mask)


def das_beamform(beam: ComplexSpectrogram, length: int) -> np.ndarray:
    """Delay-and-sum estimate: the (T, F) ``beam`` that the spatial analysis
    formed toward the steered azimuth, inverted by overlap-add to ``length``
    samples."""
    return istft(beam, length)
