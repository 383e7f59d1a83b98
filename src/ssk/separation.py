"""Oracle T-F masks, a directional heuristic mask, mask application and a
delay-and-sum beamforming baseline.

Every function here works in the T-F domain and runs no analysis of its
own: it takes spectrograms (and AF/DPR maps) built once per utterance by
``pipeline.UtteranceAnalysis`` and its ``spatial_features.SpatialAnalysis``
(or by :func:`~ssk.spectral.stft` directly) and returns masks or
reference-channel waveforms. Oracle masks (IBM/IRM/IPSM) are computed from
ground-truth source-image spectrograms at their own analysis configuration
(16 ms Hann, 256-point FFT by default) and applied with the mixture phase.
The directional heuristic is a non-neural stand-in that turns AF/DPR
evidence into a soft mask; its numbers are this toolkit's own, not a
published reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import MicArray
from .spectral import ComplexSpectrogram, StftConfig, istft
from .spatial_features import beam, das_weights

MASK_EPS = 1e-12


class MaskKind(enum.Enum):
    IBM = "ibm"
    IRM = "irm"
    IPSM = "ipsm"


@dataclass(frozen=True, eq=False)
class Mask:
    """T x F real mask tied to the analysis config it was computed with."""

    values: np.ndarray
    config: StftConfig

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("mask must be (frames, bins)")


def oracle_mask(target: ComplexSpectrogram, others: Sequence[ComplexSpectrogram],
                kind: MaskKind) -> Mask:
    """Ideal mask from the spectrograms of ground-truth reference-channel
    images; every interferer must share the target's analysis config.

    With S the target spectrum, I_c the interference spectra and
    Y = S + sum(I_c):

        IBM  = 1 where |S| > max_c |I_c|, else 0 (ties to 0)
        IRM  = |S| / (|S| + sum_c |I_c|)        (magnitude form)
        IPSM = clip(Re(S conj(Y)) / (|Y| (|Y| + eps)), 0, 1), 0 where Y = 0
               (|S| cos(angle(S) - angle(Y)) / |Y|, without taking an angle)
    """
    cfg = target.config
    if not all(o.config.matches(cfg) for o in others):
        raise ValueError("interference spectrogram config differs from the target's")
    tgt = target.data
    intf = [o.data for o in others]

    tgt_mag = np.abs(tgt)
    if kind is MaskKind.IBM:
        if intf:
            strongest = np.max(np.stack([np.abs(o) for o in intf]), axis=0)
        else:
            strongest = np.zeros_like(tgt_mag)
        values = (tgt_mag > strongest).astype(float)
    elif kind is MaskKind.IRM:
        interf = sum(np.abs(o) for o in intf) if intf else 0.0
        values = tgt_mag / (tgt_mag + interf + MASK_EPS)
    else:
        mix = tgt + sum(intf)
        mix_mag = np.abs(mix)
        denom = mix_mag * (mix_mag + MASK_EPS)
        proj = tgt.real * mix.real + tgt.imag * mix.imag  # 0 wherever Y = 0
        values = np.clip(proj / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)
    return Mask(values=values, config=cfg)


def directional_mask(af_tgt: np.ndarray, dpr_tgt: np.ndarray,
                     af_intf: np.ndarray | None = None,
                     dpr_intf: np.ndarray | None = None,
                     alpha: float = 1.0, beta: float = 1.0,
                     cfg: StftConfig | None = None) -> Mask:
    """Soft mask from directional evidence, values in [0, 1].

    score = (alpha * (af_tgt + 1)/2 + beta * dpr_norm) / (alpha + beta),
    where dpr_norm rescales the target DPR by its utterance maximum. When
    interference features are given, bins where the interferer beats the
    target on both AF and DPR are zeroed. ``cfg`` is the analysis config the
    feature maps were computed at (defaults to the 40/20/64 kernel).
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

    dpr_norm = dpr_tgt / max(float(dpr_tgt.max()), MASK_EPS)
    score = (alpha * (af_tgt + 1.0) / 2.0 + beta * dpr_norm) / (alpha + beta)
    if af_intf is not None and dpr_intf is not None:
        contrast = (af_tgt >= af_intf) | (dpr_tgt >= dpr_intf)
        score = score * contrast
    values = np.clip(score, 0.0, 1.0)
    cfg = cfg if cfg is not None else StftConfig.default()
    return Mask(values=values, config=cfg)


def _fit(signal: np.ndarray, length: int) -> np.ndarray:
    """``signal`` zero-padded or trimmed to ``length`` samples (a view when
    it is long enough)."""
    if signal.size >= length:
        return signal[:length]
    out = np.zeros(length)
    out[:signal.size] = signal
    return out


def apply_mask(mixture: ComplexSpectrogram, mask: Mask, length: int) -> np.ndarray:
    """Reconstruct with the mixture phase: istft(mask * mixture), padded or
    trimmed to the mixture's ``length`` samples. The trailing partial frame
    and boundary windows carry reconstruction error as usual."""
    if not mask.config.matches(mixture.config):
        raise ValueError("mask config does not match the mixture spectrogram config")
    if mask.values.shape != mixture.data.shape:
        raise ValueError(f"mask has {mask.values.shape} (frames, bins), the mixture "
                         f"spectrogram {mixture.data.shape}")
    masked = ComplexSpectrogram(data=mixture.data * mask.values, config=mixture.config)
    return _fit(istft(masked), length)


def das_beamform(spec: ComplexSpectrogram, azimuth: float, array: MicArray,
                 length: int) -> np.ndarray:
    """Delay-and-sum beamformer steered at ``azimuth`` (the :func:`beam` of
    its :func:`das_weights`), inverted by overlap-add to ``length`` samples."""
    weights = das_weights(array, [azimuth], spec.config)[0]
    return _fit(istft(ComplexSpectrogram(data=beam(spec, weights), config=spec.config)), length)
