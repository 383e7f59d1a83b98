"""Oracle T-F masks, a directional heuristic mask, mask application and a
delay-and-sum beamforming baseline.

Oracle masks (IBM/IRM/IPSM) are computed from ground-truth source images at
their own analysis configuration (16 ms Hann, 256-point FFT by default) and
applied with the mixture phase. The directional heuristic is a non-neural
stand-in that turns AF/DPR evidence into a soft mask; its numbers are this
toolkit's own, not a published reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import MicArray, SourceDirection, tdoa
from .spectral import ComplexSpectrogram, StftConfig, build_kernel, istft, stft
from .spatial_features import multichannel_stft

MASK_EPS = 1e-12


class MaskKind(enum.Enum):
    IBM = "ibm"
    IRM = "irm"
    IPSM = "ipsm"
    DIRECTIONAL_HEURISTIC = "heuristic"


@dataclass(frozen=True, eq=False)
class Mask:
    """T x F real mask tied to the analysis config it was computed with."""

    values: np.ndarray
    config: StftConfig
    kind: MaskKind

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("mask must be (frames, bins)")


@dataclass(frozen=True, eq=False)
class SeparationResult:
    """Estimated reference-channel waveform plus method metadata."""

    estimate: np.ndarray
    sample_rate: int
    method: str
    azimuth: float | None = None


def oracle_mask(target_image_ref: np.ndarray,
                other_images_ref: Sequence[np.ndarray],
                kind: MaskKind,
                oracle_cfg: StftConfig | None = None) -> Mask:
    """Ideal mask from ground-truth reference-channel images.

    With S the target spectrum, I_c the interference spectra and
    Y = S + sum(I_c):

        IBM  = 1 where |S| > max_c |I_c|, else 0 (ties to 0)
        IRM  = |S| / (|S| + sum_c |I_c|)        (magnitude form)
        IPSM = clip(|S| * cos(angle(S) - angle(Y)) / |Y|, 0, 1)
    """
    if kind not in (MaskKind.IBM, MaskKind.IRM, MaskKind.IPSM):
        raise ValueError(f"{kind} is not an oracle mask kind")
    cfg = oracle_cfg if oracle_cfg is not None else StftConfig.oracle_mask_default()
    kernel = build_kernel(cfg)
    tgt = stft(target_image_ref, kernel).data
    others = [stft(o, kernel).data for o in other_images_ref]
    mix = tgt + sum(others) if others else tgt.copy()

    tgt_mag = np.abs(tgt)
    if kind is MaskKind.IBM:
        if others:
            strongest = np.max(np.stack([np.abs(o) for o in others]), axis=0)
        else:
            strongest = np.zeros_like(tgt_mag)
        values = (tgt_mag > strongest).astype(float)
    elif kind is MaskKind.IRM:
        interf = sum(np.abs(o) for o in others) if others else 0.0
        values = tgt_mag / (tgt_mag + interf + MASK_EPS)
    else:
        cos_term = np.cos(np.angle(tgt) - np.angle(mix))
        values = np.clip(tgt_mag * cos_term / (np.abs(mix) + MASK_EPS), 0.0, 1.0)
    return Mask(values=values, config=cfg, kind=kind)


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
    return Mask(values=values, config=cfg, kind=MaskKind.DIRECTIONAL_HEURISTIC)


def apply_mask(mixture_ref: np.ndarray, mask: Mask, cfg: StftConfig) -> SeparationResult:
    """Reconstruct with the mixture phase: istft(mask * stft(mixture)).

    Output is padded/trimmed to the mixture length; the trailing partial
    frame and boundary windows carry reconstruction error as usual.
    """
    if not mask.config.matches(cfg):
        raise ValueError("mask config does not match the application config")
    if mask.values.shape[1] != cfg.num_bins:
        raise ValueError("mask bin count does not match config")
    kernel = build_kernel(cfg)
    mix = np.asarray(mixture_ref, dtype=float).ravel()
    spec = stft(mix, kernel)
    if mask.values.shape[0] != spec.num_frames:
        raise ValueError(
            f"mask has {mask.values.shape[0]} frames, mixture analyzes to {spec.num_frames}")
    masked = ComplexSpectrogram(data=spec.data * mask.values, config=cfg)
    est = istft(masked, kernel)
    out = np.zeros(mix.size)
    n = min(mix.size, est.size)
    out[:n] = est[:n]
    return SeparationResult(estimate=out, sample_rate=cfg.sample_rate,
                            method=mask.kind.value)


def das_beamform(mixture: np.ndarray, azimuth: float, array: MicArray,
                 cfg: StftConfig | None = None) -> SeparationResult:
    """Delay-and-sum beamformer steered at ``azimuth``: per-bin w^H Y with
    w_j = exp(-i*2*pi*f*delay_j)/J, inverted by overlap-add."""
    cfg = cfg if cfg is not None else StftConfig.default()
    wav = np.atleast_2d(np.asarray(mixture, dtype=float))
    if wav.shape[0] != array.num_mics:
        raise ValueError(f"{wav.shape[0]} channels for a {array.num_mics}-mic array")
    kernel = build_kernel(cfg)
    spec = multichannel_stft(wav, kernel)
    delays = tdoa(array, SourceDirection(azimuth))
    weights = np.exp(-2.0j * np.pi * cfg.freqs[:, None] * delays[None, :]) / array.num_mics
    beamformed = np.einsum("fj,jtf->tf", np.conj(weights), spec.data)
    est = istft(ComplexSpectrogram(data=beamformed, config=cfg), kernel)
    n = wav.shape[1]
    out = np.zeros(n)
    m = min(n, est.size)
    out[:m] = est[:m]
    return SeparationResult(estimate=out, sample_rate=cfg.sample_rate,
                            method="das", azimuth=float(azimuth))
