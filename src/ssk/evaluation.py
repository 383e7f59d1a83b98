"""The evaluation stage: SI-SDR of every estimate against its reference image.

It reads only reference-mic rows (:func:`~ssk.dataset_io.read_wav` with
``channel``) and runs under the batch rule of :mod:`ssk.stages`; it loads
none of the analysis or simulation modules. :func:`_record` is the one
scoring rule, shared with the direction-error sweep of :mod:`ssk.pipeline`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset_io import DataFormatError, Manifest, UtteranceEntry, read_wav
from .metrics import EvalRecord, EvalReport, aggregate, si_sdr
from .stages import _each


def _read(manifest: Manifest, relative: str) -> np.ndarray:
    """The reference-mic row of a manifest WAV, (n,), owning its data."""
    row, _ = read_wav(manifest.resolve(relative), expected_rate=manifest.sample_rate,
                      channel=manifest.array.ref_index)
    return row


def _record(entry: UtteranceEntry, target: int, est: np.ndarray, reference: np.ndarray,
            si_sdr_mix: float, method: str) -> EvalRecord:
    src = entry.sources[target]
    return EvalRecord(utterance_id=entry.stem(target), target_azimuth=src.azimuth_deg,
                      angle_difference=src.angle_difference_deg,
                      si_sdr_est=si_sdr(est, reference), si_sdr_mix=si_sdr_mix, method=method)


def evaluate_dataset(manifest: Manifest, estimates_dir, method: str = ""
                     ) -> tuple[EvalReport, list[EvalRecord]]:
    """Score every (utterance, target) estimate ``<utterance>_tgt<k>.wav`` in
    ``estimates_dir`` against its reverberant image at the manifest's
    reference mic, one utterance at a time in manifest order. An estimate
    that is missing, unreadable, not mono or not as long as the mixture fails
    its utterance, with a message that names the file; the batch rule of
    :mod:`ssk.stages` applies. Returns (report, records in manifest order)."""

    def one(entry: UtteranceEntry) -> list[EvalRecord]:
        mixture = _read(manifest, entry.mixture)
        records = []
        for target, src in enumerate(entry.sources):
            est_path = Path(estimates_dir) / f"{entry.stem(target)}.wav"
            est, _ = read_wav(est_path, expected_rate=manifest.sample_rate)
            if est.shape != (1, mixture.size):
                raise DataFormatError(f"{est_path}: estimate has {est.shape[0]} channel(s) of "
                                      f"{est.shape[1]} samples; expected 1 channel of "
                                      f"{mixture.size}, the mixture's length")
            reference = _read(manifest, src.image)
            records.append(_record(entry, target, est[0], reference,
                                   si_sdr(mixture, reference), method))
        return records

    entries = manifest.utterances
    records = [rec for recs in _each(one, entries, [e.id for e in entries]) for rec in recs]
    return aggregate(records, method=method), records
