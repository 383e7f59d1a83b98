"""The evaluation stage: SI-SDR of every estimate against its reference image.

It reads only reference-mic rows of the dataset WAVs
(:meth:`~ssk.dataset_io.Manifest.read`), runs under the batch rule of
:mod:`ssk.stages` and writes its report, ``<out>.json`` and ``<out>.csv``,
as the rule's summary files; it loads none of the analysis or simulation modules.
:func:`_record` is the one scoring rule, shared with the direction-error
sweep of :mod:`ssk.pipeline`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset_io import DataFormatError, Manifest, UtteranceEntry, read_wav, write_json
from .metrics import EvalRecord, EvalReport, aggregate, si_sdr
from .stages import _each


def _record(entry: UtteranceEntry, target: int, est: np.ndarray, reference: np.ndarray,
            si_sdr_mix: float) -> EvalRecord:
    src = entry.sources[target]
    return EvalRecord(utterance_id=entry.stem(target), target_azimuth=src.azimuth_deg,
                      angle_difference=src.angle_difference_deg,
                      si_sdr_est=si_sdr(est, reference), si_sdr_mix=si_sdr_mix)


def evaluate_dataset(manifest: Manifest, estimates_dir, out, method: str) -> EvalReport:
    """Score every (utterance, target) estimate ``<utterance>_tgt<k>.wav`` in
    ``estimates_dir`` against its reverberant image at the manifest's
    reference mic, one utterance at a time in manifest order, then write the
    report labelled ``method`` to ``<out>.json`` and ``<out>.csv`` and return
    it. An estimate that is missing, unreadable, not mono or not as long as
    the mixture fails its utterance, with a message that names the file."""

    def one(index: int, written: list[Path]) -> list[EvalRecord]:
        entry = manifest.utterances[index]
        mixture = manifest.read(entry.mixture, ref_row=True)
        records = []
        for target, src in enumerate(entry.sources):
            est_path = Path(estimates_dir) / f"{entry.stem(target)}.wav"
            est, _ = read_wav(est_path, expected_rate=manifest.sample_rate)
            if est.shape != (1, mixture.size):
                raise DataFormatError(f"{est_path}: estimate has {est.shape[0]} channel(s) of "
                                      f"{est.shape[1]} samples; expected 1 channel of "
                                      f"{mixture.size}, the mixture's length")
            reference = manifest.read(src.image, ref_row=True)
            records.append(_record(entry, target, est[0], reference, si_sdr(mixture, reference)))
        return records

    json_path, csv_path = Path(f"{out}.json"), Path(f"{out}.csv")
    results = _each(one, [e.id for e in manifest.utterances], 1, [json_path, csv_path])
    report = aggregate([rec for recs in results for rec in recs], method=method)
    write_json(json_path, report.to_dict())
    report.write_csv(csv_path)
    return report
