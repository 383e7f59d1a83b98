"""What the CLI stages share without numeric code: the names they offer and
the batch rule they run under.

Each set of names is stated here once: the methods (:data:`ORACLE_KINDS`
first), the direction conditions, the feature blocks in stack order and the
synthetic source kinds. The parser offers them, and the stage modules key
their implementations by them.

Each stage is one batch (:func:`_each`), on ``jobs`` threads that take whole
utterances, and writes its whole output tree itself. Every utterance runs.
One that fails leaves none of the files it had written, whatever the error;
an input error (:data:`INPUT_ERRORS`) then fails only its own utterance, and
one :class:`RuntimeError` lists each failure in manifest order. Any other
exception is a bug and propagates as itself. A stage's summary files (the
manifest, each ``run.json``, ``sweep.json`` and ``sweep.csv``, evaluate's
``<out>.json`` and ``<out>.csv``) are removed by :func:`_each` before the
batch and written by the stage only after every utterance succeeded, so a
failed run leaves none, not even those of an earlier run.
Importing this module loads no numeric ``ssk`` module, so the CLI can build
its parser before it knows which stage to import.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

# Errors of input or run, not bugs: each fails its utterance; the CLI exits 1.
INPUT_ERRORS = (ValueError, OSError, RuntimeError)
ORACLE_KINDS = ("ibm", "irm", "ipsm")
METHODS = ORACLE_KINDS + ("heuristic", "das")
# Directions the AF and DPR blocks and the heuristic cover: the target, or
# the target and the source closest to it in angle.
CONDS = ("tgt", "tgt+intf")
FEATURE_BLOCKS = ("lps", "cosipd", "sinipd", "af", "dpr")
SYNTH_KIND_NAMES = ("speech", "noise", "am", "chirp")


def _each(task, labels: Sequence[str], jobs: int, summaries: Iterable[Path]) -> list:
    """``[task(i, written) for i in range(len(labels))]`` on ``jobs`` threads
    under the batch rule, after the stage's ``summaries`` are removed.
    ``task`` lists in ``written`` each file it writes; if it raises, those
    files are removed. A failure keeps its message alone, so no traceback
    pins the utterance's arrays."""
    for path in summaries:
        path.unlink(missing_ok=True)

    def attempt(i: int) -> tuple[bool, object]:
        written: list[Path] = []
        try:
            return True, task(i, written)
        except BaseException as exc:
            for path in written:
                path.unlink(missing_ok=True)
            if not isinstance(exc, INPUT_ERRORS):
                raise
            return False, str(exc)

    items = range(len(labels))
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(attempt, items))
    else:
        outcomes = [attempt(i) for i in items]
    failures = [f"{label}: {out}" for label, (ok, out) in zip(labels, outcomes) if not ok]
    if failures:
        raise RuntimeError(f"{len(failures)} of {len(items)} failed: " + "; ".join(failures))
    return [out for _, out in outcomes]
