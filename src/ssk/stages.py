"""What the CLI stages share without numeric code: the names they offer and
the batch rule they run under.

Each set of names is stated here once: the methods (:data:`ORACLE_KINDS`
first), the direction conditions, the feature blocks in stack order and the
synthetic source kinds. The parser offers them, and the stage modules key
their implementations by them.

Each stage is one batch (:func:`_each`), on ``jobs`` threads that take whole
items. Every item runs, and an input error (:data:`INPUT_ERRORS`) fails only
its own; one :class:`RuntimeError` then lists each failure in item order.
Importing this module loads no numeric ``ssk`` module, so the CLI can build
its parser before it knows which stage to import.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

# Errors of input or run, not bugs: each fails its utterance; the CLI exits 1.
INPUT_ERRORS = (ValueError, OSError, RuntimeError)
ORACLE_KINDS = ("ibm", "irm", "ipsm")
METHODS = ORACLE_KINDS + ("heuristic", "das")
# Directions the AF and DPR blocks and the heuristic cover: the target, or
# the target and the source closest to it in angle.
CONDS = ("tgt", "tgt+intf")
FEATURE_BLOCKS = ("lps", "cosipd", "sinipd", "af", "dpr")
SYNTH_KIND_NAMES = ("speech", "noise", "am", "chirp")


def _each(task, items: Sequence, labels: Sequence[str], jobs: int = 1) -> list:
    """``[task(x) for x in items]`` on ``jobs`` threads under the batch rule; a
    failure keeps its message alone, so no traceback pins the item's arrays."""
    def attempt(item) -> tuple[bool, object]:
        try:
            return True, task(item)
        except INPUT_ERRORS as exc:
            return False, str(exc)

    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(attempt, items))
    else:
        outcomes = [attempt(x) for x in items]
    failures = [f"{label}: {out}" for label, (ok, out) in zip(labels, outcomes) if not ok]
    if failures:
        raise RuntimeError(f"{len(failures)} of {len(items)} failed: " + "; ".join(failures))
    return [out for _, out in outcomes]


def _unwritten_on_failure(task):
    """``task(item, written)``, which lists in ``written`` each file it has
    written, as a task of ``item`` that removes those files before its
    error propagates: a failed utterance leaves none of its files."""
    def run(item):
        written: list[Path] = []
        try:
            return task(item, written)
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            raise
    return run
