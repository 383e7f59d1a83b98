"""What the CLI stages share without numeric code: the names they offer and
the batch rule they run under.

Each set of names is stated here once: the methods (:data:`ORACLE_KINDS`
first), the direction conditions, the feature blocks in stack order and the
synthetic source kinds. The parser offers them, and the stage modules key
their implementations by them.

Each stage is one batch (:func:`_each`), on ``jobs`` threads that take whole
utterances. Every utterance runs. One that fails leaves none of the files it
had written, whatever the error; an input error (:data:`INPUT_ERRORS`) then
fails only its own utterance, and one :class:`RuntimeError` lists each
failure in manifest order, so no summary file (manifest, report, sweep,
run record) is written. A stage that writes a tree removes its summary
files from it before the batch, so a failed rerun into the same directory
leaves none from the run before. Any other exception is a bug and
propagates as itself.
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


def _each(task, labels: Sequence[str], jobs: int = 1) -> list:
    """``[task(i, written) for i in range(len(labels))]`` on ``jobs`` threads
    under the batch rule. ``task`` lists in ``written`` each file it writes;
    if it raises, those files are removed. A failure keeps its message alone,
    so no traceback pins the utterance's arrays."""
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
