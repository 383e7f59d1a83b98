"""The three benchmark workloads as sequences of ``ssk`` CLI commands.

Each workload stresses different layers (see README.md for the table):

- ``dataset``: ``simulate`` then ``separate --method heuristic --cond
  tgt+intf`` and ``evaluate``. The only workload that times room simulation
  and the write-heavy ``simulate``.
- ``sweep``: the default ``perturb`` (11 error points x 2 variants) on a
  dataset built in set-up. Read-heavy: each mixture is re-read and
  re-analysed 22 times per target.
- ``methods``: ``features --cond tgt+intf`` and, for every method,
  ``separate`` then ``evaluate`` on a 3-speaker dataset built in set-up.
  Eleven fresh processes, so start-up and imports are half of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Fixed ``simulate --seed``: the room set (T60, size, geometry) is the same
# for every benchmark seed; the seed draws the dry signals (inputs.py). Its
# first six rooms have T60 0.44, 0.14, 0.29, 0.09, 0.27 and 0.16 s, so even
# two scenes span the default 0.05-0.5 s range.
ROOM_SEED = 7
# Every scene has three 2 s speakers; with three, the quality figure stays
# well away from 0 dB.
SPEAKERS = 3
DURATION_S = 2.0
ORACLE_METHODS = ("ibm", "irm", "ipsm")


@dataclass(frozen=True)
class Command:
    """One ``ssk`` invocation; ``argv`` excludes the program name."""

    argv: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def jobs_capable(self) -> bool:
        return "--jobs" in self.argv

    def option(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None

    def with_jobs(self, jobs: int) -> "Command":
        i = self.argv.index("--jobs")
        return Command(self.argv[:i + 1] + (str(jobs),) + self.argv[i + 2:])


def _cmd(*parts) -> Command:
    return Command(tuple(str(p) for p in parts))


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: int
    # True: the dataset is built in set-up; False: ``simulate`` is timed.
    dataset_in_setup: bool
    timed: Callable[["Workload", Path, Path, Path, int], list[Command]]

    def simulate(self, data_dir: Path, pool_dir: Path) -> Command:
        return _cmd("simulate", "--out", data_dir, "--seed", ROOM_SEED,
                    "--num-scenes", self.scenes, "--num-speakers", SPEAKERS,
                    "--duration", DURATION_S, "--source-dir", pool_dir,
                    "--jobs", 1)

    def data_dir(self, setup_dir: Path, out_dir: Path) -> Path:
        return setup_dir / "data" if self.dataset_in_setup else out_dir / "data"

    def setup_commands(self, setup_dir: Path, pool_dir: Path) -> list[Command]:
        if not self.dataset_in_setup:
            return []
        return [self.simulate(setup_dir / "data", pool_dir)]

    def commands(self, setup_dir: Path, pool_dir: Path, out_dir: Path,
                 seed: int) -> list[Command]:
        return self.timed(self, self.data_dir(setup_dir, out_dir), pool_dir,
                          out_dir, seed)


def _separate_and_evaluate(manifest: Path, out_dir: Path, method: str,
                           *extra) -> list[Command]:
    est = out_dir / f"est_{method}"
    return [_cmd("separate", "--manifest", manifest, "--out", est,
                 "--method", method, *extra, "--jobs", 1),
            _cmd("evaluate", "--manifest", manifest, "--estimates", est,
                 "--out", out_dir / f"report_{method}", "--method", method)]


def _dataset(w: Workload, data: Path, pool: Path, out: Path, seed: int) -> list[Command]:
    return [w.simulate(data, pool),
            *_separate_and_evaluate(data / "manifest.json", out, "heuristic",
                                    "--cond", "tgt+intf")]


def _sweep(w: Workload, data: Path, pool: Path, out: Path, seed: int) -> list[Command]:
    return [_cmd("perturb", "--manifest", data / "manifest.json",
                 "--out", out / "sweep", "--seed", seed, "--jobs", 1)]


def _methods(w: Workload, data: Path, pool: Path, out: Path, seed: int) -> list[Command]:
    manifest = data / "manifest.json"
    cmds = [_cmd("features", "--manifest", manifest, "--out", out / "features",
                 "--cond", "tgt+intf", "--jobs", 1)]
    for method in (*ORACLE_METHODS, "das"):
        cmds += _separate_and_evaluate(manifest, out, method)
    cmds += _separate_and_evaluate(manifest, out, "heuristic", "--cond", "tgt+intf")
    return cmds


WORKLOADS = {
    w.name: w for w in (
        Workload("dataset", scenes=6, dataset_in_setup=False, timed=_dataset),
        Workload("sweep", scenes=2, dataset_in_setup=True, timed=_sweep),
        Workload("methods", scenes=4, dataset_in_setup=True, timed=_methods),
    )
}
