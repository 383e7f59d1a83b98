"""Benchmark of the ``ssk`` CLI on generated inputs.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times fresh ``python -m ssk.cli`` processes (``--jobs 1``)
and prints the end-to-end metrics. ``--trace 1`` runs the same commands
in-process under the span tracer and prints the per-layer metrics. Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread, here and in every child, so a run measures one core's
# work and ``--jobs`` compares the thread pool alone. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from gate import Gate, file_digest, tree_digest  # noqa: E402
from inputs import first_source_digest, write_source_pool  # noqa: E402
from spans import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

SETUP_REPEATS = 3
MIN_REPEATS = 2
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.pop("SSK_LOG", None)
    return env


def run_process(args: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one fresh process; returns (exit code, wall s, its own peak RSS MB).

    ``os.wait4`` gives the resource usage of this child alone, not the
    running maximum over all children that ``RUSAGE_CHILDREN`` keeps.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=log, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(cmd: Command, log_path: Path) -> tuple[int, float, float]:
    return run_process([sys.executable, "-m", "ssk.cli", *cmd.argv], log_path)


def output_digest(cmd: Command) -> str:
    """Digest of everything ``cmd`` wrote, for byte-identity checks."""
    out = Path(cmd.option("--out"))
    if cmd.name == "evaluate":
        return file_digest([out.with_suffix(".json"), out.with_suffix(".csv")])
    return tree_digest(out)


def compare_runs(gate: Gate, first: list[Command], second: list[Command]) -> None:
    for a, b in zip(first, second):
        gate.mismatch(a.name, output_digest(a), output_digest(b))


def check_seed_changes_inputs(gate: Gate, seed: int) -> None:
    gate.op(None if first_source_digest(seed) != first_source_digest(seed + 1)
            else f"seeds {seed} and {seed + 1} gave identical inputs")


def setup(w: Workload, work: Path, seed: int, gate: Gate) -> tuple[Path, float]:
    """Generate the workload's inputs ``SETUP_REPEATS`` times; returns the last
    set-up directory and the median set-up time. Repeats must agree byte
    for byte."""
    times, digests, setup_dir = [], [], work
    for k in range(SETUP_REPEATS):
        setup_dir = work / f"setup{k}"
        start = time.perf_counter()
        write_source_pool(setup_dir / "pool", seed)
        cmds = w.setup_commands(setup_dir, setup_dir / "pool")
        for cmd in cmds:
            gate.check(cmd, run_cli(cmd, work / "setup.log")[0])
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(setup_dir))
        if k:
            gate.mismatch("set-up", digests[0], digests[-1])
            shutil.rmtree(work / f"setup{k - 1}")
    return setup_dir, statistics.median(times)


def timed_runs(w: Workload, work: Path, setup_dir: Path, seed: int, seconds: float,
               gate: Gate) -> dict[str, float]:
    """Repeat the workload's command sequence in fresh processes, at least
    ``MIN_REPEATS`` times and then while the next repetition still fits in
    ``seconds``; report the median per-repetition wall time and peak RSS.
    Every repetition must write the same bytes as the first."""
    walls, rss, first = [], [], None
    start = time.perf_counter()
    while True:
        k = len(walls)
        out = work / f"run{k}"
        cmds = w.commands(setup_dir, setup_dir / "pool", out, seed)
        results = [run_cli(cmd, work / "run.log") for cmd in cmds]
        walls.append(sum(r[1] for r in results))
        rss.append(max(r[2] for r in results))
        for cmd, (code, _, _) in zip(cmds, results):
            gate.check(cmd, code)
        if first is None:
            first = cmds
        else:
            compare_runs(gate, first, cmds)
            shutil.rmtree(out)
        if len(walls) >= MIN_REPEATS and time.perf_counter() - start + walls[-1] > seconds:
            break
    return {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss)}


def import_seconds(work: Path) -> float:
    code = ("import time; t = time.perf_counter(); import ssk.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        log = work / "import.log"
        log.unlink(missing_ok=True)
        rc, _, _ = run_process([sys.executable, "-c", code], log)
        if rc != 0:
            raise RuntimeError(f"import ssk.cli failed: {log.read_text()}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times)


def in_process(cli, cmds: list[Command], gate: Gate, tracer: Tracer | None = None) -> list[float]:
    """Call ``ssk.cli.main`` for each command in this process; returns walls."""
    walls = []
    for cmd in cmds:
        main = cli.main if tracer is None else tracer.wrap(f"cli.{cmd.name}", cli.main)
        if tracer is not None:
            tracer.command = cmd.name
        errors = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
            try:
                code = main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        walls.append(time.perf_counter() - start)
        if code != 0:
            print(errors.getvalue(), end="", file=sys.stderr)
        gate.check(cmd, code)
    return walls


def traced_run(w: Workload, work: Path, seed: int, gate: Gate) -> dict[str, float]:
    """Per-layer metrics from in-process passes over the workload.

    A first untraced pass over the set-up and timed commands warms caches
    and lazy imports and is the reference output. Then a traced pass over
    the same commands, an untraced pass over the timed commands (the base
    for the tracing overhead), and the jobs-capable timed commands again at
    ``--jobs 2``. Every pass must write byte-identical outputs.
    """
    import_s = import_seconds(work)
    sys.path.insert(0, str(SRC))
    import ssk.cli as cli

    pool = work / "pool"
    write_source_pool(pool, seed)
    check_seed_changes_inputs(gate, seed)
    n_setup = len(w.setup_commands(work, pool))

    def commands(tag: str) -> list[Command]:
        d = work / tag
        return w.setup_commands(d, pool) + w.commands(d, pool, d / "out", seed)

    warm, traced = commands("warm"), commands("traced")
    in_process(cli, warm, gate)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced_walls = in_process(cli, traced, gate, tracer)
    finally:
        uninstall()
    compare_runs(gate, warm, traced)

    plain = w.commands(work / "warm", pool, work / "plain", seed)
    plain_walls = in_process(cli, plain, gate)
    compare_runs(gate, warm[n_setup:], plain)
    jobs1 = [(c, t) for c, t in zip(plain, plain_walls) if c.jobs_capable]
    jobs2 = [c.with_jobs(2) for c in w.commands(work / "warm", pool, work / "jobs2", seed)
             if c.jobs_capable]
    jobs2_walls = in_process(cli, jobs2, gate)
    compare_runs(gate, [c for c, _ in jobs1], jobs2)

    manifest = w.data_dir(work / "warm", work / "warm" / "out") / "manifest.json"
    utterances = len(json.loads(manifest.read_text())["utterances"])
    tracer.write(WORK_ROOT / "traces" / f"{w.name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer.spans, utterances)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced_walls[n_setup:]) / sum(plain_walls) - 1.0)
    metrics["pipeline.jobs2_speedup"] = sum(t for _, t in jobs1) / sum(jobs2_walls)
    metrics["separation.boundary_spike_share"] = gate.spiky / max(gate.estimates, 1)
    return metrics


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared
    in BENCHMARK.json."""
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ssk" / "cli.py").is_file():
        print(f"error: no ssk sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    gate = Gate()
    work = WORK_ROOT / f"work-{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            values = traced_run(w, work, args.seed, gate)
            declared = units("per_layer")
        else:
            # Compile bytecode and fill the page cache before anything is timed.
            run_process([sys.executable, "-c", "import ssk.cli"], work / "warmup.log")
            setup_dir, setup_s = setup(w, work, args.seed, gate)
            check_seed_changes_inputs(gate, args.seed)
            values = timed_runs(w, work, setup_dir, args.seed, args.seconds, gate)
            values["setup_s"] = setup_s
            values["si_sdri_db"] = gate.si_sdri_db()
            if not math.isfinite(values["si_sdri_db"]):
                gate.op("si_sdri_db is not finite")
            declared = units("end_to_end")
        for problem in gate.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if not gate.correct:
            for log in sorted(work.glob("*.log")):
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print(f"--- {log.name}", *tail, sep="\n", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A failed run may hold NaN, which is not JSON; it is reported as null.
    metrics = {name: {"value": values[name] if math.isfinite(values[name]) else None,
                      "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
