"""Command line driver: simulate | features | separate | evaluate | perturb.

Every subcommand is deterministic under a fixed --seed. Log level comes
from the SSK_LOG environment variable (DEBUG/INFO/WARNING/ERROR). A
subcommand parses its flags, calls its stage function and prints a summary;
the stage writes every output file, under the batch rule of
:mod:`ssk.stages`, and this module writes none. If any utterance failed, it
exits 1 with the rule's one line that lists each failure. The analysis is
the paper's fixed front end (:meth:`ssk.pipeline.PipelineConfig.default`),
so no subcommand takes an STFT or grid flag.

The parser needs only the names in :mod:`ssk.stages`. Each subcommand
imports its stage module when it runs and looks its stage function up
there at call time: ``simulate`` loads :mod:`ssk.simulation`, ``evaluate``
:mod:`ssk.evaluation`, and ``features``, ``separate`` and ``perturb``
:mod:`ssk.pipeline`, so no process pays for the modules of another stage.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from .dataset_io import read_manifest
from .geometry import circular_array
from .stages import CONDS, FEATURE_BLOCKS, INPUT_ERRORS, METHODS, SYNTH_KIND_NAMES

log = logging.getLogger("ssk")


def _setup_logging() -> None:
    level = os.environ.get("SSK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _at_least(low: int):
    """argparse type of an integer flag: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is less than {low}")
        return int(text)
    return integer


def _finite_from(low: float, strict: bool):
    """argparse type of a float flag: a finite number >= ``low``, or > with ``strict``."""
    def number(text: str) -> float:
        value = _finite(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"{text!r} is not {'>' if strict else '>='} {low:g}")
        return value + 0.0  # "-0" reads as 0.0, not -0.0
    return number


def _magnitudes(text: str) -> list[float]:
    """argparse type of a comma list of error magnitudes (each >= 0); at least one."""
    values = [_finite_from(0.0, strict=False)(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no numbers")
    return values


# --seed of separate and perturb: the rule of pipeline.separate_dataset.
_SIGN_SEED_HELP = ("error-sign seed: target t of the manifest's utterance i is steered at "
                   "minus the error if random.Random(f'{seed}/{i}/{t}').random() < 0.5")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssk",
        description="Direction-informed multi-channel target speech separation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render reverberant scenes and a manifest")
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--num-scenes", type=_at_least(0), default=50)
    p_sim.add_argument("--num-speakers", type=int, default=2, choices=(1, 2, 3))
    p_sim.add_argument("--duration", type=_finite_from(0.0, strict=True), default=2.0,
                       help="dry source duration in seconds")
    p_sim.add_argument("--source-dir", default=None,
                       help="directory of mono WAVs to use as dry sources")
    p_sim.add_argument("--synth-kind", default="speech", choices=SYNTH_KIND_NAMES,
                       help="builtin synthetic source type (used without --source-dir)")
    p_sim.add_argument("--jobs", type=_at_least(1), default=1)
    p_sim.add_argument("--array-diameter", type=_finite, default=0.07,
                       help="circular array diameter in meters")
    p_sim.add_argument("--num-mics", type=_at_least(1), default=6, help="microphone count")
    p_sim.add_argument("--sample-rate", type=_at_least(1), default=16000, help="sample rate, Hz")

    p_feat = sub.add_parser("features", help="extract feature files per utterance/target")
    p_feat.add_argument("--manifest", required=True)
    p_feat.add_argument("--out", required=True, help="feature output directory")
    p_feat.add_argument("--features", default="lps,cosipd,af,dpr",
                        help="comma list from " + ",".join(FEATURE_BLOCKS))
    p_feat.add_argument("--cond", default="tgt", choices=CONDS)
    p_feat.add_argument("--jobs", type=_at_least(1), default=1)

    p_sep = sub.add_parser("separate", help="run a separation method over a manifest")
    p_sep.add_argument("--manifest", required=True)
    p_sep.add_argument("--out", required=True, help="estimate output directory")
    p_sep.add_argument("--method", required=True, choices=METHODS)
    p_sep.add_argument("--cond", default="tgt", choices=CONDS)
    p_sep.add_argument("--alpha", type=_finite_from(0.0, strict=False), default=1.0,
                       help="heuristic AF weight")
    p_sep.add_argument("--beta", type=_finite_from(0.0, strict=False), default=1.0,
                       help="heuristic DPR weight")
    p_sep.add_argument("--direction-error-deg", type=_finite_from(0.0, strict=False),
                       default=0.0, help="perturb the target azimuth by this magnitude, "
                       "random sign")
    p_sep.add_argument("--seed", type=int, default=0, help=_SIGN_SEED_HELP)
    p_sep.add_argument("--jobs", type=_at_least(1), default=1)

    p_eval = sub.add_parser("evaluate", help="score estimates against reference images")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--estimates", required=True, help="directory of estimate WAVs")
    p_eval.add_argument("--out", required=True, help="report path prefix")
    p_eval.add_argument("--method", default="", help="method label for the report")

    p_pert = sub.add_parser("perturb", help="direction-error sweep for the heuristic")
    p_pert.add_argument("--manifest", required=True)
    p_pert.add_argument("--out", required=True, help="sweep output directory")
    p_pert.add_argument("--direction-error-deg", default="0,1,2,3,4,5,6,7,8,9,10",
                        type=_magnitudes, help="comma list of error magnitudes in degrees")
    p_pert.add_argument("--seed", type=int, default=0, help=_SIGN_SEED_HELP)
    p_pert.add_argument("--cond", default="tgt", choices=CONDS)
    p_pert.add_argument("--jobs", type=_at_least(1), default=1)

    return parser


def cmd_simulate(args) -> int:
    from . import simulation

    manifest = simulation.simulate_dataset(
        args.out, args.num_scenes, args.num_speakers, args.seed,
        circular_array(args.num_mics, args.array_diameter), args.sample_rate,
        duration=args.duration, synth_kind=args.synth_kind,
        source_dir=args.source_dir, jobs=args.jobs)
    hist = simulation.angle_difference_histogram(manifest)
    print(f"wrote {len(manifest.utterances)} scenes to {args.out}")
    print("angle-difference bins: " +
          ", ".join(f"{label}: {count}" for label, count in hist.items()))
    return 0


def cmd_features(args) -> int:
    from . import pipeline

    manifest = read_manifest(args.manifest)
    paths = pipeline.build_features(manifest, args.out, pipeline.parse_features(args.features),
                                    cond=args.cond, jobs=args.jobs)
    print(f"wrote {len(paths)} feature files to {args.out}")
    return 0


def cmd_separate(args) -> int:
    from . import pipeline

    manifest = read_manifest(args.manifest)
    run = pipeline.Run(Path(args.out), args.direction_error_deg, args.alpha, args.beta)
    paths, _ = pipeline.separate_dataset(manifest, [run], args.method, cond=args.cond,
                                         error_seed=args.seed, jobs=args.jobs)
    print(f"wrote {len(paths)} estimates to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from . import evaluation

    manifest = read_manifest(args.manifest)
    report = evaluation.evaluate_dataset(manifest, args.estimates, args.out, method=args.method)
    for b in report.bins:
        mean = "-" if b.mean_si_sdri is None else f"{b.mean_si_sdri:.2f}"
        print(f"bin {b.label:>6}: count {b.count:4d}  mean SI-SDRi {mean} dB")
    overall = "-" if report.overall_mean is None else f"{report.overall_mean:.2f}"
    print(f"overall: count {report.overall_count}  mean SI-SDRi {overall} dB")
    return 0


def cmd_perturb(args) -> int:
    from . import pipeline

    manifest = read_manifest(args.manifest)
    sweep = pipeline.perturb_sweep(manifest, args.out, args.direction_error_deg, args.seed,
                                   cond=args.cond, jobs=args.jobs)
    for variant, rows in sweep["variants"].items():
        for row in rows:
            gt15 = "-" if row["mean_gt15"] is None else f"{row['mean_gt15']:.2f}"
            overall = "-" if row["overall"] is None else f"{row['overall']:.2f}"
            print(f"{variant:>7} error {row['error_deg']:4.1f} deg: "
                  f">15deg {gt15} dB, overall {overall} dB")
    print(f"wrote {Path(args.out) / 'sweep.json'} and {Path(args.out) / 'sweep.csv'}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "features": cmd_features,
    "separate": cmd_separate,
    "evaluate": cmd_evaluate,
    "perturb": cmd_perturb,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
