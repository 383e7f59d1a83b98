"""Guards read from the syntax tree of ``src/ssk``: every member has a reader
in ``src/``, and no signature or field gives the sample rate or another run
setting a default."""

import ast
from pathlib import Path

import ssk

TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(Path(ssk.__file__).parent.glob("*.py"))}

# Members kept without a reader in src/, each for its reason.
UNREAD = {
    # The TSNF1 reader: the joint feature stacks that `features` writes are
    # for a mask estimator outside ssk, and this reads them back.
    "dataset_io.read_features",
    # The benchmark's by-name tracer (bench/spans.py LAYERS) looks these up;
    # they leave with it (ROADMAP item 7). It also names das_filterbank and
    # pipeline.__getattr__, which need no entry: the one has a reader, the
    # other is a dunder.
    "spatial_features.ipd",
    "spectral.build_kernel",
}


def _members():
    """(qualified name, name) of every top-level function and class and of
    every method."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        yield f"{module}.{node.name}.{method.name}", method.name


def test_every_member_has_a_reader_in_src():
    # The check works by name: a member counts as read when any bare name or
    # attribute in src/ spells it, so one that shares its name with another
    # member or a local passes. Dunders are called by Python. The list of
    # exceptions must match exactly, so an entry that gains a reader or is
    # deleted leaves it too.
    read = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {qualified for qualified, name in _members()
              if name not in read and not (name.startswith("__") and name.endswith("__"))}
    assert unread == UNREAD


# Run settings a caller states: the sample rate is the recording's (a
# manifest states it), and the others are the settings of simulate, separate
# and perturb. Each flag of the CLI holds its only default.
RUN_SETTINGS = {"sample_rate", "cond", "alpha", "beta", "duration", "synth_kind", "source_dir",
                "error_seed"}
# The stage functions take jobs and method from their command too. Below the
# stages two defaults of those names stay: stages._each(jobs=1) runs a batch
# on one thread for evaluate, which has no --jobs flag, and
# metrics.aggregate(method="") is the label of a report of any records, which
# the stages always pass.
STAGES = {"simulate_dataset", "build_features", "separate_dataset", "perturb_sweep",
          "evaluate_dataset"}


def _defaulted(args: ast.arguments) -> list[str]:
    """Names of the parameters that have a default."""
    positional = args.posonlyargs + args.args
    names = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
    return names + [arg.arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_no_sample_rate_has_a_default():
    defaulted = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                stated = RUN_SETTINGS | ({"jobs", "method"}
                                         if getattr(node, "name", None) in STAGES else set())
                defaulted += [f"{module}:{node.lineno}:{name}"
                              for name in _defaulted(node.args) if name in stated]
            elif isinstance(node, ast.ClassDef):
                defaulted += [f"{module}:{s.lineno}:{s.target.id}" for s in node.body
                              if isinstance(s, ast.AnnAssign) and s.value is not None
                              and getattr(s.target, "id", None) in RUN_SETTINGS]
    assert defaulted == []
