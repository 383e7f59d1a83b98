"""Guards read from the syntax tree of ``src/ssk``: every member has a reader
in ``src/``, every default has a call in ``src/`` that sets it, no signature
or field gives the sample rate or another run setting a default, no stage
takes an analysis setting, and only `stages._each` removes a summary file."""

import ast
from pathlib import Path

import ssk

TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(Path(ssk.__file__).parent.glob("*.py"))}

# Members kept without a reader in src/, each for its reason.
UNREAD = {
    # The TSNF1 reader and the API of the stacks it returns: the joint feature
    # stacks that `features` writes are for a mask estimator outside ssk, and
    # this reads them back. C12 reads dim.
    "dataset_io.read_features",
    "spatial_features.FeatureStack.dim",
    "spatial_features.FeatureStack.block",
    # The benchmark's by-name tracer (bench/spans.py LAYERS) looks these up,
    # though no stage calls them: every stage reads the mixture through the
    # block pass of SpatialAnalysis. They leave with the tracer (ROADMAP item
    # 7). It also names das_filterbank, dpr, angle_feature, das_beamform and
    # pipeline.__getattr__, which need no entry: the pass reads the first
    # two, the stages the next two, and the last is a dunder.
    "spatial_features.ipd",
    "spatial_features.multichannel_stft",
    "spectral.build_kernel",
    # The metric C04 and C09 state their claims through; the stages score
    # with si_sdr and report the difference to the mixture's themselves.
    "metrics.si_sdri",
}


def _members():
    """(qualified name, name, is a method) of every top-level function and
    class and of every method."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        yield f"{module}.{node.name}.{method.name}", method.name, True


def test_every_member_has_a_reader_in_src():
    # The check works by name. A method or property counts as read when an
    # attribute in src/ spells it; a top-level function or class when a
    # loaded name, an import or an attribute of an ssk module name (such as
    # synth.speech_like) does, not an attribute of any other object. So a
    # member that shares its name with another member passes, but not one
    # that shares it with a local, a parameter, a keyword argument or an
    # attribute of a value (rec.si_sdri). Dunders are called by Python. The
    # list of exceptions must match exactly, so an entry that gains a reader
    # or is deleted leaves it too.
    attributes, names = set(), set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in TREES:
                    names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    unread = {qualified for qualified, name, method in _members()
              if name not in (attributes if method else names)
              and not (name.startswith("__") and name.endswith("__"))}
    assert unread == UNREAD


# Defaults kept although no call in src/ sets them, each for its reason.
UNSET = {
    # The console script calls main() without arguments, so it parses
    # sys.argv; the tests pass their own.
    "cli.main(argv)",
}


def _defaults():
    """(qualified name, callee, position, name) of every defaulted parameter
    and dataclass field: ``callee`` is the name a call spells (the class for
    __init__ and fields), ``position`` the index of the positional argument
    that reaches it (None for keyword-only)."""
    for module, tree in TREES.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                yield from _parameters(f"{module}.{top.name}", top.name, top.args, 0)
            elif isinstance(top, ast.ClassDef):
                fields = [s for s in top.body if isinstance(s, ast.AnnAssign)]
                yield from ((f"{module}.{top.name}.{f.target.id}", top.name, k, f.target.id)
                            for k, f in enumerate(fields) if f.value is not None)
                for method in top.body:
                    if isinstance(method, ast.FunctionDef):
                        callee = top.name if method.name == "__init__" else method.name
                        yield from _parameters(f"{module}.{top.name}.{method.name}", callee,
                                               method.args, 1)


def _parameters(where: str, callee: str, args: ast.arguments, bound: int):
    """The defaulted parameters of one signature; its first ``bound``
    parameters (self or cls) take no argument of a call."""
    positional = args.posonlyargs + args.args
    for k in range(len(positional) - len(args.defaults), len(positional)):
        yield f"{where}({positional[k].arg})", callee, k - bound, positional[k].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{where}({arg.arg})", callee, None, arg.arg


def test_every_default_has_a_setter_in_src():
    # A default is set when a call in src/ that spells its callee (by name or
    # attribute, or as cls inside the class) passes it by keyword, passes a
    # positional argument that reaches it, or passes * or ** arguments that
    # could. A default that no call sets is a constant spelled as an option:
    # only tests reach its other values. The list of exceptions must match
    # exactly, so an entry that gains a setter or is deleted leaves it too.
    calls = []  # (callee, positional count or inf, keywords)
    for tree in TREES.values():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee == "cls" and owner:
                    callee = owner
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.append((callee, float("inf") if starred else len(node.args), keywords))
    unset = {where for where, callee, position, name in _defaults()
             if not any(c == callee and (name in keywords or None in keywords
                                         or (position is not None and position < count))
                        for c, count, keywords in calls)}
    assert unset == UNSET


# Run settings a caller states: the sample rate is the recording's (a
# manifest states it), and the others are the settings of simulate, separate
# and perturb. Each flag of the CLI holds its only default.
RUN_SETTINGS = {"sample_rate", "cond", "alpha", "beta", "duration", "synth_kind", "source_dir",
                "error_seed"}
# The stage functions take jobs and method from their command too.
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


# The paper's analysis (a 40-sample Hann at hop 20, a 64-point FFT and a
# 10-degree grid) is a constant, stated once in PipelineConfig.default.
ANALYSIS_SETTINGS = {"grid_step", "fft_size", "win_len", "hop"}


def test_no_stage_takes_an_analysis_setting():
    # No stage function or PipelineConfig method takes an analysis setting,
    # by name or through ** keywords, so no run can differ from the paper's
    # analysis without its run record saying so.
    signatures = {}
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in STAGES:
                signatures[f"{module}.{node.name}"] = node.args
            elif isinstance(node, ast.ClassDef) and node.name == "PipelineConfig":
                signatures.update({f"{module}.{node.name}.{m.name}": m.args for m in node.body
                                   if isinstance(m, ast.FunctionDef)})
    assert {where.rsplit(".", 1)[1] for where in signatures} >= STAGES | {"default"}
    taking = []
    for where, args in signatures.items():
        params = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
        taking += [f"{where}: {name}" for name in sorted(params & ANALYSIS_SETTINGS)]
        taking += [f"{where}: **{args.kwarg.arg}"] if args.kwarg else []
    assert taking == []


def _calls(attr: str):
    """``module.definition`` of the top-level definition around each call of
    a method named ``attr``."""
    for module, tree in TREES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attr:
                    yield f"{module}.{getattr(top, 'name', None)}"


def test_only_the_batch_rule_removes_a_file():
    # The summary-file rule is stated once, in stages._each, which removes a
    # stage's summary files before its batch and the files of a failed
    # utterance. The one other removal is atomic_write_bytes's of its own
    # temp file when a write fails.
    assert [where for where in _calls("unlink") if not where.startswith("stages.")] == [
        "dataset_io.atomic_write_bytes"]


def test_the_cli_writes_no_file():
    # Every stage function writes its whole output tree; a command parses,
    # calls its stage and prints.
    spelled = {node.id for node in ast.walk(TREES["cli"]) if isinstance(node, ast.Name)}
    spelled |= {node.attr for node in ast.walk(TREES["cli"]) if isinstance(node, ast.Attribute)}
    spelled |= {node.name for node in ast.walk(TREES["cli"]) if isinstance(node, ast.alias)}
    assert not {name for name in spelled if name.startswith(("write", "atomic_write", "open"))}
