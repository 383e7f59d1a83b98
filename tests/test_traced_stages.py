"""The benchmark's by-name tracer (``bench/spans.py``) finds each stage
function on ``ssk.pipeline`` and rebinds it in every loaded ``ssk`` module.
Each stage lives in its own module and each command looks its stage up at
call time, so a traced run must still pass through the rebound names."""

import importlib
import importlib.util
import sys
from pathlib import Path

from ssk.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_rebinds_every_layer_and_restores_it(tmp_path):
    spans = _spans()
    data, est = tmp_path / "data", tmp_path / "est"
    assert main(["simulate", "--out", str(data), "--seed", "7", "--num-scenes", "1",
                 "--num-speakers", "2", "--duration", "0.3"]) == 0
    manifest = str(data / "manifest.json")
    assert main(["separate", "--manifest", manifest, "--out", str(est),
                 "--method", "heuristic"]) == 0
    evaluate = ["evaluate", "--manifest", manifest, "--estimates", str(est),
                "--out", str(tmp_path / "report")]
    assert main(evaluate) == 0

    owners = {short: importlib.import_module(f"ssk.{short}") for short in spans.LAYERS}
    originals = {(short, name): getattr(owners[short], name)
                 for short, names in spans.LAYERS.items() for name in names}
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        for (short, name), original in originals.items():
            traced = getattr(owners[short], name)
            assert traced is not original and traced.__wrapped__ is original, (short, name)
        assert main(evaluate) == 0
    finally:
        uninstall()
    assert [s.name for s in tracer.spans].count("pipeline.evaluate_dataset") == 1
    for (short, name), original in originals.items():
        assert getattr(owners[short], name) is original, (short, name)
