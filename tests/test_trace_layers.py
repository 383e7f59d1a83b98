"""The benchmark's span tracer wraps ``ssk`` functions by name; every name it
lists must exist on the real modules, or a traced run breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _layers().items()
                                          for n in names])
def test_traced_layer_exists(module, name):
    assert callable(getattr(importlib.import_module(f"ssk.{module}"), name, None))
