"""In-memory span tracer that wraps ``ssk`` layer functions from outside.

A span is recorded at each layer boundary named in ``LAYERS``. Wrapping
rebinds the name in every ``ssk`` module that imported the function (for
example ``spatial_features.stft`` as well as ``separation.stft``), so calls
through any import path are traced. Functions inside a layer that are not
listed (``beam_powers``, ``premask``, private helpers) count toward the
listed layer that calls them. Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Layer boundaries: module -> public functions that get a span.
LAYERS = {
    "room_sim": ("simulate_rirs", "simulate_rir", "calibrated_reflection_coefficient",
                 "render_mixture"),
    "spectral": ("stft", "istft", "build_kernel"),
    "spatial_features": ("multichannel_stft", "angle_feature", "dpr", "ipd",
                         "das_filterbank"),
    "separation": ("oracle_mask", "directional_mask", "apply_mask", "das_beamform"),
    "metrics": ("si_sdr",),
    "dataset_io": ("read_wav", "write_wav", "write_features"),
    "pipeline": ("simulate_dataset", "build_features", "separate_dataset",
                 "separate_utterance", "evaluate_dataset", "perturb_sweep"),
}
T60_SPLIT_S = 0.25


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_size(value) -> int:
    try:
        return os.path.getsize(value)
    except (OSError, TypeError):
        return 0


def _attrs(name: str, args: tuple, kwargs: dict) -> dict:
    """Per-layer counters taken at the boundary; file sizes are read after
    the call, so writes report what they wrote."""
    if name in ("dataset_io.read_wav", "dataset_io.write_wav",
                "dataset_io.write_features"):
        path = args[0] if args else kwargs.get("path")
        return {"path": str(path), "bytes": _path_size(path)}
    if name == "room_sim.simulate_rir":
        room = args[0] if args else kwargs["room"]
        return {"t60": float(room.t60)}
    return {}


class Tracer:
    """Collects spans; ``command`` labels the CLI command they belong to."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.command = ""
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self.clock(), 0.0, stack[-1] if stack else None,
                        self.command)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                span.attrs = _attrs(name, args, kwargs)
        return traced

    def write(self, path: Path) -> None:
        """Write spans as JSON lines (name, start, end, parent, command)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "command": s.command, **s.attrs}) + "\n")


def install(tracer: Tracer, modules: dict | None = None) -> Callable[[], None]:
    """Wrap every function in ``LAYERS`` and rebind it in every loaded
    ``ssk`` module that refers to it. Returns a function that undoes it."""
    modules = modules if modules is not None else {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "ssk" or name.startswith("ssk."))}
    undo: list[tuple[object, str, Callable]] = []
    for short, names in LAYERS.items():
        owner = modules[f"ssk.{short}"]
        for fname in names:
            original = getattr(owner, fname)
            traced = tracer.wrap(f"{short}.{fname}", original)
            for mod in modules.values():
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, traced)
                    undo.append((mod, fname, original))

    def uninstall() -> None:
        for mod, fname, original in undo:
            setattr(mod, fname, original)
    return uninstall


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


CALLS = ("room_sim.simulate_rirs", "room_sim.simulate_rir", "spectral.stft",
         "spectral.istft", "spectral.build_kernel", "spatial_features.multichannel_stft",
         "spatial_features.angle_feature", "spatial_features.dpr", "spatial_features.ipd",
         "spatial_features.das_filterbank", "metrics.si_sdr", "dataset_io.read_wav",
         "dataset_io.write_wav")
SELF_TIME = ("room_sim.simulate_rirs", "room_sim.simulate_rir",
             "room_sim.calibrated_reflection_coefficient", "room_sim.render_mixture",
             "spectral.stft", "spectral.istft", "spatial_features.multichannel_stft",
             "spatial_features.angle_feature", "spatial_features.dpr",
             "spatial_features.ipd", "separation.oracle_mask",
             "separation.directional_mask", "separation.apply_mask",
             "separation.das_beamform", "metrics.si_sdr", "dataset_io.read_wav",
             "dataset_io.write_wav", "dataset_io.write_features")
BYTES = ("dataset_io.read_wav", "dataset_io.write_wav", "dataset_io.write_features")
RENAMES = {"room_sim.calibrated_reflection_coefficient": "room_sim.calibration"}


def layer_metrics(spans: list[Span], utterances: int) -> dict[str, float]:
    """Per-layer counts, self times, bytes, waste ratios and percentiles."""
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for span, own in zip(spans, self_times(spans)):
        by_name.setdefault(span.name, []).append((span, own))

    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = len(by_name.get(name, ()))
    for name in SELF_TIME:
        m[f"{RENAMES.get(name, name)}.self_s"] = sum((own for _, own in by_name.get(name, ())), 0.0)
    for name in BYTES:
        m[f"{name}.bytes"] = sum(s.attrs["bytes"] for s, _ in by_name.get(name, ()))

    paths = [s for s, _ in by_name.get("room_sim.simulate_rir", ())]
    low = [1000.0 * s.duration for s in paths if s.attrs["t60"] < T60_SPLIT_S]
    high = [1000.0 * s.duration for s in paths if s.attrs["t60"] >= T60_SPLIT_S]
    m["room_sim.rir_path_ms.low_t60"] = float(np.median(low)) if low else 0.0
    m["room_sim.rir_path_ms.high_t60"] = float(np.median(high)) if high else 0.0

    distinct = len({s.attrs["path"] for s, _ in by_name.get("dataset_io.read_wav", ())})
    m["dataset_io.read_wav.reads_per_file"] = (
        m["dataset_io.read_wav.calls"] / distinct if distinct else 0.0)
    m["spatial_features.stft_per_utterance"] = (
        m["spatial_features.multichannel_stft.calls"] / utterances if utterances else 0.0)

    target = [1000.0 * s.duration for s, _ in by_name.get("pipeline.separate_utterance", ())]
    m["pipeline.target_ms.count"] = len(target)
    m["pipeline.target_ms.p50"] = float(np.percentile(target, 50)) if target else 0.0
    m["pipeline.target_ms.p90"] = float(np.percentile(target, 90)) if target else 0.0
    return m
