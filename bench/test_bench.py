"""Tests for the benchmark's own code: span wrapper, self time, the
correctness gate and the agreement between the code and BENCHMARK.json."""

from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

from gate import Gate, read_wav
from inputs import first_source_digest
from spans import LAYERS, Span, Tracer, install, layer_metrics, self_times
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_wrapper_returns_result_unchanged_and_records_span():
    tracer = Tracer()
    payload = {"a": [1, 2]}
    traced = tracer.wrap("layer.fn", lambda x, y=0: (x, y, payload))
    assert traced(3, y=4) == (3, 4, payload)
    assert traced(3, y=4)[2] is payload
    assert [s.name for s in tracer.spans] == ["layer.fn", "layer.fn"]
    assert all(s.end >= s.start and s.parent is None for s in tracer.spans)


def test_wrapper_closes_span_when_function_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("layer.boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack() == []


def test_nested_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        traced_middle()
        clock.now += 4.0

    tracer.wrap("outer", outer)()
    by_name = {}
    for span, st in zip(tracer.spans, self_times(tracer.spans)):
        by_name.setdefault(span.name, []).append((span, st))
    (outer_span, outer_self), = by_name["outer"]
    (middle_span, middle_self), = by_name["middle"]
    assert outer_span.duration == pytest.approx(10.5)
    assert outer_self == pytest.approx(4.0)
    assert middle_self == pytest.approx(1.5)
    assert [st for _, st in by_name["leaf"]] == pytest.approx([2.0, 3.0])
    assert middle_span.parent == tracer.spans.index(outer_span)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, "c"), Span("a", 1.0, 5.0, 0, "c"),
             Span("b", 3.0, 7.0, 0, "c")]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_install_rebinds_every_importer_and_undoes():
    def stft(x):
        return x + 1

    modules = {f"ssk.{short}": types.ModuleType(f"ssk.{short}") for short in LAYERS}
    for short, names in LAYERS.items():
        for fname in names:
            setattr(modules[f"ssk.{short}"], fname, lambda: None)
    modules["ssk.spectral"].stft = stft
    modules["ssk.separation"].stft = stft
    tracer = Tracer()
    uninstall = install(tracer, modules)
    assert modules["ssk.separation"].stft(1) == 2
    assert modules["ssk.spectral"].stft is modules["ssk.separation"].stft
    assert [s.name for s in tracer.spans] == ["spectral.stft"]
    uninstall()
    assert modules["ssk.separation"].stft is stft


def _write_wav(path: Path, samples: np.ndarray) -> None:
    """Float32 mono WAV (format 3), as ``ssk`` writes estimates."""
    data = samples.astype("<f4").tobytes()
    fmt = b"".join([(3).to_bytes(2, "little"), (1).to_bytes(2, "little"),
                    (16000).to_bytes(4, "little"), (64000).to_bytes(4, "little"),
                    (4).to_bytes(2, "little"), (32).to_bytes(2, "little")])
    body = b"WAVE" + b"fmt " + len(fmt).to_bytes(4, "little") + fmt \
        + b"data" + len(data).to_bytes(4, "little") + data
    path.write_bytes(b"RIFF" + len(body).to_bytes(4, "little") + body)


def _separate_case(tmp_path: Path, samples: int = 100) -> Command:
    data = tmp_path / "data"
    (data / "wav").mkdir(parents=True)
    _write_wav(data / "wav" / "u_mix.wav", np.zeros(samples))
    manifest = {"utterances": [{"id": "u", "mixture": "wav/u_mix.wav",
                                "sources": [{"image": "i0", "dry": "d0"},
                                            {"image": "i1", "dry": "d1"}]}]}
    (data / "manifest.json").write_text(json.dumps(manifest))
    est = tmp_path / "est"
    est.mkdir()
    for t in range(2):
        _write_wav(est / f"u_tgt{t}.wav", np.linspace(-0.5, 0.5, samples))
    return Command(("separate", "--manifest", str(data / "manifest.json"),
                    "--out", str(est), "--method", "das", "--jobs", "1"))


def test_gate_passes_good_estimates(tmp_path):
    gate = Gate()
    gate.check(_separate_case(tmp_path), 0)
    assert (gate.attempted, gate.failed, gate.correct) == (3, 0, True)


def test_gate_flags_missing_estimate(tmp_path):
    cmd = _separate_case(tmp_path)
    (tmp_path / "est" / "u_tgt1.wav").unlink()
    gate = Gate()
    gate.check(cmd, 0)
    assert (gate.attempted, gate.failed, gate.correct) == (3, 1, False)
    assert "missing estimate u_tgt1.wav" in gate.problems[0]


@pytest.mark.parametrize("samples, problem", [
    (np.array([0.0, np.nan] + [0.0] * 98), "u_tgt0.wav: non-finite samples"),
    (np.zeros(99), "u_tgt0.wav: 99 samples, mixture has 100"),
])
def test_gate_flags_non_finite_and_short_wavs(tmp_path, samples, problem):
    cmd = _separate_case(tmp_path)
    _write_wav(tmp_path / "est" / "u_tgt0.wav", samples)
    gate = Gate()
    gate.check(cmd, 0)
    assert (gate.attempted, gate.failed, gate.problems) == (3, 1, [problem])


def test_gate_counts_boundary_spikes(tmp_path):
    cmd = _separate_case(tmp_path)
    _write_wav(tmp_path / "data" / "wav" / "u_mix.wav", np.full(100, 0.5))
    spiky = np.linspace(-0.5, 0.5, 100)
    spiky[1] = 3.0
    _write_wav(tmp_path / "est" / "u_tgt0.wav", spiky)
    gate = Gate()
    gate.check(cmd, 0)
    assert gate.correct and (gate.estimates, gate.spiky) == (2, 1)


def test_gate_counts_failed_command_without_checking_outputs(tmp_path):
    gate = Gate()
    gate.check(_separate_case(tmp_path), 1)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_mismatch_and_scores():
    gate = Gate(scores=[(2, 1.0), (6, 3.0)])
    assert gate.si_sdri_db() == pytest.approx(2.5)
    gate.mismatch("report", "a", "a")
    assert gate.correct
    gate.mismatch("report", "a", "b")
    assert not gate.correct


def test_with_jobs_replaces_only_the_jobs_value():
    cmd = Command(("separate", "--out", "1", "--jobs", "1", "--seed", "1"))
    assert cmd.with_jobs(2).argv == ("separate", "--out", "1", "--jobs", "2", "--seed", "1")
    assert cmd.jobs_capable and not Command(("evaluate",)).jobs_capable


def test_seed_changes_inputs():
    assert first_source_digest(1) != first_source_digest(2)
    assert first_source_digest(1) == first_source_digest(1)


def test_benchmark_json_matches_code(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
    spans = [Span("room_sim.simulate_rir", 0.0, 1.0, None, "simulate", {"t60": 0.1}),
             Span("dataset_io.read_wav", 1.0, 2.0, None, "perturb",
                  {"path": "a.wav", "bytes": 10})]
    traced = set(layer_metrics(spans, utterances=1))
    traced |= {"cli.import_s", "trace.overhead_pct", "pipeline.jobs2_speedup",
               "separation.boundary_spike_share"}
    assert {m["name"] for m in doc["per_layer"]} == traced
