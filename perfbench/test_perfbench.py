"""Self-tests of the benchmark.

    PYTHONPATH=src:perfbench python -m pytest perfbench -q

They run each workload at a tiny size (warm-up inputs, ~20 ops), check
that every declared metric is emitted with its unit, that a corrupted
pin is caught, and that the span recorder survives a missing target.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanRecorder, Target  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, seed=0, seconds=1, trace=trace, tiny=True)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 20
    expected = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_pin_is_detected():
    pins = workloads.load_pins()["analytics"]
    key = next(iter(pins["warmup"]))
    digest, cycles, iterations = pins["warmup"][key]
    pins["warmup"][key] = ["0" * len(digest), cycles, iterations]
    m = workloads.run_analytics(0, 1, False, tiny=True, pins=pins)
    assert m.failed > 0
    assert any(key in problem for problem in m.problems)


def test_tracer_tolerates_missing_targets():
    import repro.core.framework as framework

    original = framework.degree_based_grouping
    rec = SpanRecorder([
        Target("graph.dbg", "repro.core.framework:degree_based_grouping"),
        Target("gone.module", "repro.no_such_module:fn"),
        Target("gone.attr", "repro.core.framework:no_such_function"),
        Target("gone.method", "repro.core.framework:ReGraph.no_such_method"),
    ])
    with rec:
        assert framework.degree_based_grouping is not original
        from repro.graph.generators import erdos_renyi_graph

        framework.degree_based_grouping(erdos_renyi_graph(64, 256, seed=1))
    assert framework.degree_based_grouping is original
    assert rec.totals["graph.dbg"].calls == 1
    assert rec.untraced_spans() == ["gone.attr", "gone.method", "gone.module"]


def test_traced_run_survives_a_deleted_layer(monkeypatch):
    targets = [
        layers.Target(t.span, "repro.deleted_layer:fn")
        if t.span == "graph.dbg" else t
        for t in layers.TARGETS
    ]
    monkeypatch.setattr(layers, "TARGETS", targets)
    result = run.measure("cli_run", seed=0, seconds=1, trace=True,
                         tiny=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["trace.untraced_spans"]["value"] == 1
    assert metrics["graph.dbg.calls"]["value"] == 0
    assert metrics["graph.partition.calls"]["value"] == 1


def test_tracer_self_time_excludes_children():
    import repro.graph.coo as coo
    from repro.graph.generators import erdos_renyi_graph

    rec = SpanRecorder([
        Target("outer", "repro.graph.generators:erdos_renyi_graph"),
        Target("inner", "repro.graph.coo:Graph.__init__"),
    ])
    with rec:
        import repro.graph.generators as generators

        generators.erdos_renyi_graph(128, 1024, seed=2)
    assert "__init__" in coo.Graph.__dict__  # restored, not deleted
    outer, inner = rec.totals["outer"], rec.totals["inner"]
    assert inner.calls == 1 and outer.calls == 1
    assert outer.self_ns == outer.inclusive_ns - inner.inclusive_ns
    assert erdos_renyi_graph(8, 8).num_edges == 8


def test_per_layer_declaration_matches_the_recorder():
    assert declared("per_layer") == layers.metric_units()
    mapped = {s for row in DESIGN["layer_map"] for s in row["spans"]}
    assert mapped == set(layers.SPANS)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    pct, value = run.tail_percentile(samples)
    assert pct == 90 and value == 90
    assert sum(s > value for s in samples) == 10


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_run",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
