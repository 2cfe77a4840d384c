"""Per-layer trace targets and the per-layer metrics built from them.

Span names are ``<layer>.<span>`` where ``<layer>`` is a ``src/repro``
package name.  Each target is the binding the program's callers use;
``perfbench/design.json`` maps every span to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from tracer import SpanRecorder, Target, _resolve


def _count_run(counters: Dict[str, float], run) -> None:
    counters["core.iterations"] = (
        counters.get("core.iterations", 0) + getattr(run, "iterations", 0)
    )
    counters["core.edges"] = (
        counters.get("core.edges", 0) + getattr(run, "processed_edges", 0)
    )


def _count_retries(counters: Dict[str, float], run) -> None:
    health = getattr(run, "health", None)
    counters["faults.retries"] = (
        counters.get("faults.retries", 0) + getattr(health, "retries", 0)
    )


TARGETS: List[Target] = [
    Target("graph.generate", "repro.graph.datasets:rmat_graph"),
    Target("graph.generate", "repro.graph.datasets:power_law_graph"),
    Target("graph.generate", "repro.graph.generators:rmat_graph"),
    Target("graph.generate", "repro.graph.generators:power_law_graph"),
    Target("graph.generate", "repro.graph.generators:erdos_renyi_graph"),
    Target("graph.coo_build", "repro.graph.coo:Graph.__init__"),
    Target("graph.dbg", "repro.core.framework:degree_based_grouping"),
    Target("graph.partition", "repro.core.framework:partition_graph"),
    Target("model.calibrate",
           "repro.core.framework:calibrate_performance_model"),
    Target("sched.schedule", "repro.core.framework:build_schedule"),
    Target("compiled.lower", "repro.compiled.evaluate:compile_plan"),
    Target("compiled.lower",
           "repro.compiled.functional:lower_functional_plan"),
    Target("compiled.timing",
           "repro.compiled.evaluate:CompiledEngine.timings"),
    Target("compiled.functional",
           "repro.compiled.functional:FunctionalEngine.accumulate"),
    Target("perf.simcache_publish",
           "repro.compiled.evaluate:publish_to_cache"),
    Target("arch.apply", "repro.arch.apply:ApplySim.run"),
    Target("core.run", "repro.core.system:SystemSimulator.run", _count_run),
    Target("arch.interpreted",
           "repro.arch.little_pipeline:LittlePipelineSim.execute"),
    Target("arch.interpreted",
           "repro.arch.big_pipeline:BigPipelineSim.execute"),
    Target("faults.resilient",
           "repro.faults.resilience:ResilientExecutor.run", _count_retries),
    Target("check.oracles", "repro.chaos.oracles:validate_cell"),
    Target("fleet.placement",
           "repro.fleet.placement:PlacementEngine.choose"),
    Target("fleet.placement",
           "repro.fleet.placement:PlacementEngine.predicted_seconds"),
    Target("fleet.runtime", "repro.fleet.runtime:FleetRuntime.run"),
    Target("serving.execute", "repro.serving.session:KernelSession.execute"),
    Target("serving.submit", "repro.serving.gateway:ServingGateway.submit"),
    *(
        Target("serving.jobstore", f"repro.serving.jobstore:SqliteJobStore.{m}")
        for m in ("append_job", "put_result", "get_result", "has_job",
                  "job_seq", "checkpoint")
    ),
    Target("serving.traffic", "repro.serving.traffic:TrafficRecorder.append"),
    Target("durable.fsync", "os:fsync"),
]

#: Every span name, in first-seen order.
SPANS: List[str] = list(dict.fromkeys(t.span for t in TARGETS))

#: Counters: name -> unit.  Span metrics are ``<span>.self_ms`` (ms/op),
#: ``<span>.calls`` (calls/op) and ``<span>.share`` (fraction of op wall).
COUNTERS: Dict[str, str] = {
    "core.iterations": "count",
    "core.edges": "count",
    "perf.simcache.hit_ratio": "fraction",
    "compiled.functional.compiled_ratio": "fraction",
    "fleet.attempts_per_job": "attempts/job",
    "fleet.hedges": "count",
    "faults.retries": "count",
    "serving.wait_ms": "ms/op",
    "op.wall_ms": "ms/op",
    "op.unattributed_share": "fraction",
    "trace.overhead_share": "fraction",
    "trace.untraced_spans": "count",
}

SPAN_UNITS = {"self_ms": "ms/op", "calls": "calls/op", "share": "fraction"}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in a stable order."""
    units = {
        f"{span}.{kind}": unit
        for span in SPANS
        for kind, unit in SPAN_UNITS.items()
    }
    units.update(COUNTERS)
    return units


def recorder() -> SpanRecorder:
    return SpanRecorder(TARGETS)


def read_stats(path: str, method: str = "") -> Optional[dict]:
    """Call a public stats function (or ``method`` of the object it
    returns) and copy the result; None when any of it is gone."""
    try:
        _, _, fn = _resolve(path)
        value = fn()
        return dict(getattr(value, method)() if method else value)
    except (ImportError, AttributeError, TypeError):
        return None


class StatsWindow:
    """Counter deltas from the program's public stats across a phase."""

    def __init__(self) -> None:
        self.cache0 = read_stats("repro.perf.simcache:get_cache", "stats")
        self.compiled0 = read_stats("repro.compiled:compiled_stats")

    def ratios(self) -> Dict[str, Optional[float]]:
        out: Dict[str, Optional[float]] = {
            "perf.simcache.hit_ratio": None,
            "compiled.functional.compiled_ratio": None,
        }
        cache1 = read_stats("repro.perf.simcache:get_cache", "stats")
        if self.cache0 is not None and cache1 is not None:
            hits = cache1["hits"] - self.cache0["hits"]
            misses = cache1["misses"] - self.cache0["misses"]
            out["perf.simcache.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        compiled1 = read_stats("repro.compiled:compiled_stats")
        if self.compiled0 is not None and compiled1 is not None:
            done = (compiled1["functional_iterations"]
                    - self.compiled0["functional_iterations"])
            fell = (compiled1["functional_fallbacks"]
                    - self.compiled0["functional_fallbacks"])
            out["compiled.functional.compiled_ratio"] = (
                done / (done + fell) if done + fell else 0.0
            )
        return out


def layer_metrics(
    rec: SpanRecorder,
    ops: int,
    op_wall_s: float,
    counters: Dict[str, Optional[float]],
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metric values of one traced pass over ``ops`` ops.

    ``op_wall_s`` is the summed wall time of the traced ops and
    ``untraced_wall_s`` that of the same ops run without the recorder.
    A counter left at None (its source is gone) reads 0 and counts as
    untraced.
    """
    values: Dict[str, float] = {}
    attributed = 0
    for span in SPANS:
        totals = rec.totals[span]
        attributed += totals.self_ns
        values[f"{span}.self_ms"] = totals.self_ns / 1e6 / ops
        values[f"{span}.calls"] = totals.calls / ops
        values[f"{span}.share"] = totals.self_ns / 1e9 / op_wall_s
    merged = {name: 0.0 for name in COUNTERS}
    merged.update(rec.counters)
    missing = len(rec.untraced_spans())
    for name, value in counters.items():
        if value is None:
            missing += 1
            value = 0.0
        merged[name] = value
    merged["op.wall_ms"] = op_wall_s * 1e3 / ops
    merged["op.unattributed_share"] = 1.0 - attributed / 1e9 / op_wall_s
    merged["trace.overhead_share"] = (
        (op_wall_s - untraced_wall_s) / untraced_wall_s
    )
    merged["trace.untraced_spans"] = missing
    values.update({name: float(merged[name]) for name in COUNTERS})
    return values
