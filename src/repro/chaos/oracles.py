"""Chaos oracles: is a run that *survived* its faults actually correct?

Three layers of scrutiny on every surviving cell:

1. **Result oracle** — the faulted run's answer against the NumPy
   reference algorithm through :func:`repro.check.oracles.judge`, the
   one judge ``repro check`` uses too (exact for BFS / SSSP, 1e-9 for
   closeness, WCC as a partition, fixed-point band for PageRank).  Faults
   absorbed by checkpoint-retry resume bit-exactly, and degradation
   re-plans work without touching the functional iteration, so surviving
   a fault is *never* a licence for a wrong answer.
2. **Trace invariants** — the final scheduling plan (post-degradation)
   replayed through :func:`repro.check.invariants.check_trace`: monotone
   cycles, no overlap, edge coverage, bandwidth and resource caps must
   hold for whatever topology the run ended on.
3. **Health audit** — the :class:`RunHealthReport` must be internally
   consistent: breaker state covers every channel of the original
   topology, and each re-plan names exactly one degraded pipeline.
"""

from __future__ import annotations

from typing import List

from repro.arch.trace import trace_plan
from repro.check.invariants import check_trace
from repro.check.oracles import ORACLE_APPS, judge
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands
from repro.chaos.spec import CellSpec
from repro.graph.coo import Graph


def result_violations(
    cell: CellSpec,
    graph: Graph,
    run,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> List[str]:
    """Compare the faulted run's answer with the reference algorithm.

    ``graph`` is the graph actually executed (already symmetrized for
    WCC, already weighted for SSSP).
    """
    if cell.app not in ORACLE_APPS:
        return [f"result: no chaos oracle for app {cell.app!r}"]
    verdict = judge(cell.app, graph, run, cell.root, bands)
    return [] if verdict.passed else [f"result: {verdict.detail}"]


def trace_violations(
    framework, graph: Graph, run, bands: ToleranceBands = DEFAULT_BANDS
) -> List[str]:
    """Replay the final (possibly degraded) plan through the invariant
    checker — the schedule the run converged on must itself conform."""
    plan = run.final_plan
    if plan is None:
        return ["trace: run carries no final plan to check"]
    trace = trace_plan(plan, framework.channel)
    violations = check_trace(
        trace,
        plan=plan,
        platform=framework.platform,
        channel=framework.channel,
        weighted=graph.weights is not None,
        bands=bands,
    )
    return [f"trace: {v}" for v in violations]


def health_violations(cell: CellSpec, run) -> List[str]:
    """Audit the health report's internal consistency."""
    health = run.health
    problems = []
    expected_channels = 2 * cell.num_pipelines
    if len(health.channel_breakers) != expected_channels:
        problems.append(
            f"health: breaker state covers {len(health.channel_breakers)} "
            f"channels, expected {expected_channels}"
        )
    if health.replans != len(health.degraded_pipelines):
        problems.append(
            f"health: {health.replans} re-plans but "
            f"{len(health.degraded_pipelines)} degraded pipeline(s)"
        )
    open_states = sum(
         1 for s in health.channel_breakers.values() if s["state"] == "open"
    )
    if health.breaker_trips > 0 and open_states == 0:
        problems.append(
            f"health: {health.breaker_trips} breaker trip(s) recorded "
            f"but no channel reported open"
        )
    return problems


def validate_cell(
    cell: CellSpec,
    graph: Graph,
    framework,
    run,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> List[str]:
    """All chaos-oracle violations for one surviving cell (empty = ok)."""
    violations = result_violations(cell, graph, run, bands)
    violations += trace_violations(framework, graph, run, bands)
    violations += health_violations(cell, run)
    return violations
