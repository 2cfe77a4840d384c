"""Differential oracles: three descriptions of one machine, cross-checked.

The repo describes the same accelerator three independent ways:

1. the **cycle-level module simulators** (Figs. 3-6) that execute plans
   task by task;
2. the **Eq. 1-4 analytic performance model** that predicts those cycle
   counts during scheduling;
3. the **reference algorithms** (:mod:`repro.apps.reference`), vectorised
   NumPy code that shares nothing with the GAS apps and defines what the
   answers must be.

Each oracle runs one (graph, app, device, plan) through two of the
descriptions and asserts agreement: cycle counts within the declared
:class:`~repro.check.tolerances.ToleranceBands`, algorithm results
exactly (BFS levels, SSSP distances, WCC components) or within
fixed-point resolution (PageRank ranks).

How an app's answer is judged lives only here: :func:`judge` applies
the one app -> (reference, comparison) table, and ``repro check``
(:func:`functional_oracle`), the chaos and fleet oracles, served jobs
and ``repro selfcheck`` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.apps.reference import (
    bfs_reference,
    closeness_reference,
    pagerank_reference,
    sssp_reference,
    wcc_reference,
)
from repro.apps.registry import get_app_spec
from repro.arch.trace import trace_plan
from repro.errors import ConformanceError
from repro.graph.coo import Graph
from repro.hbm.channel import HbmChannelModel
from repro.sched.plan import SchedulingPlan
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one differential comparison."""

    oracle: str
    subject: str
    passed: bool
    #: worst observed disagreement (relative cycles, absolute ranks, or
    #: mismatching element count, depending on the oracle)
    max_error: float
    detail: str

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"[{self.oracle}] {self.subject}: {status} ({self.detail})"


# ----------------------------------------------------------------------
# Simulator vs analytic model
# ----------------------------------------------------------------------
def model_oracle(
    plan: SchedulingPlan,
    channel: Optional[HbmChannelModel] = None,
    bands: ToleranceBands = DEFAULT_BANDS,
    subject: str = "plan",
) -> List[OracleResult]:
    """Compare the plan's Eq. 1-4 estimates against the cycle simulators.

    Two comparisons: every task's estimated cycles against its simulated
    duration (per-task band), and the plan's estimated makespan against
    the traced makespan (tighter band, errors average out).
    """
    trace = trace_plan(plan, channel)
    events = {}
    for event in trace.events:
        events.setdefault(event.pipeline, []).append(event)
    for pipe_events in events.values():
        pipe_events.sort(key=lambda e: e.start_cycle)

    worst_task = 0.0
    worst_detail = "no tasks"
    cursor = {pipe: 0 for pipe in events}
    for pipe, task in plan.iter_tasks():
        event = events[pipe][cursor[pipe]]
        cursor[pipe] += 1
        sim = event.duration
        rel = abs(sim - task.estimated_cycles) / max(sim, 1.0)
        if rel >= worst_task:
            worst_task = rel
            worst_detail = (
                f"{pipe} task over {task.partition_indices}: "
                f"est {task.estimated_cycles:,.0f} vs sim {sim:,.0f}"
            )
    task_result = OracleResult(
        oracle="model-vs-sim/task",
        subject=subject,
        passed=worst_task <= bands.model_task_rel,
        max_error=worst_task,
        detail=f"worst task error {worst_task:.1%} "
               f"(band {bands.model_task_rel:.0%}): {worst_detail}",
    )

    sim_span = trace.makespan
    est_span = plan.estimated_makespan
    span_rel = abs(sim_span - est_span) / max(sim_span, 1.0)
    span_result = OracleResult(
        oracle="model-vs-sim/makespan",
        subject=subject,
        passed=span_rel <= bands.model_makespan_rel,
        max_error=span_rel,
        detail=f"est {est_span:,.0f} vs sim {sim_span:,.0f} cycles "
               f"({span_rel:.1%}, band {bands.model_makespan_rel:.0%})",
    )
    return [task_result, span_result]


# ----------------------------------------------------------------------
# Simulated system vs reference algorithms
# ----------------------------------------------------------------------
def partition_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel groups by first occurrence (0, 1, 2, ... in vertex order).

    Two labelings induce the same partition iff their relabels are
    equal, whichever member's ID names each group.
    """
    labels = np.asarray(labels).ravel()
    _, first, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
    return rank[inverse]


@dataclass(frozen=True)
class Verdict:
    """One run's answer judged against its reference algorithm."""

    passed: bool
    #: absolute error (PageRank, closeness) or mismatching elements
    error: float
    detail: str


def _pagerank(graph: Graph, run, root: int, bands: ToleranceBands) -> Verdict:
    ref = pagerank_reference(graph, iterations=run.iterations)
    atol = bands.pagerank_atol(
        graph.out_degrees().max() if graph.num_edges else 1,
        run.iterations,
    )
    err = float(np.max(np.abs(run.result - ref)))
    ok = err <= atol
    return Verdict(
        ok, err,
        f"max |rank - ref| = {err:.2e} {'<=' if ok else '>'} atol {atol:.2e}",
    )


def _closeness(graph: Graph, run, root: int, bands: ToleranceBands) -> Verdict:
    err = abs(float(run.result) - closeness_reference(graph, root))
    ok = err <= 1e-9
    return Verdict(
        ok, err, f"|closeness - ref| = {err:.2e} {'<=' if ok else '>'} 1e-9"
    )


def _mismatches(noun: str, reference, canonical=np.asarray):
    """Judge per-vertex properties element by element (after
    ``canonical``) against ``reference(graph, root)``."""

    def judge_props(graph: Graph, run, root: int, bands) -> Verdict:
        bad = int(np.count_nonzero(
            canonical(run.props) != canonical(reference(graph, root))
        ))
        return Verdict(
            bad == 0, float(bad),
            f"{bad} {noun} mismatch(es) of {graph.num_vertices}",
        )

    return judge_props


#: app -> judge.  PageRank within the fixed-point band, closeness within
#: 1e-9, BFS levels and SSSP distances exactly, WCC labels as the same
#: partition (the simulator propagates relabelled IDs, the reference
#: original IDs -- same components either way).
_JUDGES = {
    "pagerank": _pagerank,
    "bfs": _mismatches("BFS level", bfs_reference),
    "closeness": _closeness,
    "sssp": _mismatches("SSSP distance", sssp_reference),
    "wcc": _mismatches(
        "WCC component",
        lambda graph, root: wcc_reference(graph),
        canonical=partition_labels,
    ),
}

#: Apps with a reference judge: what ``repro check``, chaos cells, fleet
#: jobs, served jobs and selfcheck can validate.
ORACLE_APPS = tuple(_JUDGES)

#: Apps judged at the run's own iteration count, so an iteration cap
#: cannot fail them; every other app is judged against its converged
#: reference and always runs to convergence in :func:`functional_oracle`.
_CAPPABLE_APPS = ("pagerank",)


def _judge_of(app: str):
    if app not in _JUDGES:
        raise ConformanceError(
            f"unknown oracle app {app!r}; available: {ORACLE_APPS}"
        )
    return _JUDGES[app]


def judge(
    app: str,
    graph: Graph,
    run,
    root: int = 0,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> Verdict:
    """Judge ``run``'s answer against the reference algorithm.

    ``graph`` is the graph the run actually executed
    (``get_app_spec(app).prepare(input graph)``); ``root`` is an
    input-graph vertex ID.
    """
    return _judge_of(app)(graph, run, root, bands)


def functional_oracle(
    graph: Graph,
    app: str,
    framework,
    root: int = 0,
    max_iterations: Optional[int] = None,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> OracleResult:
    """Run ``app`` through the full simulated system and the reference
    implementation; compare the answers with :func:`judge`.

    ``framework`` is a :class:`~repro.core.framework.ReGraph` instance —
    the oracle exercises the whole pipeline it drives: DBG, partitioning,
    model-guided scheduling, heterogeneous execution, Apply, and the
    relabelling round-trip.  ``max_iterations`` caps only PageRank, the
    one app judged at the run's own iteration count.
    """
    compare = _judge_of(app)
    spec = get_app_spec(app)
    if spec.needs_weights and graph.weights is None:
        raise ConformanceError(f"{app} oracle needs weights on {graph.name}")
    executed = spec.prepare(graph)
    run = framework.run_app(
        executed, app, root=root,
        max_iterations=max_iterations if app in _CAPPABLE_APPS else None,
    )
    verdict = compare(executed, run, root, bands)
    return OracleResult(
        "functional", f"{app}@{graph.name}",
        verdict.passed, verdict.error, verdict.detail,
    )
