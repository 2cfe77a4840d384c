"""Conformance runner: the engine behind ``repro check``.

Assembles a seed suite of graphs spanning the skew classes the paper
evaluates (RMAT, power-law, uniform), then for each graph on the chosen
device:

1. preprocesses it through the real framework (DBG + partition +
   model-guided schedule) and validates the plan structurally;
2. runs the **model oracle** (simulators vs Eq. 1-4 estimates) and the
   **trace invariant checker** on one traced iteration;
3. runs the **functional oracle** for every requested app against the
   NumPy reference algorithms.

The result is one :class:`ConformanceReport` suitable both for the CLI
table and for programmatic assertion in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.apps.registry import get_app_spec
from repro.arch.config import PipelineConfig
from repro.arch.trace import trace_plan
from repro.core.framework import ReGraph
from repro.errors import ConformanceError
from repro.graph.coo import Graph
from repro.graph.generators import (
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)
from repro.check.invariants import Violation, check_trace
from repro.check.oracles import (
    ORACLE_APPS,
    OracleResult,
    functional_oracle,
    model_oracle,
)
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands

#: Iteration cap for PageRank, the one app the functional oracle judges
#: at the run's own iteration count (the others run to convergence).
CHECK_PAGERANK_ITERATIONS = 10


def with_random_weights(
    graph: Graph, seed: int = 0, low: int = 1, high: int = 16
) -> Graph:
    """A weighted twin of ``graph`` with deterministic integer weights,
    for exercising the SSSP/weighted-edge path of the oracles."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(low, high, size=graph.num_edges, dtype=np.int32)
    return Graph(
        graph.num_vertices,
        graph.src,
        graph.dst,
        weights=weights,
        name=f"{graph.name}-w",
    )


def seed_graphs(seed: int = 1, quick: bool = False) -> List[Graph]:
    """The seed conformance suite: one graph per skew class.

    ``quick`` shrinks the suite to a single small RMAT graph for smoke
    use (CI per-commit, CLI sanity runs).
    """
    if quick:
        return [rmat_graph(9, 8, seed=seed, name="rmat9")]
    return [
        rmat_graph(10, 8, seed=seed, name="rmat10"),
        power_law_graph(
            1200, 10_000, exponent=1.8, seed=seed + 10, name="pl1200"
        ),
        erdos_renyi_graph(800, 6_000, seed=seed + 20, name="er800"),
    ]


@dataclass
class ConformanceReport:
    """All oracle results and invariant violations of one ``check`` run."""

    device: str
    apps: Sequence[str]
    results: List[OracleResult] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every oracle agreed and no invariant broke."""
        return not self.violations and all(r.passed for r in self.results)

    @property
    def num_checks(self) -> int:
        """Oracle comparisons performed (invariant rules not counted)."""
        return len(self.results)

    def rows(self) -> List[tuple]:
        """Table rows for :func:`repro.reporting.format_table`."""
        rows = [
            (r.oracle, r.subject, "ok" if r.passed else "FAIL", r.detail)
            for r in self.results
        ]
        rows += [
            (v.rule, v.subject, "FAIL", v.detail) for v in self.violations
        ]
        return rows

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.ConformanceError` summarising
        every failed check; no-op when the report is clean."""
        if self.passed:
            return
        failed = [str(r) for r in self.results if not r.passed]
        failed += [str(v) for v in self.violations]
        lines = "\n  ".join(failed)
        raise ConformanceError(
            f"{len(failed)} conformance failure(s) on {self.device}:\n"
            f"  {lines}"
        )


def run_conformance(
    device: str = "U280",
    apps: Optional[Sequence[str]] = None,
    graphs: Optional[Sequence[Graph]] = None,
    buffer_vertices: int = 256,
    num_pipelines: int = 4,
    seed: int = 1,
    quick: bool = False,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> ConformanceReport:
    """Cross-check simulators, model and references on one device.

    Unknown app names raise :class:`~repro.errors.ConformanceError`
    before any simulation starts.
    """
    apps = tuple(apps) if apps else ORACLE_APPS
    unknown = [a for a in apps if a not in ORACLE_APPS]
    if unknown:
        raise ConformanceError(
            f"unknown oracle app(s) {unknown}; available: {ORACLE_APPS}"
        )
    graphs = list(graphs) if graphs is not None else seed_graphs(seed, quick)
    framework = ReGraph(
        device,
        pipeline=PipelineConfig(gather_buffer_vertices=buffer_vertices),
        num_pipelines=num_pipelines,
    )
    report = ConformanceReport(device=framework.platform.name, apps=apps)

    for graph in graphs:
        pre = framework.preprocess(graph)
        pre.plan.validate(expected_edges=graph.num_edges)
        report.results += model_oracle(
            pre.plan, framework.channel, bands, subject=graph.name
        )
        trace = trace_plan(pre.plan, framework.channel)
        report.violations += check_trace(
            trace,
            plan=pre.plan,
            platform=framework.platform,
            channel=framework.channel,
            bands=bands,
        )
        for app in apps:
            subject = (
                with_random_weights(graph, seed=seed)
                if get_app_spec(app).needs_weights
                else graph
            )
            report.results.append(functional_oracle(
                subject, app, framework,
                max_iterations=CHECK_PAGERANK_ITERATIONS, bands=bands,
            ))
    return report
