"""Installation self-check: a small correctness matrix.

``verify_installation()`` runs every judged application on small
synthetic graphs through the full simulated system and compares results
against the independent reference implementations — the function a user
runs once after installing to confirm the stack computes correct answers
on their machine.  Each comparison is
:func:`repro.check.oracles.functional_oracle` with the declared
:data:`~repro.check.tolerances.DEFAULT_BANDS`, the same judge ``repro
check`` applies.  Exposed on the CLI as ``python -m repro selfcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps.registry import get_app_spec
from repro.arch.config import PipelineConfig
from repro.check.oracles import ORACLE_APPS, functional_oracle
from repro.core.framework import ReGraph
from repro.graph.generators import power_law_graph, rmat_graph


@dataclass(frozen=True)
class CheckResult:
    """One matrix cell's outcome."""

    name: str
    passed: bool
    detail: str


def _check(name: str, condition: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(condition), detail=detail)


def verify_installation(verbose: bool = False) -> List[CheckResult]:
    """Run the correctness matrix; returns per-check results."""
    results: List[CheckResult] = []
    rng = np.random.default_rng(99)
    graphs = {
        "rmat": rmat_graph(10, 8, seed=2, name="selfcheck-rmat"),
        "powerlaw": power_law_graph(
            1500, 12_000, exponent=1.8, seed=3, name="selfcheck-pl"
        ),
    }

    for gname, graph in graphs.items():
        framework = ReGraph(
            "U280",
            pipeline=PipelineConfig(gather_buffer_vertices=256),
            num_pipelines=4,
        )
        pre = framework.preprocess(graph)
        try:
            pre.plan.validate(expected_edges=graph.num_edges)
            results.append(_check(f"{gname}/plan", True))
        except ValueError as exc:
            results.append(_check(f"{gname}/plan", False, str(exc)))
            continue

        weighted = graph.with_weights(rng.integers(1, 32, graph.num_edges))
        for app in ORACLE_APPS:
            oracle = functional_oracle(
                weighted if get_app_spec(app).needs_weights else graph,
                app, framework, max_iterations=8,
            )
            results.append(
                _check(f"{gname}/{app}", oracle.passed, oracle.detail)
            )

    if verbose:
        for r in results:
            status = "ok " if r.passed else "FAIL"
            print(f"[{status}] {r.name} {r.detail}")
    return results


def all_passed(results: List[CheckResult]) -> bool:
    """Whether every check in the matrix passed."""
    return all(r.passed for r in results)
