"""The campaign engine: execute cells, classify outcomes, digest failures.

``run_cell`` is the single execution primitive everything else reuses —
the soak loop, the delta-debugging predicate, and bundle replay all call
it, which is what makes "replays to the identical failure digest" a
meaningful guarantee: there is exactly one code path from a cell spec to
an outcome.

Outcome classification:

* ``ok``          — the run survived and every chaos oracle passed;
* ``conformance`` — the run survived but an oracle failed (wrong answer,
  invariant violation, inconsistent health report);
* ``crash``       — the resilient executor gave up
  (:class:`~repro.errors.ReproError` escaped: watchdog exhaustion,
  unrecoverable fault, scheduling failure).

Every outcome carries a **failure digest**: SHA-256 over the canonical
JSON of ``{status, category, detail, result digest}``.  Cells are
deterministic in their spec, so replaying a cell must reproduce its
digest bit-for-bit — the repro-bundle contract.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.registry import get_app_spec
from repro.arch.config import PipelineConfig
from repro.core.framework import ReGraph
from repro.errors import ReproError, UserInputError
from repro.faults.resilience import ResiliencePolicy, RunHealthDict
from repro.check.oracles import ORACLE_APPS
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands
from repro.chaos.oracles import validate_cell
from repro.chaos.spec import CellSpec
from repro.perf.parallel import parallel_map
from repro.utils.wire import Wire

#: Campaign default: breakers trip fast (threshold 3) so soak runs
#: exercise them, while retry-only faults (detectable flips) get enough
#: attempts that survivable schedules never exhaust by bad luck.
DEFAULT_CHAOS_POLICY = ResiliencePolicy(max_retries=6, breaker_threshold=3)


def result_digest(run) -> str:
    """SHA-256 over the run's property array (dtype + shape + bytes)."""
    if run is None or run.props is None:
        return ""
    array = np.ascontiguousarray(run.props)
    h = hashlib.sha256()
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(array.tobytes())
    return h.hexdigest()


def failure_digest(
    status: str, category: str, detail: str, result: str
) -> str:
    """Canonical digest of one cell outcome."""
    payload = json.dumps(
        {
            "status": status,
            "category": category,
            "detail": detail,
            "result": result,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CellResult(Wire):
    """Outcome of one cell execution."""

    cell_id: str
    status: str
    category: str = ""
    detail: str = ""
    digest: str = ""
    violations: List[str] = field(default_factory=list)
    health: RunHealthDict = field(default_factory=dict)
    iterations: int = 0
    total_cycles: float = 0.0

    @property
    def survived(self) -> bool:
        return self.status == "ok"

    @property
    def signature(self) -> Tuple[str, str]:
        """What shrinking matches on: the *kind* of failure, not its
        cycle-exact detail (removing fault events shifts cycle counts)."""
        return (self.status, self.category)


def _framework(cell: CellSpec) -> ReGraph:
    return ReGraph(
        cell.device,
        pipeline=PipelineConfig(
            gather_buffer_vertices=cell.buffer_vertices
        ),
        num_pipelines=cell.num_pipelines,
    )


def run_cell(
    cell: CellSpec,
    policy: Optional[ResiliencePolicy] = None,
    bands: ToleranceBands = DEFAULT_BANDS,
) -> CellResult:
    """Execute one cell and classify its outcome (deterministic)."""
    policy = policy if policy is not None else DEFAULT_CHAOS_POLICY
    graph = cell.graph.build()
    framework = _framework(cell)
    try:
        if cell.app not in ORACLE_APPS:
            raise UserInputError(f"no chaos dispatch for app {cell.app!r}")
        graph = get_app_spec(cell.app).prepare(graph)
        run = framework.run_app(
            graph, cell.app, root=cell.root,
            max_iterations=cell.max_iterations,
            fault_plan=cell.fault_plan,
            resilience=policy,
        )
    except ReproError as exc:
        category = exc.__class__.__name__
        detail = str(exc)
        return CellResult(
            cell_id=cell.cell_id,
            status="crash",
            category=category,
            detail=detail,
            digest=failure_digest("crash", category, detail, ""),
        )
    violations = validate_cell(cell, graph, framework, run, bands)
    status = "ok" if not violations else "conformance"
    category = "" if not violations else violations[0].split(":", 1)[0]
    detail = "" if not violations else "; ".join(violations)
    return CellResult(
        cell_id=cell.cell_id,
        status=status,
        category=category,
        detail=detail,
        digest=failure_digest(status, category, detail, result_digest(run)),
        violations=violations,
        health=run.health.to_dict(),
        iterations=run.iterations,
        total_cycles=run.total_cycles,
    )


@dataclass
class CampaignReport(Wire):
    """Aggregate outcome of one campaign."""

    config: dict
    cells: List[dict] = field(default_factory=list)
    results: List[CellResult] = field(default_factory=list)
    bundles: List[str] = field(default_factory=list)

    @property
    def survived(self) -> int:
        return sum(r.survived for r in self.results)

    @property
    def failed(self) -> int:
        return len(self.results) - self.survived

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def fault_counts(self) -> dict:
        """Faults absorbed across surviving cells, by category."""
        counts: dict = {}
        for result in self.results:
            for fault in result.health.get("faults", []):
                category = fault["category"]
                counts[category] = counts.get(category, 0) + 1
        return counts


def run_campaign(
    config,
    policy: Optional[ResiliencePolicy] = None,
    bands: ToleranceBands = DEFAULT_BANDS,
    bundle_dir: Optional[str] = None,
    shrink_failures: bool = True,
    max_probes: int = 48,
    progress=None,
    workers: int = 1,
) -> CampaignReport:
    """Run every cell of a campaign; shrink + bundle each failure.

    ``progress`` is an optional ``(index, total, CellResult) -> None``
    callback (the CLI uses it for per-cell lines).

    ``workers`` > 1 fans the cells out over worker processes
    (:func:`~repro.perf.parallel.parallel_map`).  Each cell is already a
    deterministic pure function of its spec, so the report is
    bit-identical to a serial run: results are merged in cell order,
    and shrinking/bundling of failures stays in the parent (also in
    cell order).  With workers > 1 the ``progress`` callback fires
    after the batch completes rather than live.
    """
    from repro.chaos.generate import generate_cells

    if workers < 1:
        raise UserInputError(f"workers must be >= 1, got {workers}")
    policy = policy if policy is not None else DEFAULT_CHAOS_POLICY
    cells = generate_cells(config)
    report = CampaignReport(
        config=config.to_dict(), cells=[c.to_dict() for c in cells]
    )
    runner = functools.partial(run_cell, policy=policy, bands=bands)
    results = parallel_map(runner, cells, workers=workers)
    for index, (cell, result) in enumerate(zip(cells, results)):
        report.results.append(result)
        if progress is not None:
            progress(index, len(cells), result)
        if not result.survived and bundle_dir is not None:
            from repro.chaos.bundle import write_bundle
            from repro.chaos.shrink import shrink_cell

            if shrink_failures:
                shrunk = shrink_cell(
                    cell, result, policy=policy, bands=bands,
                    max_probes=max_probes,
                )
            else:
                shrunk = None
            path = write_bundle(
                bundle_dir, cell, result, policy, shrunk=shrunk
            )
            report.bundles.append(path)
    return report
