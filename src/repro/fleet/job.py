"""The fleet's unit of work: :class:`Job` in, :class:`JobResult` out.

A job pins everything one graph-analytics request needs — the app, a
deterministic :class:`~repro.chaos.spec.GraphSpec` recipe, a per-job
fault plan, a priority and an optional deadline — so a queue of jobs is
fully describable by JSON, the same property chaos cells have.  Results
are equally self-contained: status, final replica, attempt count,
virtual-time latency and the typed error (if any), which is what the
fleet report serialises and the determinism property compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.apps.registry import get_app_spec
from repro.chaos.generate import CAMPAIGN_APPS
from repro.chaos.spec import GraphSpec, check_root
from repro.errors import UserInputError
from repro.faults.plan import FaultPlan
from repro.graph.coo import EDGE_BYTES, VERTEX_WORD_BYTES
from repro.utils.validation import check_max_iterations
from repro.utils.wire import Wire

#: Apps a fleet job may request (each has a chaos conformance oracle).
FLEET_APPS = CAMPAIGN_APPS

#: Terminal statuses a job can end in.  ``rejected`` = shed by admission
#: control before entering the queue; ``failed`` = admitted but every
#: attempt up to the cap failed (both carry a typed error — a job is
#: never silently lost).
JOB_STATUSES = ("completed", "rejected", "failed")


@dataclass(frozen=True)
class Job(Wire):
    """One graph-analytics request submitted to the fleet."""

    job_id: str
    app: str
    graph: GraphSpec
    root: int = 0
    max_iterations: Optional[int] = 20
    #: Higher runs earlier when the queue is contended.
    priority: int = 0
    #: Virtual seconds after ``submit_time`` the caller needs the answer
    #: by; ``None`` = best effort.  Deadline jobs are hedge-eligible.
    deadline_seconds: Optional[float] = None
    #: Virtual time the job arrives at the admission controller.
    submit_time: float = 0.0
    fault_plan: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self):
        if self.app not in FLEET_APPS:
            raise UserInputError(
                f"no fleet dispatch for app {self.app!r}; "
                f"available: {FLEET_APPS}"
            )
        if self.deadline_seconds is not None and (
            not math.isfinite(self.deadline_seconds)
            or self.deadline_seconds <= 0
        ):
            raise UserInputError(
                f"deadline_seconds must be positive and finite, got "
                f"{self.deadline_seconds}"
            )
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise UserInputError(
                f"submit_time must be non-negative, got {self.submit_time}"
            )
        if get_app_spec(self.app).needs_weights and not self.graph.weighted:
            raise UserInputError(
                f"job {self.job_id}: {self.app} needs a weighted graph spec"
            )
        check_root(self.root, self.graph)
        check_max_iterations(self.max_iterations)

    def executed_size(self) -> Tuple[int, int, int]:
        """``(vertices, edges, edge_bytes)`` of the graph the job's app
        executes, answered from the spec before anything is built: a
        symmetric app (WCC) runs twice the edges, unweighted; a weighted
        edge carries a 4-byte weight after its 8-byte record."""
        vertices, edges = self.graph.built_size()
        weighted = self.graph.weighted
        if get_app_spec(self.app).symmetric:
            edges, weighted = 2 * edges, False
        return vertices, edges, EDGE_BYTES + (
            VERTEX_WORD_BYTES if weighted else 0
        )

    @property
    def deadline_critical(self) -> bool:
        """Deadline jobs are eligible for hedged execution."""
        return self.deadline_seconds is not None


@dataclass
class JobResult(Wire):
    """Terminal outcome of one job (exactly one per submitted job)."""

    job_id: str
    status: str
    #: Replica that produced the winning result (completed jobs only).
    replica_id: str = ""
    attempts: int = 0
    submit_time: float = 0.0
    start_time: float = 0.0
    finish_time: float = 0.0
    #: Typed error class name + message for rejected / failed jobs.
    error_type: str = ""
    detail: str = ""
    #: Conformance violations of the final run (empty = clean).
    violations: List[str] = field(default_factory=list)
    #: SHA-256 of the result property array (chaos digest convention).
    result_digest: str = ""
    iterations: int = 0
    hedged: bool = False
    deadline_seconds: Optional[float] = None

    def __post_init__(self):
        if self.status not in JOB_STATUSES:
            raise UserInputError(
                f"unknown job status {self.status!r}; "
                f"expected one of {JOB_STATUSES}"
            )

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def latency_seconds(self) -> float:
        """Submit-to-finish virtual latency (completed jobs)."""
        return max(self.finish_time - self.submit_time, 0.0)

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the deadline held; ``None`` for best-effort jobs."""
        if self.deadline_seconds is None:
            return None
        return self.completed and (
            self.latency_seconds <= self.deadline_seconds
        )
