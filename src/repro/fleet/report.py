"""Aggregate outcome of one fleet run: jobs, replicas, assignment log.

The report is pure data with an exact dict round-trip; ``digest()`` is a
SHA-256 over the canonical JSON, which is how tests assert that a fleet
run is bit-reproducible from its seed (every timestamp in it is virtual,
so the digest is stable across machines and wall-clock conditions).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, TypedDict

from repro.fleet.job import JobResult
from repro.utils.wire import Wire, decode


class ReplicaRow(TypedDict):
    """One :meth:`Replica.to_dict` row of a report (the CLI prints it)."""

    replica_id: str
    device: str
    state: str
    jobs_completed: int
    jobs_failed: int
    consecutive_failures: int
    canaries_run: int
    repairs: int
    killed: bool
    retired_reason: str
    open_breakers: int


@dataclass(frozen=True)
class AssignmentRecord(Wire):
    """One dispatch decision (the failover-determinism property's log).

    ``kind`` is ``"primary"`` (first attempt), ``"requeue"`` (failover
    re-attempt), ``"hedge"`` (deadline duplicate) or ``"canary"``
    (quarantine probe).
    """

    seq: int
    time: float
    job_id: str
    replica_id: str
    attempt: int
    kind: str


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(int(round(fraction * (len(sorted_values) - 1))), 0)
    return sorted_values[min(rank, len(sorted_values) - 1)]


@dataclass
class FleetReport(Wire):
    """Everything one fleet run produced."""

    config: dict = field(default_factory=dict)
    jobs: List[JobResult] = field(default_factory=list)
    replicas: List[ReplicaRow] = field(default_factory=list)
    assignments: List[AssignmentRecord] = field(default_factory=list)
    admission: dict = field(default_factory=dict)
    #: Fleet-level counters: failovers, hedges, hedge wins, canaries...
    counters: Dict[str, int] = field(default_factory=dict)
    #: Virtual time the run went idle.
    makespan_seconds: float = 0.0

    # -- aggregates -----------------------------------------------------
    @property
    def completed(self) -> int:
        return sum(j.status == "completed" for j in self.jobs)

    @property
    def rejected(self) -> int:
        return sum(j.status == "rejected" for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(j.status == "failed" for j in self.jobs)

    @property
    def admitted(self) -> int:
        return len(self.jobs) - self.rejected

    @property
    def lost(self) -> int:
        """Admitted jobs without a terminal outcome — must always be 0."""
        return self.admitted - self.completed - self.failed

    @property
    def unclean(self) -> int:
        """Completed jobs with conformance violations (must be 0)."""
        return sum(
            bool(j.violations) for j in self.jobs if j.status == "completed"
        )

    @property
    def passed(self) -> bool:
        """Zero jobs lost, every completion conformance-clean."""
        return self.lost == 0 and self.unclean == 0

    @property
    def jobs_per_second(self) -> float:
        """Completed jobs over the run's virtual makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.completed / self.makespan_seconds

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p99 virtual latency over completed jobs."""
        latencies = sorted(
            j.latency_seconds for j in self.jobs if j.status == "completed"
        )
        return {
            "p50": _percentile(latencies, 0.50),
            "p99": _percentile(latencies, 0.99),
        }

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        percentiles = self.latency_percentiles()
        return {
            **super().to_dict(),
            "summary": {
                "completed": self.completed,
                "rejected": self.rejected,
                "failed": self.failed,
                "lost": self.lost,
                "unclean": self.unclean,
                "jobs_per_second": self.jobs_per_second,
                "latency_p50_seconds": percentiles["p50"],
                "latency_p99_seconds": percentiles["p99"],
            },
        }

    @classmethod
    def from_dict(cls, data, what: str = "FleetReport") -> "FleetReport":
        # ``summary`` is derived from the other fields on every to_dict.
        fields = decode(dict, data, what)
        fields.pop("summary", None)
        return super().from_dict(fields, what)

    def digest(self) -> str:
        """SHA-256 over canonical JSON (bit-reproducibility contract)."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def assignment_log(self) -> List[tuple]:
        """Compact (job, replica, attempt, kind) tuples, in dispatch
        order — what the determinism property compares."""
        return [
            (a.job_id, a.replica_id, a.attempt, a.kind)
            for a in self.assignments
        ]
