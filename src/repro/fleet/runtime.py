"""The fleet serving runtime: a deterministic discrete-event scheduler.

:class:`FleetRuntime` owns a pool of :class:`~repro.fleet.replica.Replica`
handles (mixed U280/U50) and pushes a queue of jobs through them under
faults.  Everything runs against the host layer's
:class:`~repro.runtime.host.VirtualClock` — job durations are the
*modelled* seconds of the underlying simulator plus the handle's
:class:`~repro.runtime.host.HostTimingConfig` overheads — so a whole
fleet run is bit-reproducible from its inputs.

Event order is total and deterministic: at equal timestamps completions
are processed before kills (a job that finishes the instant its card
dies has finished), kills before canaries, canaries before submissions.
After every event the dispatcher places as many queued jobs as replicas
are idle, highest priority first, onto the placement engine's best
replica.

Failure handling per attempt:

* a replica crash (kill event) or an escaped :class:`ReproError`
  re-queues the job with exponential backoff onto a *different* replica
  (the failed one is excluded from the next attempt), up to
  ``max_attempts``;
* a completed run whose conformance oracles object is treated exactly
  like a failure — a wrong answer is never "completed";
* a job whose modelled duration blows the fleet watchdog budget
  (``watchdog_factor`` x the Eq. 1-4 prediction) is reclaimed at the
  budget and failed over;
* exhausting the attempt cap yields a *typed*
  :class:`~repro.errors.JobFailoverExhaustedError` result — admitted
  jobs always reach a terminal status, never silence.

**Durability** (``docs/DURABILITY.md``): attach a
:class:`~repro.fleet.journal.JobJournal` and every transition above is
write-ahead logged — the input batch before serving starts, each
admission, dispatch, attempt outcome, lifecycle change and terminal
result before it takes effect — and attach a
:class:`~repro.fleet.store.ResultStore` and terminal results become
durable with idempotency-keyed exactly-once semantics.  A runtime that
dies mid-run (:class:`~repro.errors.FleetKilledError`, or a real
SIGKILL) is rebuilt by :meth:`FleetRuntime.recover`, whose
:meth:`RecoveredFleet.resume` deterministically replays the journaled
inputs: the recovered report is bit-identical to an uninterrupted run,
and results finalized before the crash are never emitted twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, TypedDict, Union

from repro.apps.registry import get_app_spec
from repro.chaos.spec import CellSpec, GraphSpec
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands
from repro.core.framework import PreparedGraph, PreprocessResult
from repro.errors import (
    FleetKilledError,
    FleetOverloadError,
    JobFailoverExhaustedError,
    NoServingReplicaError,
    ReplicaCrashError,
    ReproError,
    UserInputError,
)
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.fleet.admission import AdmissionController
from repro.fleet.job import Job, JobResult
from repro.fleet.journal import (
    JobJournal,
    JournalProjection,
    RepairReport,
    project_journal,
    repair_journal,
)
from repro.fleet.placement import PlacementEngine
from repro.fleet.replica import QUARANTINED, RETIRED, Replica, make_replica
from repro.fleet.report import AssignmentRecord, FleetReport
from repro.fleet.store import ResultIndex, ResultStore
from repro.graph.coo import Graph
from repro.runtime.host import HostTimingConfig, VirtualClock
from repro.utils.wire import Wire, decode


@dataclass(frozen=True)
class FleetPolicy(Wire):
    """Tunables of the fleet serving runtime (validated on construction)."""

    #: Jobs allowed to wait; deeper backlogs are shed with a typed error.
    max_queue_depth: int = 64
    #: Token-bucket admission rate (``None`` = unlimited).
    rate_limit_jobs_per_second: Optional[float] = None
    rate_limit_burst: int = 8
    #: Dispatches per job (primary + failovers) before giving up.
    max_attempts: int = 3
    #: Virtual-seconds backoff before failover attempt ``n`` (1-based
    #: growth by ``retry_backoff_factor``).
    retry_backoff_seconds: float = 0.02
    retry_backoff_factor: float = 2.0
    #: Consecutive failures before a replica starts draining.
    failure_threshold: int = 3
    #: Quarantine dwell before the canary probe.
    quarantine_cooldown_seconds: float = 0.5
    #: Canary probe: a tiny clean pagerank (deterministic).
    canary_vertices: int = 64
    canary_edges: int = 256
    canary_iterations: int = 3
    #: Duplicate deadline-critical stragglers onto the fastest idle
    #: replica (first result wins, loser cancelled).
    hedge_enabled: bool = True
    #: Fleet watchdog budget = factor x predicted job seconds.
    watchdog_factor: float = 64.0
    #: Placement health penalties (see PlacementEngine).
    breaker_penalty: float = 0.25
    degraded_penalty: float = 0.5
    #: Run every completed job through the chaos conformance oracles.
    check_conformance: bool = True
    #: Per-run resilience layer handed to every execute.
    resilience: ResiliencePolicy = field(
        default_factory=lambda: ResiliencePolicy(
            max_retries=6, breaker_threshold=3
        )
    )

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise UserInputError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_attempts < 1:
            raise UserInputError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if (
            not math.isfinite(self.retry_backoff_seconds)
            or self.retry_backoff_seconds < 0
        ):
            raise UserInputError(
                "retry_backoff_seconds must be non-negative and finite, "
                f"got {self.retry_backoff_seconds}"
            )
        if (
            not math.isfinite(self.retry_backoff_factor)
            or self.retry_backoff_factor < 1.0
        ):
            raise UserInputError(
                f"retry_backoff_factor must be >= 1, got "
                f"{self.retry_backoff_factor}"
            )
        if self.failure_threshold < 1:
            raise UserInputError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if (
            not math.isfinite(self.quarantine_cooldown_seconds)
            or self.quarantine_cooldown_seconds < 0
        ):
            raise UserInputError(
                "quarantine_cooldown_seconds must be non-negative, got "
                f"{self.quarantine_cooldown_seconds}"
            )
        if not math.isfinite(self.watchdog_factor) or self.watchdog_factor <= 0:
            raise UserInputError(
                f"watchdog_factor must be positive and finite, got "
                f"{self.watchdog_factor}"
            )
        if self.canary_vertices < 2 or self.canary_edges < 1:
            raise UserInputError(
                "canary graph must have >= 2 vertices and >= 1 edge"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff charged before failover attempt ``attempt`` (1-based)."""
        return self.retry_backoff_seconds * (
            self.retry_backoff_factor ** max(attempt - 1, 0)
        )

    def canary_graph(self) -> GraphSpec:
        """The deterministic quarantine-probe graph."""
        return GraphSpec(
            kind="uniform",
            vertices=self.canary_vertices,
            edges=self.canary_edges,
            seed=7,
        )


@dataclass(frozen=True)
class ReplicaKill(Wire):
    """A fleet-level chaos event: ``replica_id`` dies at ``at_seconds``."""

    replica_id: str
    at_seconds: float

    def __post_init__(self):
        if not math.isfinite(self.at_seconds) or self.at_seconds < 0:
            raise UserInputError(
                f"kill time must be non-negative, got {self.at_seconds}"
            )


# ----------------------------------------------------------------------
# Internal bookkeeping
# ----------------------------------------------------------------------
class _QueuedJob:
    """Mutable per-job state while the job is alive in the runtime.

    The entry owns the job's graph (the oracles judge against it) and
    its one :class:`~repro.core.framework.PreparedGraph` (DBG once,
    partitions once per interval, one plan per schedule key).
    Placement probes and every attempt (primary, failover, hedge)
    preprocess on it, so replicas with equal configurations share one
    plan and its compiled engine, whatever their device, and every
    configuration shares the graph's one functional engine;
    :meth:`finish` drops it when the job reaches its terminal result.
    """

    __slots__ = (
        "job", "index", "next_attempt", "earliest_start", "exclude",
        "active", "done", "last_error", "hedged", "_graph", "_prepared",
    )

    def __init__(self, job: Job, index: int):
        self.job = job
        self.index = index
        self.next_attempt = 1
        self.earliest_start = job.submit_time
        self.exclude: Tuple[str, ...] = ()
        #: In-flight attempts (2 while a hedge races the primary).
        self.active = 0
        self.done = False
        self.last_error: Tuple[str, str] = ("", "")
        self.hedged = False
        self._graph: Optional[Graph] = None
        self._prepared: Optional[PreparedGraph] = None

    def graph(self) -> Graph:
        """The graph the job's app executes (built on first use)."""
        if self._graph is None:
            self._graph = get_app_spec(self.job.app).prepare(
                self.job.graph.build()
            )
        return self._graph

    def prepared(self) -> PreparedGraph:
        """The job's graph, DBG-relabelled once (built on first use)."""
        if self._prepared is None:
            self._prepared = PreparedGraph(self.graph())
        return self._prepared

    def preprocessed(self, replica: Replica) -> PreprocessResult:
        """The job's graph preprocessed for ``replica``'s configuration."""
        return replica.handle.framework.preprocess(self.prepared())

    def finish(self) -> None:
        """Terminal result reached: drop the preprocessed state."""
        self.done = True
        self._graph = None
        self._prepared = None

    def sort_key(self) -> tuple:
        """Dispatch order: priority desc, tighter deadline, FIFO."""
        deadline = (
            self.job.deadline_seconds
            if self.job.deadline_seconds is not None
            else math.inf
        )
        return (-self.job.priority, deadline, self.job.submit_time, self.index)


class _Attempt:
    """One dispatched execution of a job on one replica."""

    __slots__ = (
        "entry", "replica", "number", "kind", "start", "finish", "ok",
        "error_type", "detail", "violations", "digest", "iterations",
        "cancelled", "partner",
    )

    def __init__(self, entry, replica, number, kind, start, finish):
        self.entry = entry
        self.replica = replica
        self.number = number
        self.kind = kind
        self.start = start
        self.finish = finish
        self.ok = False
        self.error_type = ""
        self.detail = ""
        self.violations: List[str] = []
        self.digest = ""
        self.iterations = 0
        self.cancelled = False
        self.partner: Optional["_Attempt"] = None


# Event type priorities: completions strictly before kills at equal
# times (a job that finishes when its card dies *has* finished), kills
# before canaries, canaries before new submissions.
_EV_COMPLETE, _EV_KILL, _EV_CANARY, _EV_SUBMIT, _EV_IDLE = range(5)


class FleetRuntime:
    """Serves a queue of jobs over a replica pool, under faults."""

    def __init__(
        self,
        replicas: Sequence[Replica],
        policy: Optional[FleetPolicy] = None,
        clock: Optional[VirtualClock] = None,
        bands: ToleranceBands = DEFAULT_BANDS,
        journal: Optional[JobJournal] = None,
        store: Optional[ResultStore] = None,
        autoscaler=None,
    ):
        if not replicas:
            raise UserInputError("a fleet needs at least one replica")
        ids = [r.replica_id for r in replicas]
        if len(set(ids)) != len(ids):
            raise UserInputError(f"duplicate replica ids: {sorted(ids)}")
        self.replicas = list(replicas)
        self.policy = policy or FleetPolicy()
        self.clock = clock or VirtualClock()
        self.bands = bands
        #: Write-ahead journal: every transition is logged before it
        #: takes effect.  ``None`` = in-memory runtime (the default).
        self.journal = journal
        #: Durable result store with idempotency-keyed exactly-once
        #: writes; ``None`` = results live only in the report.
        self.store = store
        #: Optional :class:`~repro.fleet.autoscale.Autoscaler`: after
        #: every event the runtime feeds it telemetry and applies its
        #: scale-up/scale-down decisions through the normal replica
        #: lifecycle.  Its counters are a side-channel like
        #: ``recovery_stats`` — never part of the report digest.
        self.autoscaler = autoscaler
        #: Events the run loop has processed (crash-point reference).
        self.events_processed = 0
        self.admission = AdmissionController(
            self.policy.max_queue_depth,
            self.policy.rate_limit_jobs_per_second,
            self.policy.rate_limit_burst,
        )
        self.placement = PlacementEngine(
            breaker_penalty=self.policy.breaker_penalty,
            degraded_penalty=self.policy.degraded_penalty,
        )
        self._programmed: set = set()
        self._queue: List[_QueuedJob] = []
        self._inflight: List[_Attempt] = []
        self._results: Dict[str, JobResult] = {}
        self._assignments: List[AssignmentRecord] = []
        self._counters: Dict[str, int] = {
            "failovers": 0, "hedges": 0, "hedge_wins": 0, "canaries": 0,
            "repairs": 0, "kills": 0, "watchdog_trips": 0, "crashes": 0,
        }
        self._canary_seq = 0
        self._admit_seq = 0

    # -- durability helpers ---------------------------------------------
    def _wal(self, rtype: str, payload: dict) -> None:
        """Write-ahead append (no-op without a journal)."""
        if self.journal is not None:
            self.journal.append(rtype, payload)

    def _wal_replica(self, replica: Replica, reason: str = "") -> None:
        """Journal a replica lifecycle transition + its breaker bank."""
        if self.journal is None:
            return
        self.journal.append("replica-state", {
            "replica_id": replica.replica_id,
            "state": replica.state,
            "reason": reason or replica.retired_reason,
            "time": self.clock.now,
            "breakers": replica.handle.breaker_snapshot(),
        })

    def _pool_spec(self) -> List[dict]:
        """A rebuildable recipe of the pool (journal ``run-begin``)."""
        return [
            {
                "replica_id": r.replica_id,
                "device": r.device,
                "buffer_vertices": (
                    r.handle.framework.pipeline.gather_buffer_vertices
                ),
                "num_pipelines": r.handle.framework.num_pipelines,
                "timing": r.handle.timing.to_dict(),
            }
            for r in self.replicas
        ]

    def _persist_result(self, result: JobResult) -> None:
        """Make a terminal result durable, exactly once per job id.

        The journal gets the ``result`` record first (write-ahead), then
        the store either accepts the write or — on resubmission after a
        crash — suppresses it and cross-checks the recomputed outcome
        against the durable one (``replay_divergences`` must stay 0).
        """
        self._wal("result", {
            "result": result.to_dict(), "time": self.clock.now,
        })
        if self.store is not None:
            self.store.put(result)

    @property
    def recovery_stats(self) -> Dict[str, int]:
        """Side-channel recovery accounting, deliberately *outside*
        FleetReport: the report digest certifies the served outcome,
        which must match an uninterrupted run bit-for-bit."""
        results = (
            self.store.results if self.store is not None else ResultIndex()
        )
        return {
            "results_restored": results.restored,
            "duplicates_suppressed": results.duplicates_suppressed,
            "replay_divergences": results.replay_divergences,
        }

    # -- helpers --------------------------------------------------------
    def _replica(self, replica_id: str) -> Replica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise UserInputError(
            f"unknown replica {replica_id!r}; pool: "
            f"{[r.replica_id for r in self.replicas]}"
        )

    def _log(self, time, job_id, replica_id, attempt, kind) -> None:
        self._assignments.append(AssignmentRecord(
            seq=len(self._assignments),
            time=time,
            job_id=job_id,
            replica_id=replica_id,
            attempt=attempt,
            kind=kind,
        ))

    def _cell_for(self, job: Job, replica: Replica) -> CellSpec:
        fw = replica.handle.framework
        return CellSpec(
            cell_id=job.job_id,
            device=replica.device,
            app=job.app,
            graph=job.graph,
            fault_plan=job.fault_plan,
            root=job.root,
            max_iterations=job.max_iterations,
            buffer_vertices=fw.pipeline.gather_buffer_vertices,
            num_pipelines=fw.num_pipelines,
        )

    # -- execution of one attempt --------------------------------------
    def _execute_attempt(
        self, entry: _QueuedJob, replica: Replica, kind: str
    ) -> _Attempt:
        """Model one dispatch: run the simulator now, schedule the
        completion event at the modelled finish time."""
        job = entry.job
        now = self.clock.now
        graph = entry.graph()
        handle = replica.handle
        pre = entry.preprocessed(replica)
        predicted = self.placement.predicted_seconds(replica, job, pre)
        programming = 0.0
        if replica.replica_id not in self._programmed:
            programming = handle.timing.programming_seconds
            self._programmed.add(replica.replica_id)
        migration_before = handle.migration_seconds

        self._wal("dispatch", {
            "job_id": job.job_id,
            "replica_id": replica.replica_id,
            "attempt": entry.next_attempt,
            "kind": kind,
            "time": now,
        })
        attempt = _Attempt(entry, replica, entry.next_attempt, kind, now, now)
        try:
            handle.load_graph(pre)
            run = handle.execute(
                job.app,
                root=job.root,
                max_iterations=job.max_iterations,
                fault_plan=job.fault_plan,
                resilience=self.policy.resilience,
            )
        except ReproError as exc:
            # The resilient layer gave up: charge the model's estimate as
            # the time burned discovering that, then fail the attempt.
            attempt.error_type = exc.__class__.__name__
            attempt.detail = str(exc)
            duration = predicted
        else:
            migration = handle.migration_seconds - migration_before
            duration = migration + run.total_seconds
            budget = self.policy.watchdog_factor * max(predicted, 1e-12)
            if duration > budget:
                # Fleet watchdog: reclaim the replica at the budget.
                self._counters["watchdog_trips"] += 1
                attempt.error_type = "WatchdogTimeoutError"
                attempt.detail = (
                    f"job ran {duration:.6f}s of modelled time, fleet "
                    f"budget is {budget:.6f}s"
                )
                duration = budget
            else:
                attempt.ok = True
                attempt.iterations = run.iterations
                from repro.chaos.campaign import result_digest

                attempt.digest = result_digest(run)
                if self.policy.check_conformance:
                    from repro.chaos.oracles import validate_cell

                    violations = validate_cell(
                        self._cell_for(job, replica), graph,
                        handle.framework, run, self.bands,
                    )
                    if violations:
                        attempt.ok = False
                        attempt.violations = violations
                        attempt.error_type = "ConformanceError"
                        attempt.detail = "; ".join(violations)

        duration += programming
        attempt.finish = now + duration
        replica.busy_until = attempt.finish
        replica.inflight += 1
        entry.active += 1
        self._inflight.append(attempt)
        self._log(now, job.job_id, replica.replica_id, attempt.number, kind)
        return attempt

    # -- terminal outcomes ----------------------------------------------
    def _finalize_rejected(self, job: Job, exc: FleetOverloadError) -> None:
        result = JobResult(
            job_id=job.job_id,
            status="rejected",
            attempts=0,
            submit_time=job.submit_time,
            finish_time=job.submit_time,
            error_type=exc.__class__.__name__,
            detail=str(exc),
            deadline_seconds=job.deadline_seconds,
        )
        # Rejections are terminal too: the same exactly-once store
        # write, behind the journal's ``reject`` record.
        self._wal("reject", {"result": result.to_dict()})
        if self.store is not None:
            self.store.put(result)
        self._results[job.job_id] = result

    def _finalize_completed(self, attempt: _Attempt) -> None:
        entry = attempt.entry
        entry.finish()
        job = entry.job
        result = JobResult(
            job_id=job.job_id,
            status="completed",
            replica_id=attempt.replica.replica_id,
            attempts=attempt.number,
            submit_time=job.submit_time,
            start_time=attempt.start,
            finish_time=attempt.finish,
            violations=list(attempt.violations),
            result_digest=attempt.digest,
            iterations=attempt.iterations,
            hedged=entry.hedged,
            deadline_seconds=job.deadline_seconds,
        )
        self._persist_result(result)
        self._results[job.job_id] = result
        if self.autoscaler is not None:
            self.autoscaler.record_latency(
                attempt.finish - job.submit_time
            )
        attempt.replica.record_success()
        if attempt.kind == "hedge":
            self._counters["hedge_wins"] += 1
        partner = attempt.partner
        if partner is not None and not partner.cancelled:
            # Cancel the losing duplicate: free its replica immediately.
            partner.cancelled = True
            if partner in self._inflight:
                self._inflight.remove(partner)
                partner.replica.inflight -= 1
                partner.replica.busy_until = min(
                    partner.replica.busy_until, self.clock.now
                )
                partner.entry.active -= 1
                self._maybe_quarantine(partner.replica)

    def _finalize_failed(
        self, entry: _QueuedJob, error_type: str, detail: str, attempts: int
    ) -> None:
        entry.finish()
        job = entry.job
        result = JobResult(
            job_id=job.job_id,
            status="failed",
            attempts=attempts,
            submit_time=job.submit_time,
            finish_time=self.clock.now,
            error_type=error_type,
            detail=detail,
            hedged=entry.hedged,
            deadline_seconds=job.deadline_seconds,
        )
        self._persist_result(result)
        self._results[job.job_id] = result

    def _fail_or_requeue(self, entry: _QueuedJob, replica_id: str) -> None:
        """All in-flight attempts of ``entry`` are gone and the last one
        failed: fail over onto a different replica, or exhaust."""
        error_type, detail = entry.last_error
        if entry.next_attempt >= self.policy.max_attempts:
            self._finalize_failed(
                entry,
                JobFailoverExhaustedError.__name__,
                f"gave up after {entry.next_attempt} attempt(s); last "
                f"error on {replica_id}: [{error_type}] {detail}",
                entry.next_attempt,
            )
            return
        backoff = self.policy.backoff_seconds(entry.next_attempt)
        entry.next_attempt += 1
        entry.earliest_start = self.clock.now + backoff
        entry.exclude = (replica_id,)
        self._counters["failovers"] += 1
        self._queue.append(entry)

    def _maybe_quarantine(self, replica: Replica) -> None:
        """A draining replica with nothing in flight enters quarantine —
        unless the autoscaler owns the drain (scale-down), in which case
        the replica retires directly: it is healthy, just surplus, so a
        canary probe would only re-admit capacity the policy shed."""
        if replica.state == "DRAINING" and replica.inflight == 0:
            if self.autoscaler is not None and self.autoscaler.owns_drain(
                replica.replica_id
            ):
                replica.retire("autoscaler scale-down")
                self.autoscaler.note_retired(
                    replica.replica_id, self.clock.now
                )
                self._wal_replica(replica, "autoscaler scale-down")
                return
            replica.enter_quarantine(self.clock.now)
            self._wal_replica(replica, "drained; entering quarantine")

    # -- event handlers --------------------------------------------------
    def _on_complete(self, attempt: _Attempt) -> None:
        self._inflight.remove(attempt)
        attempt.replica.inflight -= 1
        attempt.entry.active -= 1
        entry = attempt.entry
        self._wal("attempt-end", {
            "job_id": entry.job.job_id,
            "replica_id": attempt.replica.replica_id,
            "attempt": attempt.number,
            "ok": attempt.ok,
            "error_type": attempt.error_type,
            "time": self.clock.now,
        })
        if entry.done:
            self._maybe_quarantine(attempt.replica)
            return
        if attempt.ok:
            self._finalize_completed(attempt)
            self._maybe_quarantine(attempt.replica)
            return
        # Failed attempt: charge the replica's failure budget.
        entry.last_error = (attempt.error_type, attempt.detail)
        if attempt.replica.record_failure(self.policy.failure_threshold):
            attempt.replica.begin_drain(self.clock.now)
            self._wal_replica(
                attempt.replica, "consecutive failures; draining"
            )
        else:
            self._maybe_quarantine(attempt.replica)
        if entry.active > 0:
            return  # a hedge duplicate is still racing
        self._fail_or_requeue(entry, attempt.replica.replica_id)

    def _on_kill(self, kill: ReplicaKill) -> None:
        replica = self._replica(kill.replica_id)
        if replica.state == RETIRED:
            return
        self._counters["kills"] += 1
        self._wal("kill", {
            "replica_id": replica.replica_id,
            "time": self.clock.now,
            "reason": f"killed at t={kill.at_seconds:g}s",
        })
        replica.kill(f"killed at t={kill.at_seconds:g}s")
        self._wal_replica(replica)
        victims = [a for a in self._inflight if a.replica is replica]
        for attempt in victims:
            self._inflight.remove(attempt)
            replica.inflight -= 1
            attempt.cancelled = True
            entry = attempt.entry
            entry.active -= 1
            self._counters["crashes"] += 1
            self._wal("attempt-end", {
                "job_id": entry.job.job_id,
                "replica_id": replica.replica_id,
                "attempt": attempt.number,
                "ok": False,
                "error_type": ReplicaCrashError.__name__,
                "time": self.clock.now,
            })
            if entry.done:
                continue
            entry.last_error = (
                ReplicaCrashError.__name__,
                f"replica {replica.replica_id} crashed mid-job at "
                f"t={self.clock.now:g}s",
            )
            if entry.active > 0:
                continue  # the hedge duplicate keeps running elsewhere
            self._fail_or_requeue(entry, replica.replica_id)

    def _on_canary(self, replica: Replica) -> None:
        """Quarantine re-probe: a clean tiny pagerank must pass before
        the replica rejoins; a second strike retires it."""
        if replica.state != QUARANTINED:
            return
        self._canary_seq += 1
        self._counters["canaries"] += 1
        replica.canaries_run += 1
        canary_id = f"__canary__{self._canary_seq}"
        replica.handle.resume()
        job = Job(
            job_id=canary_id,
            app="pagerank",
            graph=self.policy.canary_graph(),
            max_iterations=self.policy.canary_iterations,
        )
        graph = job.graph.build()
        self._log(
            self.clock.now, canary_id, replica.replica_id, 1, "canary"
        )
        try:
            replica.handle.load_graph(graph)
            run = replica.handle.execute(
                job.app,
                max_iterations=job.max_iterations,
                fault_plan=FaultPlan(),
                resilience=self.policy.resilience,
            )
        except ReproError as exc:
            replica.retire(f"canary failed: {exc.__class__.__name__}")
            self._wal_replica(replica)
            return
        if self.policy.check_conformance:
            from repro.chaos.oracles import validate_cell

            violations = validate_cell(
                self._cell_for(job, replica), graph,
                replica.handle.framework, run, self.bands,
            )
            if violations:
                replica.retire(f"canary unclean: {violations[0]}")
                self._wal_replica(replica)
                return
        replica.busy_until = self.clock.now + run.total_seconds
        replica.repair()
        self._counters["repairs"] += 1
        self._wal_replica(replica, "canary passed; serving again")

    # -- dispatch --------------------------------------------------------
    def _dispatchable(self) -> List[_QueuedJob]:
        now = self.clock.now
        return sorted(
            (e for e in self._queue if e.earliest_start <= now),
            key=_QueuedJob.sort_key,
        )

    def _idle_serving(self) -> List[Replica]:
        now = self.clock.now
        return [
            r for r in self.replicas
            if r.is_serving and r.busy_until <= now and r.inflight == 0
        ]

    def _dispatch(self) -> None:
        """Place queued jobs onto idle replicas until one side runs dry."""
        while True:
            idle = self._idle_serving()
            if not idle:
                return
            progressed = False
            for entry in self._dispatchable():
                job = entry.job
                replica = self.placement.choose(
                    idle, job, entry.preprocessed, self.clock.now,
                    exclude=entry.exclude,
                )
                if replica is None and entry.exclude:
                    # Failover prefers a different replica but falls back
                    # to the failed one when it is the only card left.
                    replica = self.placement.choose(
                        idle, job, entry.preprocessed, self.clock.now
                    )
                if replica is None:
                    if not self._placeable_anywhere(entry):
                        self._queue.remove(entry)
                        self._finalize_failed(
                            entry,
                            NoServingReplicaError.__name__,
                            self._unplaceable_detail(entry),
                            entry.next_attempt - 1,
                        )
                        progressed = True
                        break
                    continue
                self._queue.remove(entry)
                kind = "primary" if entry.next_attempt == 1 else "requeue"
                attempt = self._execute_attempt(entry, replica, kind)
                self._maybe_hedge(entry, attempt)
                progressed = True
                break
            if not progressed:
                return

    def _placeable_anywhere(self, entry: _QueuedJob) -> bool:
        """Could any current or future (non-retired) replica hold it?"""
        return any(
            r.state != RETIRED and self.placement.holds(r, entry.job)
            for r in self.replicas
        )

    def _unplaceable_detail(self, entry: _QueuedJob) -> str:
        error_type, detail = entry.last_error
        suffix = (
            f"; last error: [{error_type}] {detail}" if error_type else ""
        )
        return (
            f"no serving replica can take job {entry.job.job_id} "
            f"(pool states: "
            + ", ".join(f"{r.replica_id}={r.state}" for r in self.replicas)
            + ")" + suffix
        )

    def _maybe_hedge(self, entry: _QueuedJob, primary: _Attempt) -> None:
        """Duplicate a deadline-critical straggler onto the fastest idle
        replica; first result wins, the loser is cancelled."""
        job = entry.job
        if not (self.policy.hedge_enabled and job.deadline_critical):
            return
        if primary.finish <= job.submit_time + job.deadline_seconds:
            return
        backup = self.placement.choose(
            self._idle_serving(), job, entry.preprocessed, self.clock.now,
            exclude=entry.exclude + (primary.replica.replica_id,),
        )
        if backup is None:
            return
        entry.hedged = True
        self._counters["hedges"] += 1
        hedge = self._execute_attempt(entry, backup, "hedge")
        hedge.number = primary.number
        primary.partner = hedge
        hedge.partner = primary

    # -- autoscaling -----------------------------------------------------
    def _autoscale(self) -> bool:
        """Feed the autoscaler one observation; apply its decision.

        Returns True when the pool changed (the caller re-dispatches so
        a spawned replica can take queued work in the same event)."""
        scaler = self.autoscaler
        serving = [r for r in self.replicas if r.is_serving]
        pool = [r for r in self.replicas if r.state != RETIRED]
        action = scaler.observe(
            now=self.clock.now,
            queue_depth=len(self._queue),
            serving=len(serving),
            pool_size=len(pool),
            admission_stats=self.admission.stats,
        )
        if action == "scale-up":
            return self._scale_up()
        if action == "scale-down":
            return self._scale_down(serving)
        return False

    def _scale_up(self) -> bool:
        """Spawn one replica cloned from the pool's first recipe."""
        recipe = self.replicas[0]
        new_id = self.autoscaler.next_replica_id(
            r.replica_id for r in self.replicas
        )
        replica = make_replica(
            new_id,
            recipe.device,
            buffer_vertices=(
                recipe.handle.framework.pipeline.gather_buffer_vertices
            ),
            num_pipelines=recipe.handle.framework.num_pipelines,
            timing=recipe.handle.timing,
        )
        self.replicas.append(replica)
        self.autoscaler.note_spawned(new_id, self.clock.now)
        self._wal_replica(replica, "autoscaler scale-up")
        return True

    def _scale_down(self, serving: List[Replica]) -> bool:
        """Drain one surplus replica toward retirement.

        Prefers autoscaler-spawned replicas (latest first) so a
        scaled-up pool shrinks back toward its configured core; the
        victim finishes any in-flight work before retiring
        (SERVING -> DRAINING -> RETIRED, no canary)."""
        if not serving:
            return False
        spawned = [
            r for r in serving if r.replica_id.startswith("as")
        ]
        victim = (spawned or serving)[-1]
        victim.begin_drain(self.clock.now)
        self.autoscaler.begin_scale_down(victim.replica_id, self.clock.now)
        if victim.inflight == 0:
            # begin_drain already quarantined the idle victim; a canary
            # would only re-admit capacity the policy shed — retire now.
            victim.retire("autoscaler scale-down")
            self.autoscaler.note_retired(victim.replica_id, self.clock.now)
            self._wal_replica(victim, "autoscaler scale-down")
        else:
            self._wal_replica(victim, "autoscaler scale-down; draining")
        return True

    # -- the event loop --------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        kills: Sequence[ReplicaKill] = (),
        halt_after_events: Optional[int] = None,
    ) -> FleetReport:
        """Serve ``jobs`` (ordered by submit time) to completion.

        Returns a :class:`FleetReport` with exactly one terminal
        :class:`JobResult` per submitted job.

        ``halt_after_events`` models a hard kill of the serving process
        (chaos only): after that many loop events the runtime raises
        :class:`FleetKilledError` with no cleanup — exactly what a
        SIGKILL leaves behind.  Whatever the journal and store made
        durable before the halt is what ``recover`` gets to see.
        """
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise UserInputError("duplicate job ids in the submission batch")
        for kill in kills:
            self._replica(kill.replica_id)  # validate ids up front
        if halt_after_events is not None and halt_after_events < 1:
            raise UserInputError(
                f"halt_after_events must be >= 1, got {halt_after_events}"
            )

        # Write-ahead: the full input batch is durable before serving
        # starts, which is what makes replay-based recovery possible —
        # the event loop is a pure function of this record.
        self._wal("run-begin", {
            "policy": self.policy.to_dict(),
            "pool": self._pool_spec(),
            "jobs": [j.to_dict() for j in jobs],
            "kills": [k.to_dict() for k in kills],
        })

        submissions = sorted(
            enumerate(jobs), key=lambda p: (p[1].submit_time, p[0])
        )
        pending_kills = sorted(
            enumerate(kills), key=lambda p: (p[1].at_seconds, p[0])
        )
        sub_i = kill_i = 0

        while True:
            events: List[tuple] = []
            if self._inflight:
                best = min(
                    self._inflight, key=lambda a: (a.finish, a.entry.index)
                )
                events.append((best.finish, _EV_COMPLETE, best))
            if kill_i < len(pending_kills):
                kill = pending_kills[kill_i][1]
                events.append((kill.at_seconds, _EV_KILL, kill))
            canaries = [
                r for r in self.replicas
                if r.state == QUARANTINED and r.quarantined_at is not None
            ]
            if canaries:
                due = min(
                    canaries,
                    key=lambda r: (
                        r.quarantined_at
                        + self.policy.quarantine_cooldown_seconds,
                        r.replica_id,
                    ),
                )
                events.append((
                    due.quarantined_at
                    + self.policy.quarantine_cooldown_seconds,
                    _EV_CANARY,
                    due,
                ))
            if sub_i < len(submissions):
                job = submissions[sub_i][1]
                events.append((job.submit_time, _EV_SUBMIT, job))
            if self._queue:
                # Nothing else pending, but queued work waits on a busy
                # replica or a backoff window: advance to whichever
                # frees first.
                wake = [
                    r.busy_until for r in self.replicas
                    if r.is_serving and r.busy_until > self.clock.now
                ]
                wake += [
                    e.earliest_start for e in self._queue
                    if e.earliest_start > self.clock.now
                ]
                if wake:
                    events.append((min(wake), _EV_IDLE, None))

            if not events:
                if self._queue:
                    # No event can ever free capacity again: every job
                    # still queued gets a typed terminal error.
                    for entry in sorted(self._queue, key=_QueuedJob.sort_key):
                        self._finalize_failed(
                            entry,
                            NoServingReplicaError.__name__,
                            self._unplaceable_detail(entry),
                            entry.next_attempt - 1,
                        )
                    self._queue.clear()
                break

            when, priority, payload = min(events, key=lambda e: (e[0], e[1]))
            self.clock.advance_to(when)
            if priority == _EV_COMPLETE:
                self._on_complete(payload)
            elif priority == _EV_KILL:
                kill_i += 1
                self._on_kill(payload)
            elif priority == _EV_CANARY:
                self._on_canary(payload)
            elif priority == _EV_SUBMIT:
                sub_i += 1
                self._submit(payload)
            self._dispatch()
            if self.autoscaler is not None and self._autoscale():
                self._dispatch()
            self.events_processed += 1
            if (
                halt_after_events is not None
                and self.events_processed >= halt_after_events
            ):
                # Hard kill: no run-end record, no store flush beyond
                # what each append already fsynced.
                raise FleetKilledError(
                    f"fleet runtime hard-killed after "
                    f"{self.events_processed} event(s) at "
                    f"t={self.clock.now:g}s",
                    events_processed=self.events_processed,
                )

        self._wal("run-end", {
            "makespan_seconds": self.clock.now,
            "jobs": len(jobs),
            "events_processed": self.events_processed,
        })
        return self._build_report(jobs, kills)

    def _submit(self, job: Job) -> None:
        self._wal("submit", {
            "job_id": job.job_id, "time": self.clock.now,
        })
        try:
            self.admission.admit(job, len(self._queue), self.clock.now)
        except FleetOverloadError as exc:
            self._finalize_rejected(job, exc)
            return
        self._admit_seq += 1
        self._wal("admit", {
            "job_id": job.job_id,
            "seq": self._admit_seq,
            "time": self.clock.now,
        })
        self._queue.append(_QueuedJob(job, self._admit_seq))

    # -- crash recovery ---------------------------------------------------
    @classmethod
    def recover(
        cls,
        journal_path: Union[str, Path],
        store_path: Optional[Union[str, Path]] = None,
        quarantine_dir: Optional[Union[str, Path]] = None,
    ) -> "RecoveredFleet":
        """Rebuild a killed fleet from its journal (and result store).

        Repairs the journal first — a torn tail is truncated, any other
        damaged record is quarantined into ``quarantine_dir`` — then
        parses the ``run-begin`` input batch and folds the surviving
        records into a :class:`~repro.fleet.journal.JournalProjection`
        of the moment of death.  Corruption never aborts recovery; only
        a journal whose ``run-begin`` record itself is gone (nothing to
        replay) raises a typed :class:`~repro.errors.UserInputError`.

        Call :meth:`RecoveredFleet.resume` on the result to finish the
        interrupted run.
        """
        journal_path = Path(journal_path)
        records, repair = repair_journal(journal_path, quarantine_dir)
        projection = project_journal(records)
        begin = projection.run_begin
        if begin is None:
            raise UserInputError(
                f"journal {journal_path} has no intact run-begin record; "
                "the input batch is unrecoverable (was the journal "
                "attached before run() was called?)"
            )
        begin = decode(RunBegin, begin, f"journal {journal_path} run-begin")
        return RecoveredFleet(
            journal_path=journal_path,
            store_path=Path(store_path) if store_path is not None else None,
            policy=begin["policy"],
            pool_spec=begin["pool"],
            jobs=begin["jobs"],
            kills=begin["kills"],
            projection=projection,
            repair=repair,
        )

    def report_for(
        self, jobs: Sequence[Job], kills: Sequence[ReplicaKill] = ()
    ) -> FleetReport:
        """A report over ``jobs`` served by earlier :meth:`run` calls.

        The serving facade pushes micro-batches through one persistent
        runtime (one virtual clock, state carried between calls) and
        asks for the aggregate report at drain time; every job must
        already have a terminal result.
        """
        missing = [j.job_id for j in jobs if j.job_id not in self._results]
        if missing:
            raise UserInputError(
                f"no terminal result for job(s) {missing[:5]}; "
                "report_for only covers jobs already served by run()"
            )
        return self._build_report(jobs, kills)

    def _build_report(
        self, jobs: Sequence[Job], kills: Sequence[ReplicaKill]
    ) -> FleetReport:
        ordered = [self._results[j.job_id] for j in jobs]
        return FleetReport(
            config={
                "policy": self.policy.to_dict(),
                "pool": [
                    {"replica_id": r.replica_id, "device": r.device}
                    for r in self.replicas
                ],
                "kills": [k.to_dict() for k in kills],
                "num_jobs": len(jobs),
            },
            jobs=ordered,
            replicas=[r.to_dict() for r in self.replicas],
            assignments=list(self._assignments),
            admission=self.admission.stats.to_dict(),
            counters=dict(self._counters),
            makespan_seconds=self.clock.now,
        )


class PoolEntry(TypedDict):
    """One replica of a journal ``run-begin`` pool recipe."""

    replica_id: str
    device: str
    buffer_vertices: int
    num_pipelines: int
    timing: HostTimingConfig


class RunBegin(TypedDict):
    """The journal ``run-begin`` record: the whole input batch."""

    policy: FleetPolicy
    pool: List[PoolEntry]
    jobs: List[Job]
    kills: List[ReplicaKill]


@dataclass
class RecoveredFleet:
    """Everything :meth:`FleetRuntime.recover` pulled off disk.

    ``projection`` is the observability view (what was queued, in
    flight, and broken when the process died); ``resume`` is the
    authoritative rebuild: it re-creates the pool from the journaled
    recipe and deterministically replays the journaled input batch from
    t=0.  Results that were already durable in the store are suppressed
    by their idempotency keys — the client-visible stream stays
    exactly-once — and the resumed report is bit-identical to one from
    an uninterrupted run.
    """

    journal_path: Path
    store_path: Optional[Path]
    policy: FleetPolicy
    pool_spec: List[PoolEntry]
    jobs: List[Job]
    kills: List[ReplicaKill]
    projection: JournalProjection
    repair: RepairReport
    #: Set by :meth:`resume` before the replay starts, so a second
    #: crash (FleetKilledError) still leaves the runtime inspectable.
    runtime: Optional[FleetRuntime] = None

    def build_pool(self) -> List[Replica]:
        """Fresh replicas from the journaled ``run-begin`` recipe."""
        return [
            make_replica(
                spec["replica_id"],
                spec["device"],
                buffer_vertices=spec["buffer_vertices"],
                num_pipelines=spec["num_pipelines"],
                timing=spec["timing"],
            )
            for spec in self.pool_spec
        ]

    def resume(
        self,
        halt_after_events: Optional[int] = None,
        fsync: bool = True,
    ) -> FleetReport:
        """Finish the interrupted run by deterministic replay.

        Appends a ``recover`` marker, then re-runs the journaled batch
        into the *same* journal (the sequence continues) with the store
        re-attached.  ``halt_after_events`` lets chaos kill the resumed
        run again; the next ``recover`` picks up from the same files.
        """
        # The pool and the store come first: a pool recipe or a store
        # it cannot use is refused before the journal gains a
        # ``recover`` record.
        pool = self.build_pool()
        store = (
            ResultStore(self.store_path, fsync=fsync)
            if self.store_path is not None
            else None
        )
        journal = JobJournal(self.journal_path, fsync=fsync)
        journal.append("recover", {
            "restored_results": len(store) if store is not None else 0,
            "outstanding": self.projection.outstanding,
            "quarantined": self.repair.quarantined,
            "truncated_bytes": self.repair.truncated_bytes,
        })
        self.runtime = FleetRuntime(
            pool,
            policy=self.policy,
            journal=journal,
            store=store,
        )
        # No try/finally: a FleetKilledError must leave the handles as a
        # SIGKILL would — every append was already flushed+fsync'd, and
        # closing would be cleanup the crash never got to run.
        report = self.runtime.run(
            self.jobs, self.kills, halt_after_events=halt_after_events
        )
        journal.close()
        if store is not None:
            store.close()
        return report
