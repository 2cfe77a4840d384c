"""The wall-clock serving gateway: asyncio facade over the kernel.

:class:`ServingGateway` is the seam between two worlds.  On the
outside: wall-clock time, concurrent clients, API keys, quotas and
SIGTERM.  On the inside: the deterministic virtual-clock
:class:`~repro.serving.session.KernelSession`, which executes accepted
jobs strictly in acceptance order.  Everything nondeterministic stops
at this class — which is why every robustness property of the facade
is assertable in ordinary tier-1 tests through the gateway's async
methods directly (the "in-process transport"), no sockets required;
:mod:`repro.serving.http` is a thin byte-shoveling adapter on top.

The request path, in order, for one submission:

1. **drain gate** — a draining gateway turns new work away with a typed
   :class:`~repro.errors.ServingDrainingError` (503);
2. **authentication** — the API key must name a tenant
   (:class:`~repro.errors.TenantAuthError`, 401);
3. **idempotent resubmission** — a job id already acknowledged returns
   its original ack (or its durable result), never a second execution;
4. **admission** — per-tenant pending cap, per-tenant token bucket,
   then the gateway-wide bucket, all peek-then-take
   (:class:`~repro.errors.TenantQuotaExceededError` /
   :class:`~repro.errors.FleetOverloadError`, 429);
5. **durability before acknowledgement** — the accept is appended to
   the job store, then to the traffic bundle, before the caller sees
   the ack.  Both are :mod:`repro.durable` record logs, so an
   acknowledged job survives ``kill -9`` by construction.

A single worker task drains the accept queue through the kernel (in a
thread, so the event loop stays live for status/stream requests) and
persists each terminal result exactly-once.

**Recovery** (``resume=True``): the acceptance sequence the store's
open scan read is *merged with* the traffic bundle's (one reader loads
both) — each file covers holes in the other — missing accepts are
restored to the store under their original sequence numbers, and the
whole sequence is replayed through a fresh kernel session from t=0.
Durable results suppress the recomputed duplicates (first-write-wins)
and every recomputation is cross-checked against the durable copy
(``replay_divergences`` must stay 0), so the post-recovery report
digest is bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import AsyncIterator, Callable, Dict, List, Optional

from repro.errors import (
    FleetOverloadError,
    ServingDrainingError,
    TenantQuotaExceededError,
    UserInputError,
)
from repro.fleet.admission import AdmissionController
from repro.fleet.job import Job, JobResult
from repro.fleet.placement import PlacementEngine
from repro.serving.config import ServingConfig, TenantSpec
from repro.serving.jobstore import JobStore
from repro.serving.session import KernelSession
from repro.serving.traffic import TrafficRecorder, read_traffic


class _Pending:
    """One accepted-but-unfinished job inside the gateway."""

    __slots__ = ("job", "tenant", "seq", "done")

    def __init__(self, job: Job, tenant: str, seq: int):
        self.job = job
        self.tenant = tenant
        self.seq = seq
        self.done = asyncio.Event()


class ServingGateway:
    """Asyncio front door of one serving session."""

    def __init__(
        self,
        config: ServingConfig,
        resume: bool = False,
        wall: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.registry = config.registry()
        self.wall = wall
        self.spec = config.session_spec()
        self.draining = False
        #: Recovery accounting (mirrors FleetRuntime.recovery_stats).
        self.recovery_stats: Dict[str, int] = {
            "accepts_restored": 0,
            "accepts_merged_from_traffic": 0,
            "results_restored": 0,
            "duplicates_suppressed": 0,
            "replay_divergences": 0,
        }

        self.store = JobStore(
            config.store_path or None, self.spec, fsync=config.fsync
        )
        self.recovery_stats["results_restored"] = self.store.result_count()

        self.session = KernelSession(self.spec)
        scanned = self.store.take_scanned_accepts()
        if resume:
            self._recover(scanned)

        # The recorder opens *after* recovery read the old bundle, so
        # the resume marker lands behind the records it recovered from.
        self.recorder = (
            TrafficRecorder(
                config.traffic_path, self.spec, fsync=config.fsync
            )
            if config.traffic_path
            else None
        )

        self.admission = AdmissionController(
            max_queue_depth=config.max_pending,
            rate_limit_jobs_per_second=config.rate_jobs_per_second,
            rate_limit_burst=config.rate_burst,
        )
        for tenant in self.registry:
            self.admission.register_tenant(
                tenant.name, tenant.rate_jobs_per_second, tenant.rate_burst
            )

        self._pending: Dict[str, _Pending] = {}
        self._queue: "asyncio.Queue[Optional[_Pending]]" = asyncio.Queue()
        self._worker: Optional[asyncio.Task] = None
        self._worker_error: Optional[BaseException] = None

    # -- recovery ---------------------------------------------------------
    def _recover(self, scanned: List[tuple]) -> None:
        """Rebuild the kernel session by replaying the store's
        ``scanned`` accepts merged with the traffic bundle's."""
        merged: Dict[int, tuple] = {
            seq: (tenant, payload) for seq, tenant, payload in scanned
        }
        lost: List[int] = []
        # A bundle never recorded leaves the store as the only WAL.
        traffic = self.config.traffic_path
        if traffic and Path(traffic).exists():
            for seq, tenant, payload in read_traffic(traffic).accepts:
                if seq not in merged:
                    merged[seq] = (tenant, payload)
                    lost.append(seq)
        # Every accept decodes before anything is written or replayed,
        # so a malformed one refuses the resume and both files keep
        # their bytes.
        jobs = [
            Job.from_dict(merged[seq][1], f"accept {seq} job")
            for seq in sorted(merged)
        ]
        for seq in lost:
            # The store lost this accept (crash or storage fault); the
            # bundle copy restores it under its original sequence number.
            self.store.append_job(*merged[seq], seq=seq)
        self.recovery_stats["accepts_merged_from_traffic"] = len(lost)
        self.recovery_stats["accepts_restored"] = len(merged)
        for job in jobs:
            self.store.put_result(self.session.execute(job))
        # The store's index suppressed and cross-checked every result
        # that was already durable.
        results = self.store.results
        self.recovery_stats.update(
            duplicates_suppressed=results.duplicates_suppressed,
            replay_divergences=results.replay_divergences,
        )

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        """Start the kernel worker (idempotent)."""
        if self._worker is None or self._worker.done():
            self._worker = asyncio.create_task(
                self._work(), name="serving-kernel-worker"
            )

    async def _work(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            pending = await self._queue.get()
            if pending is None:
                return
            try:
                # The kernel runs in a thread so the loop keeps
                # answering status/stream requests mid-execution; one
                # worker means acceptance order is execution order.
                result: JobResult = await loop.run_in_executor(
                    None, self.session.execute, pending.job
                )
                wall = self.wall()
                self.store.put_result(result, wall)
                if self.recorder is not None:
                    self.recorder.record_result(result, wall)
            except BaseException as exc:  # surfaced by submit/drain
                self._worker_error = exc
                pending.done.set()
                raise
            self._pending.pop(pending.job.job_id, None)
            pending.done.set()

    def _check_worker(self) -> None:
        if self._worker_error is not None:
            raise self._worker_error

    # -- the request path -------------------------------------------------
    def _tenant_pending(self, tenant: str) -> int:
        return sum(1 for p in self._pending.values() if p.tenant == tenant)

    async def submit(self, api_key: Optional[str], payload: dict) -> dict:
        """Authenticate, admit and durably acknowledge one job.

        Returns the acknowledgement dict; raises typed errors the
        transport maps onto status codes (401 auth, 429 quota/overload,
        503 draining, 400 bad payload — a graph no replica's HBM can
        hold and a fault on a channel or pipeline the pool does not have
        included, judged before anything is built or stored).
        """
        self._check_worker()
        tenant = self.registry.authenticate(api_key)
        if self.draining:
            raise ServingDrainingError(
                "gateway is draining; new submissions are not accepted"
            )
        job = Job.from_dict(payload)
        job.fault_plan.check_topology(self.config.num_pipelines)
        if not any(
            PlacementEngine.holds(replica, job)
            for replica in self.session.runtime.replicas
        ):
            raise UserInputError(
                f"job {job.job_id}: graph {job.graph.name} with "
                f"{job.graph.edges} edges does not fit the HBM channels "
                "of any replica in the pool"
            )

        # Idempotent resubmission: an acknowledged id never runs twice.
        if self.store.has_job(job.job_id):
            ack = {
                "job_id": job.job_id,
                "status": "accepted",
                "seq": self.store.job_seq(job.job_id),
                "tenant": tenant.name,
                "duplicate": True,
            }
            result = self.store.get_result(job.job_id)
            if result is not None:
                ack["result"] = result.to_dict()
                ack["status"] = result.status
            return ack

        now = self.wall()
        try:
            if self._tenant_pending(tenant.name) >= tenant.max_pending:
                self.admission.stats.submitted += 1
                self.admission.stats.shed_tenant_quota += 1
                raise TenantQuotaExceededError(
                    f"job {job.job_id} shed: tenant {tenant.name!r} has "
                    f"{tenant.max_pending} job(s) pending (its cap)",
                    tenant=tenant.name,
                    reason="tenant-pending",
                )
            self.admission.admit(
                job, len(self._pending), now, tenant=tenant.name
            )
        except FleetOverloadError as exc:
            if self.recorder is not None:
                self.recorder.record_reject(
                    tenant.name, job.job_id,
                    exc.__class__.__name__, str(exc), now,
                )
            raise

        # Durability before acknowledgement: store first (the ack's
        # ground truth), then the traffic bundle (the second WAL).
        canonical = job.to_dict()
        seq = self.store.append_job(tenant.name, canonical, now)
        if self.recorder is not None:
            self.recorder.record_accept(seq, tenant.name, canonical, now)

        pending = _Pending(job, tenant.name, seq)
        self._pending[job.job_id] = pending
        await self.start()
        await self._queue.put(pending)
        return {
            "job_id": job.job_id,
            "status": "accepted",
            "seq": seq,
            "tenant": tenant.name,
            "duplicate": False,
        }

    def status(self, job_id: str) -> dict:
        """Current view of one acknowledged job."""
        self._check_worker()
        result = self.store.get_result(job_id)
        if result is not None:
            return {
                "job_id": job_id,
                "status": result.status,
                "result": result.to_dict(),
            }
        if job_id in self._pending or self.store.has_job(job_id):
            return {"job_id": job_id, "status": "pending"}
        raise UserInputError(f"unknown job {job_id!r}")

    async def stream(self, job_id: str) -> AsyncIterator[dict]:
        """Yield status updates until the job is terminal."""
        first = self.status(job_id)
        yield first
        if first["status"] != "pending":
            return
        pending = self._pending.get(job_id)
        if pending is not None:
            await pending.done.wait()
        self._check_worker()
        yield self.status(job_id)

    # -- observability ----------------------------------------------------
    def health(self) -> dict:
        health = {
            "status": "draining" if self.draining else "serving",
            "pending": len(self._pending),
            "served": len(self.session.served_jobs),
            "store": self.store.stats(),
            "admission": self.admission.stats.to_dict(),
            "recovery": dict(self.recovery_stats),
            "tenants": [t.name for t in self.registry],
        }
        scaler = getattr(self.session.runtime, "autoscaler", None)
        if scaler is not None:
            stats = scaler.stats()
            health["autoscaler"] = {
                k: stats[k]
                for k in ("spawned", "retired", "p99_latency_seconds",
                          "decisions")
            }
        return health

    def report(self) -> dict:
        """The session's aggregate FleetReport + its digest."""
        if not self.session.served_jobs:
            return {"digest": "", "jobs": 0}
        report = self.session.report()
        return {
            "digest": report.digest(),
            "jobs": len(report.jobs),
            "passed": report.passed,
            "makespan_seconds": report.makespan_seconds,
        }

    def outstanding(self) -> List[str]:
        return self.store.outstanding()

    # -- drain and shutdown -----------------------------------------------
    async def drain(self, budget_seconds: Optional[float] = None) -> dict:
        """Stop accepting, finish (or journal) in-flight work, flush.

        Within the budget every pending job reaches a durable terminal
        result and the gateway exits clean (``drained=True``).  Past
        the budget nothing is lost — every pending job is already
        acknowledged in the store, so a later ``--resume`` serves it —
        but the caller should exit with the *resumable* code 3.
        """
        self.draining = True
        budget = (
            budget_seconds
            if budget_seconds is not None
            else self.config.drain_budget_seconds
        )
        drained = True
        if self._worker is not None and not self._worker.done():
            await self._queue.put(None)  # after every queued job
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._worker), timeout=budget
                )
            except asyncio.TimeoutError:
                drained = False
            except BaseException:
                drained = False
        self._check_worker()
        outstanding = self.store.outstanding()
        summary = {
            "drained": drained and not outstanding,
            "outstanding": outstanding,
            "served": len(self.session.served_jobs),
        }
        if self.session.served_jobs:
            summary["digest"] = self.session.digest()
        else:
            summary["digest"] = ""
        self.flush(summary["digest"])
        return summary

    def flush(self, digest: str = "") -> None:
        """Close out the traffic bundle."""
        if self.recorder is not None:
            self.recorder.record_end(digest, {
                "accepts": self.store.job_count(),
                "results": self.store.result_count(),
                "outstanding": len(self.store.outstanding()),
            })
            self.recorder.close()
            self.recorder = None

    def close(self) -> None:
        if self._worker is not None:
            self._worker.cancel()
            self._worker = None
        if self.recorder is not None:
            self.recorder.close()
            self.recorder = None
        self.store.close()

    def abandon(self) -> None:
        """Die like a SIGKILL: no drain, no flush.

        Chaos-cell hook — whatever the store and bundle already made
        durable is exactly what recovery gets to see.
        """
        if self._worker is not None:
            self._worker.cancel()
            self._worker = None
        self._pending.clear()


def default_gateway(**overrides) -> ServingGateway:
    """A gateway over the default config (tests and the CLI smoke)."""
    return ServingGateway(ServingConfig(**overrides))
