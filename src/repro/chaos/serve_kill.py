"""Serving kill-restart chaos: crash the wall-clock gateway, resume.

The serving-facade counterpart of :mod:`repro.chaos.kill_restart`.
Where that cell hard-kills the virtual-clock *runtime* and recovers
from its JSONL journal, this one crashes the whole asyncio **gateway**
(:class:`~repro.serving.gateway.ServingGateway`) mid-load and recovers
from its dual durability pair — the ``regraph-jobstore/v2`` job store
and the ``regraph-traffic/v1`` bundle, both :mod:`repro.durable` record
logs.  One cell:

1. runs the job stream through a plain in-memory
   :class:`~repro.serving.session.KernelSession` as the uninterrupted
   reference — its report digest is the ground truth;
2. serves the same stream through a real gateway (store + traffic
   bundle attached), submitting every job — so every job is
   *acknowledged* — and abandons the process SIGKILL-style once
   ``crash_after_results`` terminal results are durable: no drain, no
   flush;
3. optionally damages one durable file between death and rebirth — a
   :class:`~repro.faults.plan.StorageFault` (torn write / partial
   fsync / bit-flip) on the traffic bundle or the job store;
4. restarts with ``resume=True``: recovery merges the acceptance
   sequence from the store and the bundle (each file covers holes in
   the other) and replays it through a fresh kernel session, then
   drains gracefully;
5. checks the **oracles**: zero acknowledged jobs lost (every acked id
   has a durable terminal result), exactly-once results (recomputed
   duplicates suppressed, never re-emitted), zero replay divergences,
   and digest equality — the recovered session's report digest is
   bit-identical to the uninterrupted reference's.

The crash point is deterministic (the cell awaits the N-th acked job,
and one worker runs jobs in acceptance order), so a cell repeats byte
for byte.  Digest equality holds wherever a crash falls: the outcome
depends only on the acceptance sequence, durable before each ack.
Every append boundary is crashed by the slow suite of
``tests/test_chaos_serve_kill.py``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs
from repro.durable import apply_storage_fault
from repro.errors import UserInputError
from repro.faults.plan import StorageFault
from repro.serving.config import ServingConfig, TenantSpec
from repro.serving.gateway import ServingGateway
from repro.serving.session import KernelSession
from repro.serving.traffic import read_traffic
from repro.utils.wire import Wire, encode_record

#: Storage-fault targets a serve-kill cell understands.
SERVE_FAULT_TARGETS = ("traffic", "store")


@dataclass(frozen=True)
class ServeKillConfig(Wire):
    """Inputs of one serving kill-restart cell."""

    #: Job stream recipe (apps/graphs/fault plans; arrival times and
    #: replica kills are ignored — the gateway sets its own clock).
    soak: FleetSoakConfig = field(
        default_factory=lambda: FleetSoakConfig(jobs=8, seed=11)
    )
    #: Terminal results that must be durable before the crash.
    crash_after_results: int = 3
    #: Damage applied between death and rebirth (``None`` = clean crash).
    storage_fault: Optional[StorageFault] = None
    #: fsync per append (the WAL contract; tests trade it for speed).
    fsync: bool = True

    def __post_init__(self):
        if self.crash_after_results < 0:
            raise UserInputError(
                "crash_after_results must be >= 0, got "
                f"{self.crash_after_results}"
            )
        if self.crash_after_results >= self.soak.jobs:
            raise UserInputError(
                f"crash_after_results ({self.crash_after_results}) must "
                f"leave work unfinished (stream has {self.soak.jobs} jobs)"
            )
        if (
            self.storage_fault is not None
            and self.storage_fault.target not in SERVE_FAULT_TARGETS
        ):
            raise UserInputError(
                f"serve-kill fault target must be one of "
                f"{SERVE_FAULT_TARGETS}, got "
                f"{self.storage_fault.target!r}"
            )


@dataclass
class ServeKillResult:
    """Outcome of one serving kill-restart cell (oracles itemised)."""

    config: ServeKillConfig
    reference_digest: str = ""
    final_digest: str = ""
    #: Jobs acknowledged before the crash (all of them, by design).
    acked: int = 0
    #: Durable terminal results at the moment of death.
    results_at_crash: int = 0
    storage_fault_log: str = ""
    #: Oracle: acked job ids with no durable result after recovery.
    lost_acked: List[str] = field(default_factory=list)
    #: Oracle: recomputed results that disagreed with durable copies.
    replay_divergences: int = 0
    #: Replay duplicates the store suppressed (exactly-once, visibly).
    duplicates_suppressed: int = 0
    #: Accepts the store lost and the traffic bundle restored.
    accepts_merged_from_traffic: int = 0
    #: The resumed gateway drained cleanly (traffic-end recorded).
    drained: bool = False
    #: Corrupt traffic-bundle lines skipped during recovery/verification.
    corrupt_traffic_lines: int = 0

    @property
    def equivalent(self) -> bool:
        return (
            self.reference_digest != ""
            and self.reference_digest == self.final_digest
        )

    @property
    def passed(self) -> bool:
        return (
            self.equivalent
            and not self.lost_acked
            and self.replay_divergences == 0
            and self.drained
        )

    def to_dict(self) -> dict:
        return {
            **encode_record(self),
            "equivalent": self.equivalent,
            "passed": self.passed,
        }


def _payloads(config: ServeKillConfig) -> List[dict]:
    """The cell's job stream as wire payloads, acceptance order."""
    return [job.to_dict() for job in generate_jobs(config.soak)]


def _cell_wall() -> float:
    """The cell's wall clock: a constant, so record bytes reproduce.

    The durable records stamp ``wall``; a real clock's float changes
    their printed length, and with it the storage-fault byte counts.
    Nothing in the cell reads the wall: its one tenant is unmetered and
    the gateway has no rate limit, so admission ignores ``now``.
    """
    return 0.0


def _serving_config(config: ServeKillConfig, workdir: Path) -> ServingConfig:
    return ServingConfig(
        devices=tuple(config.soak.replicas),
        buffer_vertices=config.soak.buffer_vertices,
        num_pipelines=config.soak.num_pipelines,
        tenants=(TenantSpec(name="chaos", api_key="chaos-key"),),
        store_path=str(workdir / "jobs.jsonl"),
        traffic_path=str(workdir / "traffic.jsonl"),
        fsync=config.fsync,
    )


def run_serve_kill(
    config: ServeKillConfig, workdir: Union[str, Path]
) -> ServeKillResult:
    """Execute one serving kill-restart cell (see module docstring).

    ``workdir`` receives the store (``jobs.jsonl``) and the traffic
    bundle (``traffic.jsonl``) — on failure they *are* the evidence, so
    CI uploads them.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    serving = _serving_config(config, workdir)
    paths = {
        "store": Path(serving.store_path),
        "traffic": Path(serving.traffic_path),
    }
    for stale in paths.values():
        stale.unlink(missing_ok=True)

    payloads = _payloads(config)
    result = ServeKillResult(config=config)

    # 1. Uninterrupted reference: the pure kernel, no gateway at all.
    reference = KernelSession(serving.session_spec())
    reference.replay(payloads)
    result.reference_digest = reference.digest()

    # 2. Live gateway: ack everything, die once enough results landed.
    # Every record is flushed as it is appended, so the files hold
    # exactly what a SIGKILL would leave behind.
    async def live() -> None:
        gateway = ServingGateway(serving, wall=_cell_wall)
        try:
            for payload in payloads:
                await gateway.submit("chaos-key", payload)
            result.acked = gateway.store.job_count()
            if config.crash_after_results:
                last = payloads[config.crash_after_results - 1]["job_id"]
                async for _ in gateway.stream(last):
                    pass
        finally:
            result.results_at_crash = gateway.store.result_count()
            gateway.abandon()
            gateway.close()

    asyncio.run(live())

    # 3. Storage fault between death and rebirth.
    fault = config.storage_fault
    if fault is not None:
        result.storage_fault_log = (
            f"{fault.target}: "
            f"{apply_storage_fault(paths[fault.target], fault)}"
        )

    # 4. Rebirth: resume-by-replay, then a graceful drain.
    async def resumed() -> None:
        gateway = ServingGateway(serving, resume=True, wall=_cell_wall)
        try:
            result.replay_divergences = gateway.recovery_stats[
                "replay_divergences"
            ]
            result.duplicates_suppressed = gateway.recovery_stats[
                "duplicates_suppressed"
            ]
            result.accepts_merged_from_traffic = gateway.recovery_stats[
                "accepts_merged_from_traffic"
            ]
            # Checked against the *submitted* stream, not the store's
            # own rows: a job both files lost would otherwise vanish
            # without tripping the oracle.
            result.lost_acked = sorted(
                p["job_id"] for p in payloads
                if gateway.store.get_result(p["job_id"]) is None
            )
            if gateway.session.served_jobs:
                result.final_digest = gateway.session.digest()
            summary = await gateway.drain()
            result.drained = bool(summary["drained"])
        finally:
            gateway.close()

    asyncio.run(resumed())

    # 5. The bundle must still read end-to-end (damage skipped+counted).
    bundle = read_traffic(paths["traffic"])
    result.corrupt_traffic_lines = bundle.corrupt_lines
    return result
