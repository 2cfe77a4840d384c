"""Kill-restart chaos: hard-kill the fleet mid-soak, recover, compare.

This is the campaign mode that closes the durability loop
(``docs/DURABILITY.md``).  One cell:

1. runs the soak *uninterrupted and in-memory* as the reference — its
   :class:`~repro.fleet.report.FleetReport` digest is the ground truth;
2. re-runs it journaled + stored, hard-killing the runtime
   (:class:`~repro.errors.FleetKilledError`, the modelled SIGKILL) at
   seeded crash points derived from the reference run's event count;
3. optionally damages the journal/store files between death and rebirth
   the way real storage does (:class:`~repro.faults.plan.StorageFault`:
   torn write, partial fsync, bit-flip at rest);
4. recovers with :meth:`~repro.fleet.FleetRuntime.recover` — corrupt
   records are quarantined, torn tails truncated, never fatal — and
   resumes, possibly crashing again at the next point;
5. checks the **oracles**: zero lost jobs (every submitted job has a
   durable terminal result), no duplicate results (the store holds each
   idempotency key exactly once, on disk and in memory), zero replay
   divergences, and *recovery equivalence* — the final report digest is
   bit-identical to the uninterrupted reference, modulo the recovery
   side-channel counters.

Everything is a pure function of ``(KillRestartConfig)``: the soak seed
fixes the workload and kill schedule, and the same seed (offset) fixes
the crash points, so a failing cell reproduces from its serialized
config alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.chaos.fleet_soak import (
    FleetSoakConfig,
    build_pool,
    generate_jobs,
    generate_kills,
)
from repro.durable import apply_storage_fault
from repro.errors import FleetKilledError, UserInputError
from repro.faults.plan import StorageFault
from repro.fleet.journal import JobJournal, read_journal
from repro.fleet.runtime import FleetPolicy, FleetRuntime
from repro.fleet.store import ResultStore
from repro.utils.wire import Wire, encode_record

#: Seed offset for the crash-point stream (kills use +0x5EED, jobs +0).
_CRASH_SEED_OFFSET = 0xC4A5

#: Storage-fault targets a kill-restart cell understands: the fleet's
#: write-ahead journal and its result store.
KILL_RESTART_FAULT_TARGETS = ("journal", "store")


@dataclass(frozen=True)
class KillRestartConfig(Wire):
    """Inputs that fully determine one kill-restart cell."""

    soak: FleetSoakConfig = field(default_factory=FleetSoakConfig)
    #: Hard kills of the *runtime process* (distinct from the soak's
    #: replica kills, which the runtime survives by design).
    crashes: int = 2
    #: Damage applied between a crash and its recovery; fault ``i`` is
    #: applied after crash ``i`` (extras are ignored).
    storage_faults: Tuple[StorageFault, ...] = ()
    #: fsync per journal/store append (the WAL contract; tests may
    #: trade it away for speed — determinism is unaffected).
    fsync: bool = True

    def __post_init__(self):
        if self.crashes < 1:
            raise UserInputError(
                f"kill-restart needs >= 1 crash, got {self.crashes}"
            )
        for fault in self.storage_faults:
            if fault.target not in KILL_RESTART_FAULT_TARGETS:
                raise UserInputError(
                    f"kill-restart fault target must be one of "
                    f"{KILL_RESTART_FAULT_TARGETS}, got {fault.target!r}"
                )


@dataclass
class KillRestartResult:
    """Outcome of one kill-restart cell (all oracles individually)."""

    config: KillRestartConfig
    reference_digest: str = ""
    final_digest: str = ""
    #: Absolute event counts at which the runtime was hard-killed.
    crash_points: List[int] = field(default_factory=list)
    #: What each applied storage fault did (human-readable).
    storage_fault_log: List[str] = field(default_factory=list)
    restarts: int = 0
    #: Oracle: every submitted job has a durable terminal result.
    lost_jobs: List[str] = field(default_factory=list)
    #: Oracle: on-disk duplicate records per idempotency key (must be 0).
    duplicate_results: int = 0
    #: Oracle: recomputed results that disagreed with durable ones.
    replay_divergences: int = 0
    #: Corruption containment: records quarantined / tail bytes dropped.
    quarantined_records: int = 0
    truncated_bytes: int = 0
    #: The quarantine bundle, relative to the cell's workdir (so the
    #: report does not depend on where the cell ran).
    quarantine_path: str = ""
    #: Results that were already durable and got suppressed on replay —
    #: the exactly-once mechanism visibly doing its job.
    duplicates_suppressed: int = 0
    results_restored: int = 0
    #: The final journal scan found an intact ``run-end`` record.
    journal_complete: bool = False

    @property
    def equivalent(self) -> bool:
        """The recovery-equivalence oracle (digest bit-equality)."""
        return (
            self.reference_digest != ""
            and self.reference_digest == self.final_digest
        )

    @property
    def passed(self) -> bool:
        return (
            self.equivalent
            and not self.lost_jobs
            and self.duplicate_results == 0
            and self.replay_divergences == 0
            and self.journal_complete
        )

    def to_dict(self) -> dict:
        return {
            **encode_record(self),
            "equivalent": self.equivalent,
            "passed": self.passed,
        }


def plan_crash_points(
    total_events: int, crashes: int, seed: int
) -> List[int]:
    """Seeded, strictly increasing crash points inside the run.

    Points are *absolute* event counts (a resumed run replays from
    event 0, so point ``p2 > p1`` crashes the second incarnation later
    in the same deterministic event sequence).  At least one event is
    always left after the last crash so the final resume has work to do.
    """
    if total_events < 2:
        raise UserInputError(
            f"run too short to crash: {total_events} event(s)"
        )
    crashes = min(crashes, total_events - 1)
    rng = np.random.default_rng(seed + _CRASH_SEED_OFFSET)
    points = rng.choice(
        np.arange(1, total_events), size=crashes, replace=False
    )
    return sorted(int(p) for p in points)


def run_kill_restart(
    config: KillRestartConfig,
    workdir: Union[str, Path],
    policy: Optional[FleetPolicy] = None,
) -> KillRestartResult:
    """Execute one kill-restart cell end to end (see module docstring).

    ``workdir`` receives the journal (``fleet.journal``), the result
    store (``results.jsonl``) and — when corruption was injected or
    found — the quarantine bundle under ``quarantine/``.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_path = workdir / "fleet.journal"
    store_path = workdir / "results.jsonl"
    quarantine_dir = workdir / "quarantine"
    for stale in (journal_path, store_path):
        if stale.exists():
            stale.unlink()

    policy = policy or FleetPolicy()
    jobs = generate_jobs(config.soak)
    kills = generate_kills(config.soak)
    result = KillRestartResult(config=config)

    # 1. The uninterrupted in-memory reference: ground-truth digest and
    # the event count the crash points are planned against.
    reference = FleetRuntime(build_pool(config.soak), policy)
    ref_report = reference.run(jobs, kills)
    result.reference_digest = ref_report.digest()
    result.crash_points = plan_crash_points(
        reference.events_processed, config.crashes, config.soak.seed
    )

    # 2. First incarnation: journaled, stored, killed at the first point.
    runtime = FleetRuntime(
        build_pool(config.soak),
        policy,
        journal=JobJournal(journal_path, fsync=config.fsync),
        store=ResultStore(store_path, fsync=config.fsync),
    )
    final = runtime
    final_report = None
    halts = result.crash_points[1:] + [None]
    try:
        final_report = runtime.run(
            jobs, kills, halt_after_events=result.crash_points[0]
        )
    except FleetKilledError:
        pass

    # 3-4. Crash -> damage -> recover -> resume, until a resume survives.
    crash_index = 0
    while final_report is None:
        if crash_index < len(config.storage_faults):
            fault = config.storage_faults[crash_index]
            victim = journal_path if fault.target == "journal" else store_path
            result.storage_fault_log.append(
                f"{fault.target}: {apply_storage_fault(victim, fault)}"
            )
        recovered = FleetRuntime.recover(
            journal_path, store_path, quarantine_dir=quarantine_dir
        )
        result.quarantined_records += recovered.repair.quarantined
        result.truncated_bytes += recovered.repair.truncated_bytes
        if recovered.repair.quarantine_path:
            result.quarantine_path = os.path.relpath(
                recovered.repair.quarantine_path, workdir
            )
        result.restarts += 1
        halt = halts[crash_index]
        crash_index += 1
        try:
            final_report = recovered.resume(
                halt_after_events=halt, fsync=config.fsync
            )
        except FleetKilledError:
            continue
        final = recovered.runtime

    # 5. Oracles.
    result.final_digest = final_report.digest()
    result.duplicates_suppressed = final.recovery_stats[
        "duplicates_suppressed"
    ]
    result.results_restored = final.recovery_stats["results_restored"]
    result.replay_divergences = final.recovery_stats["replay_divergences"]
    with ResultStore(store_path, fsync=False) as durable:
        result.lost_jobs = sorted(
            j.job_id for j in jobs if j.job_id not in durable
        )
        result.duplicate_results = durable.results.duplicates_on_disk
    # The journal must end replayable: a final scan may still see
    # quarantined mid-file records (they are evidence, left in place)
    # but the completed run must have landed its run-end record.
    scan = read_journal(journal_path)
    result.journal_complete = any(
        r.type == "run-end" for r in scan.records
    )
    return result
