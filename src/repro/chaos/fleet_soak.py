"""Fleet soak mode: chaos campaigns against the serving runtime.

Where a plain chaos campaign executes isolated cells, the fleet soak
pushes a seeded *job stream* through a replica pool while killing
replicas mid-campaign.  One soak seed determines everything — the job
mix (apps, graphs, fault plans, priorities, deadlines, submit times)
and, when ``random_kills`` is used, which replicas die when — so a soak
outcome is a pure function of its :class:`FleetSoakConfig` and the
report digest is bit-reproducible.

The null hypothesis under test: *every admitted job reaches a terminal,
typed outcome on a surviving replica* — zero jobs lost, every completion
conformance-clean — no matter which cards die under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TypedDict

import numpy as np

from repro.chaos.generate import (
    CAMPAIGN_APPS,
    INTENSITIES,
    _fault_plan,
    _graph_spec,
)
from repro.errors import UserInputError
from repro.faults.plan import FaultPlan
from repro.fleet.autoscale import Autoscaler, AutoscaleStats
from repro.fleet.job import Job
from repro.fleet.replica import Replica, make_replica
from repro.fleet.report import FleetReport
from repro.fleet.runtime import FleetPolicy, FleetRuntime, ReplicaKill
from repro.utils.wire import Wire, decode


@dataclass(frozen=True)
class FleetSoakConfig(Wire):
    """Inputs that fully determine one fleet soak."""

    seed: int = 0
    jobs: int = 30
    #: Device per replica; ``r{i}`` serves ``replicas[i]``.
    replicas: Tuple[str, ...] = ("U280", "U280", "U50")
    intensity: str = "moderate"
    #: Fraction of jobs carrying an injected fault plan.
    fault_fraction: float = 0.5
    #: Fraction of jobs with a (virtual) deadline — hedging candidates.
    deadline_fraction: float = 0.33
    #: Mean virtual gap between submissions.
    submit_spacing_seconds: float = 0.0005
    #: Explicit kill schedule (wins over ``random_kills``).
    kills: Tuple[ReplicaKill, ...] = ()
    #: Seeded kills when no explicit schedule is given (capped so at
    #: least one replica survives).
    random_kills: int = 0
    buffer_vertices: int = 256
    num_pipelines: int = 4
    #: Per-job iteration cap.  Must cover convergence: the conformance
    #: oracles compare BFS/SSSP/closeness/WCC against fully-converged
    #: references, so a cap below the graph diameter reads as a wrong
    #: answer (30 matches the chaos campaign default).
    max_iterations: int = 30

    def __post_init__(self):
        if self.jobs < 1:
            raise UserInputError(f"soak needs >= 1 job, got {self.jobs}")
        if not self.replicas:
            raise UserInputError("soak needs at least one replica")
        if self.intensity not in INTENSITIES:
            raise UserInputError(
                f"unknown intensity {self.intensity!r}; expected one of "
                f"{sorted(INTENSITIES)}"
            )
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise UserInputError(
                f"fault_fraction must be in [0, 1], got {self.fault_fraction}"
            )
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise UserInputError(
                "deadline_fraction must be in [0, 1], got "
                f"{self.deadline_fraction}"
            )
        if self.random_kills < 0:
            raise UserInputError(
                f"random_kills must be >= 0, got {self.random_kills}"
            )
        if self.submit_spacing_seconds < 0:
            raise UserInputError(
                "submit_spacing_seconds must be >= 0, got "
                f"{self.submit_spacing_seconds}"
            )


def generate_jobs(config: FleetSoakConfig) -> List[Job]:
    """The soak's job stream (deterministic in the config).

    Submissions are staggered by seeded exponential gaps; roughly a
    third of the jobs (``deadline_fraction``) carry a deadline generous
    enough to be *meetable* on a healthy pool but tight enough that a
    straggler on a degraded card triggers hedging.
    """
    rng = np.random.default_rng(config.seed)
    jobs: List[Job] = []
    submit = 0.0
    for i in range(config.jobs):
        app = CAMPAIGN_APPS[int(rng.integers(len(CAMPAIGN_APPS)))]
        graph = _graph_spec(rng, app)
        if rng.uniform() < config.fault_fraction:
            plan = _fault_plan(rng, config.intensity, config.num_pipelines)
        else:
            plan = FaultPlan()
        deadline: Optional[float] = None
        if rng.uniform() < config.deadline_fraction:
            # Calibrated to the virtual scale of these graphs: a few ms
            # of modelled execution per job.
            deadline = float(rng.uniform(0.002, 0.02))
        jobs.append(Job(
            job_id=f"job{i:04d}",
            app=app,
            graph=graph,
            root=0,
            max_iterations=config.max_iterations,
            priority=int(rng.integers(0, 3)),
            deadline_seconds=deadline,
            submit_time=submit,
            fault_plan=plan,
        ))
        submit += float(rng.exponential(config.submit_spacing_seconds))
    return jobs


def build_pool(config: FleetSoakConfig) -> List[Replica]:
    """The replica pool (``r0``, ``r1``, ... with the configured devices)."""
    return [
        make_replica(
            f"r{i}",
            device,
            buffer_vertices=config.buffer_vertices,
            num_pipelines=config.num_pipelines,
        )
        for i, device in enumerate(config.replicas)
    ]


def generate_kills(config: FleetSoakConfig) -> List[ReplicaKill]:
    """The kill schedule: explicit kills, else seeded random ones.

    Random kills pick distinct replicas (at least one always survives)
    and land inside the submission window, i.e. genuinely mid-campaign.
    """
    if config.kills:
        return list(config.kills)
    if config.random_kills == 0:
        return []
    # A separate, offset stream so adding kills never reshuffles jobs.
    rng = np.random.default_rng(config.seed + 0x5EED)
    count = min(config.random_kills, len(config.replicas) - 1)
    victims = rng.choice(len(config.replicas), size=count, replace=False)
    horizon = max(config.jobs * config.submit_spacing_seconds, 1e-6)
    kills = [
        ReplicaKill(
            replica_id=f"r{int(v)}",
            at_seconds=float(rng.uniform(0.2, 0.8) * horizon),
        )
        for v in sorted(int(v) for v in victims)
    ]
    return sorted(kills, key=lambda k: (k.at_seconds, k.replica_id))


class SoakPerf(TypedDict, total=False):
    """:attr:`FleetSoakResult.perf`.  Reports written while fleet
    prewarm existed also carry ``workers`` and ``prewarmed_specs``."""

    placement: Dict[str, int]
    workers: int
    prewarmed_specs: int


@dataclass
class FleetSoakResult(Wire):
    """Config + report of one soak (what ``repro fleet run`` serialises)."""

    config: FleetSoakConfig
    report: FleetReport
    kills: List[ReplicaKill] = field(default_factory=list)
    #: Execution stats (placement probe counters).  Deliberately kept
    #: *outside* :class:`FleetReport`: the report digest certifies the
    #: served outcome, while these counters describe how we got there.
    perf: SoakPerf = field(default_factory=dict)
    #: Durability accounting (results restored from the store, replay
    #: duplicates suppressed, divergences) — same side-channel contract
    #: as ``perf``: a journaled/recovered soak's report digest must stay
    #: bit-identical to an in-memory one, so these never enter the
    #: report.
    recovery: Dict[str, int] = field(default_factory=dict)
    #: Autoscaler decision trace + counters — the third side-channel:
    #: scaling changes *when* jobs run, never what they compute, so the
    #: per-job result digests stay pure while this records the pool's
    #: shape over time.
    autoscale: Optional[AutoscaleStats] = None

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["soak_config"] = data.pop("config")
        for side in ("perf", "recovery", "autoscale"):
            if not data[side]:
                del data[side]
        return data

    @classmethod
    def from_dict(
        cls, data, what: str = "FleetSoakResult"
    ) -> "FleetSoakResult":
        # ``config`` is written under the key ``soak_config``.
        fields = decode(dict, data, what)
        if "soak_config" in fields:
            fields["config"] = fields.pop("soak_config")
        return super().from_dict(fields, what)


def run_fleet_soak(
    config: FleetSoakConfig,
    policy: Optional[FleetPolicy] = None,
    journal_path=None,
    store_path=None,
    halt_after_events: Optional[int] = None,
    journal_fsync: bool = True,
    autoscale=None,
) -> FleetSoakResult:
    """Generate and serve the soak's job stream under its kill schedule.

    ``journal_path``/``store_path`` attach the durability pair (see
    ``docs/DURABILITY.md``); the digest is again unaffected.
    ``halt_after_events`` hard-kills the run mid-soak for chaos —
    :class:`~repro.errors.FleetKilledError` propagates to the caller,
    which recovers via :meth:`~repro.fleet.FleetRuntime.recover`.

    ``autoscale`` attaches an :class:`~repro.fleet.autoscale.Autoscaler`
    (or, given an :class:`~repro.fleet.autoscale.AutoscalePolicy`,
    builds one).  Per-job result digests are
    unaffected — scaling changes when jobs run, not what they compute.
    """
    from repro.fleet.journal import JobJournal
    from repro.fleet.store import ResultStore

    pool = build_pool(config)
    jobs = generate_jobs(config)
    kills = generate_kills(config)
    journal = (
        JobJournal(journal_path, fsync=journal_fsync)
        if journal_path is not None
        else None
    )
    store = (
        ResultStore(store_path, fsync=journal_fsync)
        if store_path is not None
        else None
    )
    scaler = autoscale
    if scaler is not None and not hasattr(scaler, "observe"):
        scaler = Autoscaler(scaler)
    runtime = FleetRuntime(
        pool, policy, journal=journal, store=store, autoscaler=scaler
    )
    report = runtime.run(
        jobs, kills=kills, halt_after_events=halt_after_events
    )
    if journal is not None:
        journal.close()
    if store is not None:
        store.close()
    result = FleetSoakResult(
        config=config, report=report, kills=kills,
        perf={"placement": dict(runtime.placement.probe_stats)},
    )
    if journal is not None or store is not None:
        result.recovery = dict(runtime.recovery_stats)
    if scaler is not None:
        result.autoscale = scaler.stats()
    return result
