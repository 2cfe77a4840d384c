"""Resilient execution: watchdog, retry, checkpoint, degrade.

:meth:`ResilientExecutor.run` is the one loop that runs iterations: every
run, fault-free or not, iterates there, one
:class:`~repro.core.system.SystemSimulator` timing and functional pass per
attempt, and every iteration is wrapped in a fault-handling loop:

* **Watchdog** — each iteration gets a cycle budget derived from the
  Eq. 1-4 model's predicted makespan times a slack factor, never below
  the Apply/Writer stream; an iteration that exceeds it (latency spikes)
  or never finishes (stalls, dead channels) is reclaimed after charging
  the budget.
* **Bounded retry with backoff** — transient faults re-run the iteration
  from its checkpoint; each attempt charges the wasted cycles plus an
  exponentially growing backoff, which advances simulated time and lets
  bounded fault windows expire.
* **Checkpointing** — per-iteration vertex state is snapshotted so a
  failed iteration resumes instead of restarting the whole run, and so a
  degraded system picks up exactly where the old one stopped.
* **Graceful degradation** — a permanent fault (dead channel, or a pinned
  fault that exhausts its retries) retires the victim pipeline, re-plans
  the remaining partitions onto the survivors (``M + N`` shrinks) via the
  model-guided scheduler, and validates that the new plan covers every
  edge of the graph.
* **Per-channel circuit breakers** — every fault attributable to a
  pseudo-channel charges that channel's :class:`CircuitBreakerBank`
  entry; a channel whose failure count reaches the policy threshold has
  its breaker *opened* and its pipeline is permanently degraded instead
  of being retried forever.  A bank can be shared across runs (the host
  runtime and the chaos campaign engine do this), in which case channels
  opened by an earlier run are retired before the next run's first
  iteration.

Everything the run survived is accounted in a :class:`RunHealthReport`
attached to the returned :class:`~repro.core.system.RunReport`.  Under an
empty :class:`~repro.faults.plan.FaultPlan` nothing fires: every
iteration reuses the simulator's cached fault-free timing, no cycle is
charged beyond the iterations themselves, and the health report is clean
(no faults, retries, re-plans or watchdog trips; every breaker closed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TypedDict

from repro.errors import (
    ChannelFaultError,
    FaultInjectedError,
    ResilienceExhaustedError,
    UserInputError,
    WatchdogTimeoutError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.utils.wire import Wire, encode_record


@dataclass(frozen=True)
class ResiliencePolicy(Wire):
    """Tunables of the resilient execution layer.

    Every field is validated at construction: a policy that could loop
    forever (negative retries), never advance simulated time (zero or
    negative backoff) or never fire the watchdog (non-finite budget
    factors) raises :class:`~repro.errors.UserInputError` immediately
    instead of silently mis-executing a run.
    """

    #: Retries per iteration before escalating to degradation / giving up.
    max_retries: int = 3
    #: Cycles charged for the first backoff; grows by ``backoff_factor``.
    backoff_base_cycles: float = 10_000.0
    backoff_factor: float = 2.0
    #: Watchdog budget = slack * model-predicted pipeline makespan, never
    #: below the Apply/Writer stream (see :meth:`watchdog_budget`).
    watchdog_slack: float = 8.0
    #: Additive floor so degenerate plans still get a usable budget.
    watchdog_floor_cycles: float = 10_000.0
    #: Snapshot vertex state every this many iterations; only 1 is
    #: valid (stored session specs and chaos bundles carry the field).
    checkpoint_interval: int = 1
    #: Faults attributed to one channel before its breaker opens and the
    #: owning pipeline is degraded instead of retried again.
    breaker_threshold: int = 5

    def __post_init__(self):
        if self.max_retries < 0:
            raise UserInputError(
                f"max_retries must be >= 0, got {self.max_retries} "
                "(negative retries would loop forever)"
            )
        if (
            not math.isfinite(self.backoff_base_cycles)
            or self.backoff_base_cycles <= 0
        ):
            raise UserInputError(
                "backoff_base_cycles must be a positive finite cycle "
                f"count, got {self.backoff_base_cycles} (zero/negative "
                "backoff never advances simulated time, so bounded fault "
                "windows never expire)"
            )
        if not math.isfinite(self.backoff_factor) or self.backoff_factor < 1.0:
            raise UserInputError(
                f"backoff_factor must be finite and >= 1, got "
                f"{self.backoff_factor} (a shrinking backoff never "
                "advances simulated time past a fault window)"
            )
        if not math.isfinite(self.watchdog_slack) or self.watchdog_slack <= 0:
            raise UserInputError(
                f"watchdog_slack must be a positive finite factor, got "
                f"{self.watchdog_slack} (a non-finite slack means the "
                "watchdog never fires)"
            )
        if (
            not math.isfinite(self.watchdog_floor_cycles)
            or self.watchdog_floor_cycles < 0
        ):
            raise UserInputError(
                "watchdog_floor_cycles must be a non-negative finite "
                f"cycle count, got {self.watchdog_floor_cycles}"
            )
        if self.checkpoint_interval != 1:
            # A restore rolls the vertex state back to the snapshot while
            # the iteration count and cycle totals carry on, so only a
            # snapshot entering every iteration restores the right state.
            raise UserInputError(
                f"checkpoint_interval must be 1, got "
                f"{self.checkpoint_interval}"
            )
        if self.breaker_threshold < 1:
            raise UserInputError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}"
            )

    def backoff_cycles(self, attempt: int) -> float:
        """Exponential backoff charged before retry ``attempt`` (1-based)."""
        return self.backoff_base_cycles * self.backoff_factor ** (attempt - 1)

    def watchdog_budget(
        self, estimated_makespan: float, stream_cycles: float
    ) -> float:
        """Per-iteration cycle budget from the Eq. 1-4 estimate.

        Eq. 1-4 estimate the pipelines' busy time only, while a clean
        iteration costs ``max(cluster, apply) + writer``
        (:class:`~repro.core.system.IterationReport`), and the Apply and
        Writer stream grows with V alone.  So the budget never falls
        below ``stream_cycles``, that stream's cycles; where the slacked
        makespan already covers it the budget is the slacked makespan.
        """
        return (
            max(
                self.watchdog_slack * max(estimated_makespan, 0.0),
                stream_cycles,
            )
            + self.watchdog_floor_cycles
        )


# ----------------------------------------------------------------------
# Per-channel circuit breakers
# ----------------------------------------------------------------------
@dataclass
class ChannelBreakerState:
    """Failure history of one pseudo-channel.

    ``state`` is ``"closed"`` (healthy) or ``"open"`` (the channel
    faulted past the threshold, or hosted a permanent fault, and its
    pipeline must not be retried).  ``retired`` records that the owning
    pipeline has already been degraded *in the current run* — it resets
    at every run start so a shared bank re-applies its open breakers to
    each new run's full topology.
    """

    channel: int
    failures: int = 0
    state: str = "closed"
    last_category: str = ""
    opened_at_cycle: Optional[float] = None
    retired: bool = False

    @property
    def is_open(self) -> bool:
        """True once the breaker has opened (permanently, per bank)."""
        return self.state == "open"

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of this breaker."""
        return {
            "state": self.state,
            "failures": self.failures,
            "last_category": self.last_category,
            "opened_at_cycle": self.opened_at_cycle,
        }


class CircuitBreakerBank:
    """Per-channel circuit breakers shared by one run or one campaign.

    Channel ids use the host-runtime layout of the topology *at fault
    time* (pipeline ``g`` owns channels ``2g``/``2g+1``); after a
    degradation re-plan the surviving pipelines renumber, so breaker
    entries name capacity lost rather than physical silicon — the same
    modelling convention the injector's retired-channel set uses.
    """

    def __init__(self, threshold: int = 5):
        if threshold < 1:
            raise UserInputError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self._states: Dict[int, ChannelBreakerState] = {}
        self.trips = 0

    def ensure(self, channels: Iterable[int]) -> None:
        """Register (closed) breakers for every channel of a topology."""
        for channel in channels:
            self._states.setdefault(
                channel, ChannelBreakerState(channel=channel)
            )

    def state(self, channel: int) -> ChannelBreakerState:
        """The breaker of ``channel`` (registered on first touch)."""
        return self._states.setdefault(
            channel, ChannelBreakerState(channel=channel)
        )

    def record_failure(
        self, channel: int, category: str, cycle: float
    ) -> bool:
        """Charge one fault to ``channel``; True when the breaker opens
        *on this call* (closed -> open transition)."""
        st = self.state(channel)
        st.failures += 1
        st.last_category = category
        if st.is_open:
            return False
        if st.failures >= self.threshold:
            st.state = "open"
            st.opened_at_cycle = cycle
            self.trips += 1
            return True
        return False

    def force_open(self, channel: int, category: str, cycle: float) -> bool:
        """Open a breaker immediately (permanent faults skip the count)."""
        st = self.state(channel)
        st.failures += 1
        st.last_category = category
        if st.is_open:
            return False
        st.state = "open"
        st.opened_at_cycle = cycle
        self.trips += 1
        return True

    def is_open(self, channel: int) -> bool:
        """Whether ``channel``'s breaker has opened."""
        st = self._states.get(channel)
        return st is not None and st.is_open

    def open_channels(self) -> List[int]:
        """Every channel whose breaker has opened (placement signal)."""
        return sorted(
            ch for ch, st in self._states.items() if st.is_open
        )

    def open_unretired_channels(self) -> List[int]:
        """Open breakers whose pipeline has not been retired this run."""
        return sorted(
            ch for ch, st in self._states.items()
            if st.is_open and not st.retired
        )

    def mark_retired(self, channels: Iterable[int]) -> None:
        """Record that these channels' pipeline was degraded this run."""
        for channel in channels:
            self.state(channel).retired = True

    def reset_retired(self) -> None:
        """Start-of-run reset so open breakers re-apply to the fresh
        topology (shared banks only; per-run banks start empty)."""
        for st in self._states.values():
            st.retired = False

    def snapshot(self) -> Dict[str, dict]:
        """Per-channel state for :class:`RunHealthReport` serialisation."""
        return {
            str(ch): self._states[ch].to_dict()
            for ch in sorted(self._states)
        }


# ----------------------------------------------------------------------
# Health accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRecord:
    """One observed fault occurrence."""

    iteration: int
    category: str
    detail: str
    cycle: float


class FaultDict(TypedDict):
    """:class:`FaultRecord` on the wire."""

    iteration: int
    category: str
    detail: str
    cycle: float


class RunHealthDict(TypedDict, total=False):
    """:meth:`RunHealthReport.to_dict` on the wire: every key on a
    run's report, none on a crashed chaos cell (it has no run)."""

    faults: List[FaultDict]
    retries: int
    replans: int
    checkpoint_restores: int
    watchdog_trips: int
    backoff_cycles: float
    wasted_cycles: float
    useful_cycles: float
    overhead_cycles: float
    degraded_pipelines: List[str]
    initial_label: str
    final_label: str
    breaker_trips: int
    channel_breakers: Dict[str, dict]


@dataclass
class RunHealthReport:
    """Everything the resilient layer absorbed during one run."""

    faults: List[FaultRecord] = field(default_factory=list)
    retries: int = 0
    replans: int = 0
    checkpoint_restores: int = 0
    watchdog_trips: int = 0
    backoff_cycles: float = 0.0
    wasted_cycles: float = 0.0
    useful_cycles: float = 0.0
    degraded_pipelines: List[str] = field(default_factory=list)
    initial_label: str = ""
    final_label: str = ""
    #: Breakers that transitioned closed -> open during this run.
    breaker_trips: int = 0
    #: Per-channel circuit-breaker snapshot (every channel of the run's
    #: initial topology appears, healthy ones as ``closed``/0 failures).
    channel_breakers: Dict[str, dict] = field(default_factory=dict)

    @property
    def fault_count(self) -> int:
        """Total fault occurrences observed."""
        return len(self.faults)

    @property
    def open_breaker_count(self) -> int:
        """Channels whose breaker ended the run open (placement signal)."""
        return sum(
            1 for state in self.channel_breakers.values()
            if state.get("state") == "open"
        )

    @property
    def overhead_cycles(self) -> float:
        """Cycles spent on anything but successful iterations."""
        return self.wasted_cycles + self.backoff_cycles

    @property
    def overhead_fraction(self) -> float:
        """Overhead relative to the useful work (0.0 on a clean run)."""
        if self.useful_cycles <= 0:
            return 0.0
        return self.overhead_cycles / self.useful_cycles

    def record(self, iteration: int, category: str, detail: str, cycle: float):
        """Append one fault occurrence."""
        self.faults.append(FaultRecord(iteration, category, detail, cycle))

    def to_dict(self) -> RunHealthDict:
        """JSON-serialisable summary (used by the CLI and benchmarks),
        in :class:`RunHealthDict`'s key order."""
        data = {**encode_record(self), "overhead_cycles": self.overhead_cycles}
        return {key: data[key] for key in RunHealthDict.__annotations__}


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class ResilientExecutor:
    """Runs one app under a fault plan with the resilience policy."""

    def __init__(
        self,
        pre,
        platform,
        channel,
        fault_plan: Optional[FaultPlan] = None,
        policy: Optional[ResiliencePolicy] = None,
        breakers: Optional[CircuitBreakerBank] = None,
    ):
        self.pre = pre
        self.platform = platform
        self.channel = channel
        self.fault_plan = fault_plan or FaultPlan()
        self.policy = policy or ResiliencePolicy()
        #: Shared across runs when provided (host runtime / campaigns);
        #: a fresh per-run bank otherwise.
        self.breakers = (
            breakers
            if breakers is not None
            else CircuitBreakerBank(self.policy.breaker_threshold)
        )

    # ------------------------------------------------------------------
    def run(self, app, max_iterations=None, functional: bool = True):
        """Execute ``app`` to convergence or the iteration cap.

        The one loop every run iterates in, fault-free or not.  With
        ``functional=False`` only timing is simulated (properties are not
        evolved) and exactly the cap's iterations are charged — the mode
        of pure-throughput sweeps.  Returns a :class:`RunReport` whose
        ``health`` is clean when nothing fired.
        """
        from repro.core.system import RunReport, SystemSimulator

        policy = self.policy
        injector = FaultInjector(self.fault_plan)
        health = RunHealthReport()
        plan = self.pre.plan
        injector.bind_topology(
            plan.accelerator.num_little, plan.accelerator.num_big
        )
        sim = SystemSimulator(plan, self.platform, self.channel, injector=injector)
        health.initial_label = plan.accelerator.label

        limit = (
            max_iterations if max_iterations is not None else app.max_iterations
        )
        graph = app.graph
        run = RunReport(
            app_name=app.name,
            graph_name=graph.name,
            accel_label=plan.accelerator.label,
            frequency_mhz=sim.frequency_mhz,
            edges_per_iteration=plan.total_edges(),
            health=health,
        )
        props = app.init_props() if functional else None
        snapshot = None  # private copy of the state entering an iteration
        # The Apply/Writer stream depends only on V and the channel, so
        # it floors every budget of the run, re-planned ones included.
        stream = sim.iteration_report([], [], graph.num_vertices).total_cycles
        budget = policy.watchdog_budget(plan.estimated_makespan, stream)

        bank = self.breakers
        bank.reset_retired()
        bank.ensure(range(2 * plan.accelerator.total_pipelines))
        # Breakers opened by earlier runs on a shared bank: their
        # channels are never retried — retire the owning pipelines
        # before the first iteration.
        for channel in bank.open_unretired_channels():
            victim = self._victim_of_channel(channel, plan)
            if victim is None:
                continue
            victim = self._clamp_victim(victim, plan)
            health.record(
                0, "breaker-open",
                f"channel {channel} breaker open at run start; retiring "
                f"pipeline {victim[0]}{victim[1]}",
                run.total_cycles,
            )
            bank.mark_retired(self._victim_channels(victim, plan))
            plan, sim, budget = self._degrade(
                plan, victim, injector, health, stream
            )

        for iteration in range(limit):
            if functional:
                snapshot = props.copy()
            attempt = 0
            while True:
                injector.now = run.total_cycles
                try:
                    report = sim.iteration_timing(graph.num_vertices)
                    cycles = report.total_cycles
                    if cycles > budget:
                        health.watchdog_trips += 1
                        raise WatchdogTimeoutError(
                            cycles, budget, victim=injector.spike_victim()
                        )
                    new_props = (
                        sim.functional_iteration(app, props)
                        if functional
                        else None
                    )
                    break
                except ChannelFaultError as fault:
                    # Permanent: no retry can help — degrade immediately.
                    health.record(
                        iteration, fault.category, str(fault), run.total_cycles
                    )
                    run.total_cycles += budget
                    health.wasted_cycles += budget
                    if bank.force_open(
                        fault.channel, fault.category, run.total_cycles
                    ):
                        health.breaker_trips += 1
                    bank.mark_retired(
                        self._victim_channels(fault.victim, plan)
                    )
                    plan, sim, budget = self._degrade(
                        plan, fault.victim, injector, health, stream
                    )
                    props = self._restore(snapshot, health, props, functional)
                    attempt = 0
                except FaultInjectedError as fault:
                    health.record(
                        iteration, fault.category, str(fault), run.total_cycles
                    )
                    wasted = self._wasted_cycles(fault, budget)
                    run.total_cycles += wasted
                    health.wasted_cycles += wasted
                    attempt += 1
                    breaker_open = False
                    for ch in self._fault_channels(fault, plan):
                        if bank.record_failure(
                            ch, fault.category, run.total_cycles
                        ):
                            health.breaker_trips += 1
                        if bank.is_open(ch):
                            breaker_open = True
                    degradable = fault.victim is not None
                    if attempt > policy.max_retries or (
                        breaker_open and degradable
                    ):
                        if not degradable:
                            raise ResilienceExhaustedError(
                                f"iteration {iteration} failed "
                                f"{attempt} times: {fault}"
                            ) from fault
                        bank.mark_retired(
                            self._victim_channels(fault.victim, plan)
                        )
                        plan, sim, budget = self._degrade(
                            plan, fault.victim, injector, health, stream
                        )
                        attempt = 0
                    else:
                        backoff = policy.backoff_cycles(attempt)
                        run.total_cycles += backoff
                        health.backoff_cycles += backoff
                        health.retries += 1
                    props = self._restore(snapshot, health, props, functional)

            run.iteration_reports.append(report)
            run.total_cycles += cycles
            run.iterations += 1
            health.useful_cycles += cycles
            if functional:
                if app.has_converged(props, new_props, run.iterations):
                    props = new_props
                    run.converged = True
                    break
                props = new_props

        if functional:
            run.props = props
            run.result = app.finalize(props)
        health.final_label = plan.accelerator.label
        health.channel_breakers = bank.snapshot()
        run.final_plan = plan
        return run

    # ------------------------------------------------------------------
    @staticmethod
    def _wasted_cycles(fault: FaultInjectedError, budget: float) -> float:
        """Cycles lost to one failed attempt.

        Stalls and watchdog trips burn the whole budget (the watchdog is
        what reclaims the pipeline); a detected bit-flip is caught at the
        end of the attempt's execution, also modelled as one budget.
        """
        if isinstance(fault, WatchdogTimeoutError):
            return min(fault.measured_cycles, budget)
        return budget

    # -- channel <-> pipeline mapping (host-runtime layout) ------------
    @staticmethod
    def _victim_of_channel(channel: int, plan) -> Optional[Tuple[str, int]]:
        """Map a pseudo-channel onto its owning pipeline in ``plan``."""
        g = channel // 2
        acc = plan.accelerator
        if g < acc.num_little:
            return ("little", g)
        g -= acc.num_little
        if g < acc.num_big:
            return ("big", g)
        return None

    @staticmethod
    def _victim_channels(
        victim: Optional[Tuple[str, int]], plan
    ) -> List[int]:
        """The two pseudo-channels a pipeline owns in ``plan``."""
        if victim is None:
            return []
        kind, index = victim
        g = index if kind == "little" else plan.accelerator.num_little + index
        return [2 * g, 2 * g + 1]

    def _fault_channels(self, fault: FaultInjectedError, plan) -> List[int]:
        """Channels a fault is attributable to (empty when unpinned)."""
        if isinstance(fault, ChannelFaultError):
            return [fault.channel]
        return self._victim_channels(fault.victim, plan)

    @staticmethod
    def _clamp_victim(victim: Tuple[str, int], plan) -> Tuple[str, int]:
        """Coerce a victim named against an earlier topology into a
        pipeline that exists in ``plan`` (re-plans rebuild the combo from
        scratch, so only capacity — not identity — matters)."""
        kind, index = victim
        acc = plan.accelerator
        if kind == "little" and acc.num_little == 0:
            kind = "little" if acc.num_big == 0 else "big"
        if kind == "big" and acc.num_big == 0:
            kind = "little"
        count = acc.num_little if kind == "little" else acc.num_big
        return (kind, min(index, max(count - 1, 0)))

    def _restore(self, snapshot, health, props, functional):
        """Roll vertex state back to a copy of the last checkpoint."""
        if not functional:
            return props
        health.checkpoint_restores += 1
        return snapshot.copy()

    def _degrade(self, plan, victim, injector, health, stream):
        """Retire ``victim``, re-plan onto the survivors, revalidate."""
        from repro.core.system import SystemSimulator

        survivors = plan.accelerator.total_pipelines - 1
        if survivors < 1:
            raise ResilienceExhaustedError(
                "no surviving pipelines to re-plan onto"
            )
        kind, index = victim
        injector.retire_pipeline(kind, index)
        new_plan = self.pre.prepared.plan(self.pre.model, survivors)
        new_plan.validate(expected_edges=self.pre.graph.num_edges)
        injector.bind_topology(
            new_plan.accelerator.num_little, new_plan.accelerator.num_big
        )
        health.replans += 1
        health.degraded_pipelines.append(f"{kind}{index}")
        sim = SystemSimulator(
            new_plan, self.platform, self.channel, injector=injector
        )
        budget = self.policy.watchdog_budget(
            new_plan.estimated_makespan, stream
        )
        return new_plan, sim, budget
