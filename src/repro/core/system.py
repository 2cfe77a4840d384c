"""Full-system simulator: heterogeneous clusters + Apply + Writer.

Simulates one iteration of a static
:class:`~repro.sched.plan.SchedulingPlan` as two passes, timing and
functional; :meth:`repro.faults.resilience.ResilientExecutor.run` is the
one loop that iterates them.  Within an iteration every pipeline runs its
task list; the two clusters proceed concurrently and the Apply module
streams the merged accumulations against the old properties (Fig. 3c), so
the iteration's cycle count is the slowest pipeline's busy time
overlapped with the Apply/Writer stream.

Task timings are invariant across iterations (the edge lists never
change), so they are evaluated once and cached while no timing fault is
active; the *functional* pass — running the app's UDFs through the
modelled PEs — repeats every iteration because properties evolve.  Every
simulator carries a :class:`~repro.faults.injector.FaultInjector`; one
built from an empty :class:`~repro.faults.plan.FaultPlan` draws nothing
and scales nothing.

Production passes run on the plan's compiled engines
(:mod:`repro.compiled`), fault-active passes included.  The per-task
interpreted walks (:meth:`SystemSimulator._compute_timing`,
:meth:`SystemSimulator._interpreted_functional`) are the reference
oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.arch.apply import ApplySim
from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.arch.platform import FpgaPlatform
from repro.arch.resources import report as resource_report
from repro.arch.writer import WriterSim
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.resilience import RunHealthReport
from repro.hbm.channel import HbmChannelModel
from repro.sched.plan import SchedulingPlan


@dataclass(frozen=True)
class IterationReport:
    """Cycle accounting of one iteration."""

    little_cycles: List[float]
    big_cycles: List[float]
    apply_cycles: float
    writer_cycles: float

    @property
    def cluster_cycles(self) -> float:
        """Busy time of the slowest pipeline across both clusters."""
        busiest = 0.0
        for cycles in (self.little_cycles, self.big_cycles):
            if cycles:
                busiest = max(busiest, max(cycles))
        return busiest

    @property
    def total_cycles(self) -> float:
        """Iteration cycles: clusters overlapped with the Apply stream,
        plus the Writer's broadcast tail."""
        return max(self.cluster_cycles, self.apply_cycles) + self.writer_cycles


@dataclass
class RunReport:
    """Outcome of a full application run on the simulated system."""

    app_name: str
    graph_name: str
    accel_label: str
    frequency_mhz: float
    iterations: int = 0
    total_cycles: float = 0.0
    edges_per_iteration: int = 0
    converged: bool = False
    iteration_reports: List[IterationReport] = field(default_factory=list)
    props: Optional[np.ndarray] = None
    result: Optional[object] = None
    #: Everything the resilient executor absorbed during the run (clean
    #: on a fault-free run: no faults, retries, re-plans or open breakers).
    health: RunHealthReport = field(default_factory=RunHealthReport)
    #: :class:`repro.sched.scheduler.SchedulingPlan` the final iterations
    #: executed under (differs from the initial plan after degradation).
    final_plan: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        """Wall-clock execution time at the modelled frequency."""
        return self.total_cycles / (self.frequency_mhz * 1e6)

    @property
    def processed_edges(self) -> int:
        """Edge traversals across all iterations."""
        return self.edges_per_iteration * self.iterations

    @property
    def mteps(self) -> float:
        """Millions of traversed edges per second."""
        if self.total_seconds == 0:
            return 0.0
        return self.processed_edges / self.total_seconds / 1e6

    @property
    def gteps(self) -> float:
        """Billions of traversed edges per second."""
        return self.mteps / 1e3


class SystemSimulator:
    """One iteration of a scheduling plan on the modelled system."""

    def __init__(
        self,
        plan: SchedulingPlan,
        platform: FpgaPlatform,
        channel: Optional[HbmChannelModel] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.plan = plan
        self.platform = platform
        self.injector = injector = injector or FaultInjector(FaultPlan())
        # Private channel copy so fault wiring never leaks into the
        # caller's shared channel model.
        self.channel = HbmChannelModel(
            (channel or HbmChannelModel()).params, fault_site=injector
        )
        config = plan.accelerator.pipeline
        self._little = LittlePipelineSim(config, self.channel)
        self._big = BigPipelineSim(config, self.channel)
        self._apply = ApplySim(self.channel)
        self._writer = WriterSim(self.channel)
        self._little.fault_site = injector
        self._big.fault_site = injector
        self._resource_report = resource_report(plan.accelerator, platform)
        self._cached_iteration: Optional[IterationReport] = None

    @property
    def frequency_mhz(self) -> float:
        """Implementation frequency from the resource model."""
        return self._resource_report.frequency_mhz

    # ------------------------------------------------------------------
    def iteration_timing(self, num_vertices: int) -> IterationReport:
        """Simulate one iteration's timing on the compiled engine.

        The fault-free report is computed once per simulator and reused
        across iterations.  While injected timing faults are active each
        pass is recomputed (:meth:`_faulted_timing`) and the stored
        fault-free report is left alone, so clean iterations
        before/after a fault window keep the baseline counts.  An
        *inactive* injector is safe to skip: its hooks draw no
        randomness and scale nothing while ``timing_faults_active()``
        is False.
        """
        if self.injector.timing_faults_active():
            return self._faulted_timing(num_vertices)
        if self._cached_iteration is None:
            self._cached_iteration = self._compiled_timing(num_vertices)
        return self._cached_iteration

    def _compiled_timing(self, num_vertices: int) -> IterationReport:
        """One fault-free timing pass through the compiled engine.

        The engine compiles the plan on first use (structure is attached
        to the plan object and reused across simulators, iterations and
        channel variants), evaluates all nodes batched under this
        simulator's channel params (memoised on the engine) and replays
        the interpreted busy-sum order.
        """
        from repro.compiled import plan_engine

        little, big = plan_engine(self.plan).busy_cycles(self.channel)
        return self.iteration_report(little, big, num_vertices)

    def _faulted_timing(self, num_vertices: int) -> IterationReport:
        """One timing pass with active timing faults, on the engine.

        Replays the interpreted task order through the injector's hooks
        only — ``enter_pipeline`` then one ``on_task`` per task, Little
        pipelines first — so stalls and dead channels raise at the same
        task and leave the injector RNG in the same state (``on_task``
        is the pass's only RNG consumer; the timing work draws nothing).
        Latency spikes become per-pipeline scales: only the victims'
        nodes are re-evaluated, the rest come from the engine's memo.
        """
        from repro.compiled import plan_engine

        injector = self.injector
        injector.pass_kind = "timing"
        for kind, pipelines in (
            ("little", self.plan.little_tasks),
            ("big", self.plan.big_tasks),
        ):
            for idx, tasks in enumerate(pipelines):
                injector.enter_pipeline(kind, idx)
                for _ in tasks:
                    injector.on_task(kind)
        injector.exit_pipeline()
        little, big = plan_engine(self.plan).busy_cycles(
            self.channel, injector.latency_scales()
        )
        return self.iteration_report(little, big, num_vertices)

    def iteration_report(
        self, little: List[float], big: List[float], num_vertices: int
    ) -> IterationReport:
        """Pipeline busy times plus the Apply/Writer stream (unscoped:
        no pipeline context is active while they are charged).  With no
        pipelines it is the stream alone, which floors the watchdog
        budget (:class:`~repro.faults.resilience.ResiliencePolicy`)."""
        return IterationReport(
            little_cycles=little,
            big_cycles=big,
            apply_cycles=self._apply.cycles(num_vertices),
            writer_cycles=self._writer.cycles(num_vertices),
        )

    def _compute_timing(self, num_vertices: int) -> IterationReport:
        """One interpreted timing pass over every pipeline's task list
        (the reference oracle of :meth:`iteration_timing`)."""
        injector = self.injector
        injector.pass_kind = "timing"
        little = []
        for idx, tasks in enumerate(self.plan.little_tasks):
            injector.enter_pipeline("little", idx)
            busy = 0.0
            for task in tasks:
                timing, _ = self._little.execute(task.partition)
                busy += timing.total_cycles
            little.append(busy)
        big = []
        for idx, tasks in enumerate(self.plan.big_tasks):
            injector.enter_pipeline("big", idx)
            busy = 0.0
            for task in tasks:
                timing, _ = self._big.execute(task.partitions)
                busy += timing.total_cycles
            big.append(busy)
        injector.exit_pipeline()
        return self.iteration_report(little, big, num_vertices)

    def functional_iteration(self, app, props: np.ndarray) -> np.ndarray:
        """One functional iteration through the compiled engine: UDFs,
        global merge, Apply.

        The engine lowers the plan's graph into destination order on
        first use (cached on the graph, shared by every plan of it,
        every simulator and every iteration) and evaluates the whole
        iteration as one scatter plus one segmented
        ``gather_ufunc.reduceat`` per destination,
        bit-identical to the interpreted walk
        (``tests/test_compiled_functional.py`` is the contract).  The
        injector's ``pass_kind`` flips to "functional" and
        :func:`~repro.compiled.functional.replay_flips` replays the
        walk's bit-flip draws (none while no flip window is open): a detectable hit raises at the same drain,
        a silent one re-folds the interval it corrupted, and the pipeline
        context ends as the walk leaves it.
        """
        from repro.compiled.functional import functional_engine, replay_flips

        acc = functional_engine(self.plan).accumulate(app, props)
        self.injector.pass_kind = "functional"
        replay_flips(self.plan, self.injector, app, props, acc)
        return self._apply.run(app, props, acc)

    def _interpreted_functional(self, app, props: np.ndarray) -> np.ndarray:
        """The per-task interpreted walk (reference oracle of
        :meth:`functional_iteration`).

        ``execute`` with an app returns no timing: this pass only moves
        data, the timing pass already charged every task's cycles.
        """
        injector = self.injector
        injector.pass_kind = "functional"
        acc = np.full(props.size, app.gather_identity, dtype=app.prop_dtype)
        for idx, tasks in enumerate(self.plan.little_tasks):
            injector.enter_pipeline("little", idx)
            for task in tasks:
                _, output = self._little.execute(task.partition, app, props)
                lo, hi, buffer = output
                acc[lo:hi] = app.gather(acc[lo:hi], buffer)
        for idx, tasks in enumerate(self.plan.big_tasks):
            injector.enter_pipeline("big", idx)
            for task in tasks:
                _, outputs = self._big.execute(task.partitions, app, props)
                for lo, hi, buffer in outputs:
                    acc[lo:hi] = app.gather(acc[lo:hi], buffer)
        injector.exit_pipeline()
        return self._apply.run(app, props, acc)
