"""Full-system simulator: heterogeneous clusters + Apply + Writer.

Executes a static :class:`~repro.sched.plan.SchedulingPlan` iteration by
iteration.  Within an iteration every pipeline runs its task list; the two
clusters proceed concurrently and the Apply module streams the merged
accumulations against the old properties (Fig. 3c), so the iteration's
cycle count is the slowest pipeline's busy time overlapped with the
Apply/Writer stream.

Task timings are invariant across iterations (the edge lists never
change), so they are evaluated once and cached; the *functional* pass —
running the app's UDFs through the modelled PEs — repeats every iteration
because properties evolve.

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
    #: :class:`repro.faults.resilience.RunHealthReport` when the run used
    #: the resilient execution layer; None for plain runs.
    health: Optional[object] = None
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
    """Executes a scheduling plan on the modelled heterogeneous system."""

    def __init__(
        self,
        plan: SchedulingPlan,
        platform: FpgaPlatform,
        channel: Optional[HbmChannelModel] = None,
        injector=None,
    ):
        self.plan = plan
        self.platform = platform
        self.channel = channel or HbmChannelModel()
        self.injector = injector
        if injector is not None:
            # Private channel copy so fault wiring never leaks into the
            # caller's (shared, possibly fault-free) channel model.
            self.channel = HbmChannelModel(
                self.channel.params, fault_site=injector
            )
        config = plan.accelerator.pipeline
        self._little = LittlePipelineSim(config, self.channel)
        self._big = BigPipelineSim(config, self.channel)
        self._apply = ApplySim(self.channel)
        self._writer = WriterSim(self.channel)
        if injector is not None:
            self._little.fault_site = injector
            self._big.fault_site = injector
        self._resource_report = resource_report(plan.accelerator, platform)
        self._cached_iteration: Optional[IterationReport] = None

    @property
    def frequency_mhz(self) -> float:
        """Implementation frequency from the resource model."""
        return self._resource_report.frequency_mhz

    # ------------------------------------------------------------------
    def _timing_pass(self, num_vertices: int) -> IterationReport:
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
        injector = self.injector
        if injector is not None and injector.timing_faults_active():
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
        return self._iteration_report(little, big, num_vertices)

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
        return self._iteration_report(little, big, num_vertices)

    def _iteration_report(
        self, little: List[float], big: List[float], num_vertices: int
    ) -> IterationReport:
        """Pipeline busy times plus the Apply/Writer stream (unscoped:
        no pipeline context is active while they are charged)."""
        return IterationReport(
            little_cycles=little,
            big_cycles=big,
            apply_cycles=self._apply.cycles(num_vertices),
            writer_cycles=self._writer.cycles(num_vertices),
        )

    def _compute_timing(self, num_vertices: int) -> IterationReport:
        """One interpreted timing pass over every pipeline's task list
        (the reference oracle of :meth:`_timing_pass`)."""
        injector = self.injector
        if injector is not None:
            injector.pass_kind = "timing"
        little = []
        for idx, tasks in enumerate(self.plan.little_tasks):
            if injector is not None:
                injector.enter_pipeline("little", idx)
            busy = 0.0
            for task in tasks:
                timing, _ = self._little.execute(task.partition)
                busy += timing.total_cycles
            little.append(busy)
        big = []
        for idx, tasks in enumerate(self.plan.big_tasks):
            if injector is not None:
                injector.enter_pipeline("big", idx)
            busy = 0.0
            for task in tasks:
                timing, _ = self._big.execute(task.partitions)
                busy += timing.total_cycles
            big.append(busy)
        if injector is not None:
            injector.exit_pipeline()
        return self._iteration_report(little, big, num_vertices)

    def _compiled_functional(self, app, props: np.ndarray) -> np.ndarray:
        """One functional pass through the compiled engine.

        The engine lowers the plan's edges into destination order on
        first use (attached to the plan object, shared across simulators
        and iterations) and evaluates the whole iteration as one scatter
        plus one segmented ``gather_ufunc.reduceat`` per destination,
        bit-identical to the interpreted walk
        (``tests/test_compiled_functional.py`` is the contract).  With an
        injector, ``pass_kind`` flips to "functional" and
        :func:`~repro.compiled.functional.replay_flips` replays the
        walk's bit-flip draws: a detectable hit raises at the same drain,
        a silent one re-folds the interval it corrupted, and the pipeline
        context ends as the walk leaves it.
        """
        from repro.compiled.functional import functional_engine, replay_flips

        acc = functional_engine(self.plan).accumulate(app, props)
        injector = self.injector
        if injector is not None:
            injector.pass_kind = "functional"
            replay_flips(self.plan, injector, app, props, acc)
        return self._apply.run(app, props, acc)

    def _interpreted_functional(self, app, props: np.ndarray) -> np.ndarray:
        """The per-task interpreted walk (reference oracle of
        :meth:`_compiled_functional`).

        ``execute`` with an app returns no timing: this pass only moves
        data, the timing pass already charged every task's cycles.
        """
        injector = self.injector
        if injector is not None:
            injector.pass_kind = "functional"
        acc = np.full(props.size, app.gather_identity, dtype=app.prop_dtype)
        for idx, tasks in enumerate(self.plan.little_tasks):
            if injector is not None:
                injector.enter_pipeline("little", idx)
            for task in tasks:
                _, output = self._little.execute(task.partition, app, props)
                lo, hi, buffer = output
                acc[lo:hi] = app.gather(acc[lo:hi], buffer)
        for idx, tasks in enumerate(self.plan.big_tasks):
            if injector is not None:
                injector.enter_pipeline("big", idx)
            for task in tasks:
                _, outputs = self._big.execute(task.partitions, app, props)
                for lo, hi, buffer in outputs:
                    acc[lo:hi] = app.gather(acc[lo:hi], buffer)
        if injector is not None:
            injector.exit_pipeline()
        return self._apply.run(app, props, acc)

    # -- public single-iteration surface (used by the resilient layer) --
    def iteration_timing(self, num_vertices: int) -> IterationReport:
        """Timing of one iteration (cached when no fault is active)."""
        return self._timing_pass(num_vertices)

    def functional_iteration(self, app, props: np.ndarray) -> np.ndarray:
        """One functional iteration: UDFs, global merge, Apply."""
        return self._compiled_functional(app, props)

    # ------------------------------------------------------------------
    def run(
        self,
        app,
        max_iterations: Optional[int] = None,
        functional: bool = True,
    ) -> RunReport:
        """Execute the app until convergence or the iteration cap.

        With ``functional=False`` only timing is simulated (properties are
        not evolved) and exactly ``max_iterations`` iterations are
        charged — the mode used by pure-throughput sweeps.
        """
        limit = max_iterations if max_iterations is not None else app.max_iterations
        graph = app.graph
        run = RunReport(
            app_name=app.name,
            graph_name=graph.name,
            accel_label=self.plan.accelerator.label,
            frequency_mhz=self.frequency_mhz,
            edges_per_iteration=self.plan.total_edges(),
            final_plan=self.plan,
        )
        props = app.init_props() if functional else None
        for _ in range(limit):
            iteration = self._timing_pass(graph.num_vertices)
            run.iteration_reports.append(iteration)
            run.total_cycles += iteration.total_cycles
            run.iterations += 1
            if functional:
                new_props = self._compiled_functional(app, props)
                if app.has_converged(props, new_props, run.iterations):
                    props = new_props
                    run.converged = True
                    break
                props = new_props
        if functional:
            run.props = props
            run.result = app.finalize(props)
        return run
