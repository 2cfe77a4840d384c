"""The ReGraph framework facade (Fig. 8).

One object drives the whole flow a user of the open-source framework
would run: hand it a platform and a graph, and it performs DBG grouping,
destination-interval partitioning, model calibration, model-guided
scheduling (choosing the best pipeline combination) and execution on the
simulated heterogeneous accelerator — push-button, as Sec. V promises.
DBG and partitioning depend only on the graph, so they live on a
:class:`PreparedGraph` that any number of configurations can share, as
do the schedules memoised there; calibration belongs to each ReGraph.

Vertex IDs: preprocessing relabels the graph (DBG), so the framework maps
roots into, and results out of, the relabelled space transparently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.arch.config import PipelineConfig, default_pipeline_config
from repro.arch.platform import FpgaPlatform, get_platform
from repro.arch.resources import ResourceReport, report as resource_report
from repro.core.system import RunReport
from repro.errors import UserInputError
from repro.faults.resilience import ResilientExecutor
from repro.graph.coo import Graph
from repro.graph.partition import PartitionSet, partition_graph
from repro.graph.reorder import DbgResult, degree_based_grouping, identity_ordering
from repro.hbm.channel import HbmChannelModel
from repro.model.calibrate import calibrate_performance_model
from repro.model.perf import PerformanceModel
from repro.sched.plan import SchedulingPlan
from repro.sched.scheduler import build_schedule
from repro.utils.validation import check_max_iterations

#: Keywords of :meth:`ReGraph.run`; :meth:`ReGraph.run_app` hands every
#: other keyword to the app's constructor.
_RUN_KEYWORDS = (
    "max_iterations", "functional", "fault_plan", "resilience", "breakers",
)


class PreparedGraph:
    """The offline phase of one graph (Fig. 8 steps 3-4).

    DBG (or the identity ordering) runs once, here; the destination-
    interval partitions are cut on first request per interval, and the
    schedule on first request per schedule key, both memoised.  Nothing
    here depends on the device, so one prepared graph serves every
    device configuration, sweep point, degraded re-plan and model check
    of its owner (a job, a sweep, a run).  It keeps the relabelled
    graph, not the input one beside it, and lives exactly as long as its
    owner keeps it.
    """

    def __init__(self, graph: Graph, use_dbg: bool = True):
        t0 = time.perf_counter()
        self.dbg: DbgResult = (
            degree_based_grouping(graph) if use_dbg
            else identity_ordering(graph)
        )
        #: wall-clock seconds of this graph's one DBG call (Table IV)
        self.dbg_seconds = time.perf_counter() - t0
        self._partitions: Dict[int, PartitionSet] = {}
        self._plans: Dict[tuple, SchedulingPlan] = {}

    @property
    def graph(self) -> Graph:
        """The relabelled graph the accelerator executes."""
        return self.dbg.graph

    def partitions(self, interval: int) -> PartitionSet:
        """The graph cut into destination intervals of ``interval``."""
        pset = self._partitions.get(interval)
        if pset is None:
            pset = partition_graph(self.dbg.graph, interval)
            self._partitions[interval] = pset
        return pset

    def plan(
        self,
        model: PerformanceModel,
        num_pipelines: int,
        forced_combo: Optional[Tuple[int, int]] = None,
    ) -> SchedulingPlan:
        """The Sec. IV-B schedule, memoised on what :func:`build_schedule`
        reads (the interval is the model's): equal configurations, on any
        device, share one plan object and so one compiled engine."""
        key = (model, num_pipelines, forced_combo)
        plan = self._plans.get(key)
        if plan is None:
            plan = build_schedule(
                self.partitions(model.config.partition_vertices),
                model, num_pipelines, forced_combo=forced_combo,
            )
            self._plans[key] = plan
        return plan


@dataclass
class PreprocessResult:
    """A prepared graph plus one configuration's offline products."""

    prepared: PreparedGraph
    pset: PartitionSet
    model: PerformanceModel
    plan: SchedulingPlan
    resources: ResourceReport
    #: wall-clock seconds of partitioning and scheduling (or their memos)
    schedule_seconds: float

    @property
    def dbg(self) -> DbgResult:
        """The prepared graph's DBG result (relabelling and inverse)."""
        return self.prepared.dbg

    @property
    def dbg_seconds(self) -> float:
        """Wall-clock seconds of the prepared graph's one DBG call."""
        return self.prepared.dbg_seconds

    @property
    def graph(self) -> Graph:
        """The relabelled graph the accelerator executes."""
        return self.prepared.graph

    def to_original_order(self, props: np.ndarray) -> np.ndarray:
        """Map per-vertex results back to the input graph's vertex IDs."""
        return self.dbg.restore(props)

    def to_internal_vertex(self, vertex: int) -> int:
        """Map an input-graph vertex ID into the relabelled space.

        Raises :class:`~repro.errors.UserInputError` for a vertex
        outside ``[0, V)`` (NumPy would wrap a negative one).
        """
        num_vertices = self.dbg.mapping.size
        if not 0 <= vertex < num_vertices:
            raise UserInputError(
                f"vertex {vertex} is not in the graph: expected "
                f"0 <= vertex < V = {num_vertices}"
            )
        return int(self.dbg.mapping[vertex])


class ReGraph:
    """End-to-end framework: preprocess once, run apps push-button."""

    def __init__(
        self,
        platform: Union[str, FpgaPlatform] = "U280",
        pipeline: Optional[PipelineConfig] = None,
        channel: Optional[HbmChannelModel] = None,
        num_pipelines: Optional[int] = None,
    ):
        self.platform = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self.pipeline = pipeline or default_pipeline_config(self.platform)
        self.channel = channel or HbmChannelModel()
        limit = self.platform.max_total_pipelines
        if num_pipelines is None:
            num_pipelines = limit
        elif not 1 <= num_pipelines <= limit:
            raise UserInputError(
                f"num_pipelines must be in [1, {limit}] on "
                f"{self.platform.name} (its memory-port budget), got "
                f"{num_pipelines}"
            )
        self.num_pipelines = num_pipelines
        self._model: Optional[PerformanceModel] = None

    @property
    def model(self) -> PerformanceModel:
        """The calibrated analytic performance model (lazy)."""
        if self._model is None:
            self._model = calibrate_performance_model(
                self.pipeline, self.channel
            )
        return self._model

    # ------------------------------------------------------------------
    def preprocess(
        self,
        graph: Union[Graph, PreparedGraph],
        use_dbg: bool = True,
        forced_combo: Optional[Tuple[int, int]] = None,
    ) -> PreprocessResult:
        """Offline phase: DBG, partition, schedule (Fig. 8 steps 3-4).

        A :class:`Graph` is prepared here (``use_dbg`` picks DBG or the
        identity ordering); a :class:`PreparedGraph` already fixed its
        ordering, so only its partitions for this configuration's
        interval and the schedule are produced (or found in its memo).
        """
        prepared = (
            graph if isinstance(graph, PreparedGraph)
            else PreparedGraph(graph, use_dbg)
        )
        t0 = time.perf_counter()
        pset = prepared.partitions(self.pipeline.partition_vertices)
        plan = prepared.plan(
            self.model, self.num_pipelines, forced_combo=forced_combo
        )
        t1 = time.perf_counter()
        return PreprocessResult(
            prepared=prepared,
            pset=pset,
            model=self.model,
            plan=plan,
            resources=resource_report(plan.accelerator, self.platform),
            schedule_seconds=t1 - t0,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        graph_or_pre: Union[Graph, PreparedGraph, PreprocessResult],
        app_builder: Callable[[Graph], object],
        max_iterations: Optional[int] = None,
        functional: bool = True,
        fault_plan=None,
        resilience=None,
        breakers=None,
    ) -> RunReport:
        """Deploy and execute an app (Fig. 8 step 5).

        ``app_builder`` receives the *relabelled* graph; per-vertex
        results in the returned report are mapped back to input-graph
        order.

        Every run iterates in the resilient executor
        (:meth:`~repro.faults.resilience.ResilientExecutor.run`): faults
        injected by ``fault_plan`` (a
        :class:`~repro.faults.plan.FaultPlan`; ``None`` is the empty
        plan) are absorbed by watchdog/retry/checkpoint/degrade under
        ``resilience`` (a
        :class:`~repro.faults.resilience.ResiliencePolicy`; ``None`` is
        the default policy) and accounted in ``run.health``, which a
        fault-free run reports clean.

        ``breakers`` optionally shares a
        :class:`~repro.faults.resilience.CircuitBreakerBank` across runs
        so repeatedly-faulting channels stay degraded between executions
        (the host runtime passes its per-handle bank here).

        ``max_iterations`` below one raises
        :class:`~repro.errors.UserInputError` (``None`` runs to
        convergence).
        """
        check_max_iterations(max_iterations)
        pre = (
            graph_or_pre
            if isinstance(graph_or_pre, PreprocessResult)
            else self.preprocess(graph_or_pre)
        )
        executor = ResilientExecutor(
            pre, self.platform, self.channel,
            fault_plan=fault_plan, policy=resilience, breakers=breakers,
        )
        run = executor.run(
            app_builder(pre.graph),
            max_iterations=max_iterations,
            functional=functional,
        )
        if run.props is not None and run.props.size == pre.graph.num_vertices:
            run.props = pre.to_original_order(run.props)
            if (
                isinstance(run.result, np.ndarray)
                and run.result.size == pre.graph.num_vertices
            ):
                run.result = pre.to_original_order(run.result)
        return run

    def run_app(
        self,
        graph_or_pre: Union[Graph, PreparedGraph, PreprocessResult],
        app: str,
        root: int = 0,
        **kwargs,
    ) -> RunReport:
        """Run a registered application by name (the push-button flow).

        Looks the app up in :mod:`repro.apps.registry`, preprocesses a
        :class:`Graph` or :class:`PreparedGraph`, maps ``root`` (an
        input-graph vertex ID) into the relabelled space for the apps
        that take one, and calls :meth:`run`.  Keywords :meth:`run`
        accepts go there; the rest go to the app's constructor.  The
        graph is executed as given: callers pass ``spec.prepare(graph)``
        for apps that run on a transformed edge set (WCC).  Unknown
        names raise :class:`~repro.errors.UserInputError`.
        """
        from repro.apps.registry import get_app_spec

        try:
            spec = get_app_spec(app)
        except KeyError as exc:
            raise UserInputError(str(exc.args[0])) from exc
        pre = (
            graph_or_pre
            if isinstance(graph_or_pre, PreprocessResult)
            else self.preprocess(graph_or_pre)
        )
        run_kwargs = {k: kwargs.pop(k) for k in _RUN_KEYWORDS if k in kwargs}
        internal_root = (
            pre.to_internal_vertex(root) if spec.takes_root else None
        )
        return self.run(
            pre,
            lambda g: spec.build(g, root=internal_root, **kwargs),
            **run_kwargs,
        )

    # ------------------------------------------------------------------
    # Convenience wrappers for the three paper benchmarks
    # ------------------------------------------------------------------
    def run_pagerank(self, graph_or_pre, **kwargs) -> RunReport:
        """PageRank with the Listing 1 UDFs."""
        return self.run_app(graph_or_pre, "pagerank", **kwargs)

    def run_bfs(self, graph_or_pre, root: int = 0, **kwargs) -> RunReport:
        """BFS from ``root`` (an input-graph vertex ID)."""
        return self.run_app(graph_or_pre, "bfs", root=root, **kwargs)

    def run_closeness(self, graph_or_pre, root: int = 0, **kwargs) -> RunReport:
        """Closeness centrality of ``root`` (an input-graph vertex ID)."""
        return self.run_app(graph_or_pre, "closeness", root=root, **kwargs)
