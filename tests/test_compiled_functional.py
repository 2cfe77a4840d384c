"""Differential harness: compiled functional pass + trace synthesis.

The compiled functional engine batches whole partition groups through
the apps' UDFs; its contract is the same as the compiled timing core's —
*bit-identity* with the interpreted oracle, not approximate agreement.
Every RunReport digest and every final property array must match the
per-task interpreted walk exactly, across both devices, all five apps
and all graph families; synthesized traces must carry events equal to
the interpreted re-simulation and pass the conformance invariants
verbatim; placement what-if probes must answer exactly what an
interpreted timing pass charges.

Beyond the registered apps the harness covers every gather shape the
segmented reduction folds: delta-PageRank (``add``), radii
(``bitwise_or``), weighted SpMV (``add`` over weighted edges) and the
example's trust propagation (``maximum``), plus the zero-edge and
no-in-edge corner cells.  Bit-flip passes replay the injector's draws
on the engine; a hypothesis differential holds them to the oracle pass
by pass.

Tier-1 keeps a representative slice, the bit-flip differential
included; the ``slow`` marker carries the full device × app × family
sweep plus the channel-param hypothesis properties.
"""

import contextlib
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compiled import (
    compiled_stats,
    functional_engine,
    lower_functional_plan,
    reset_compiled_stats,
)
from repro.compiled.functional import plan_drains
from repro.apps.bfs import BreadthFirstSearch
from repro.apps.delta_pagerank import DeltaPageRank
from repro.apps.gas import GasApp
from repro.apps.pagerank import PageRank
from repro.apps.radii import RadiiEstimation
from repro.apps.registry import available_apps, get_app_spec
from repro.apps.spmv import SpMV
from repro.apps.sssp import SingleSourceShortestPaths
from repro.arch.platform import get_platform
from repro.arch.trace import interpreted_trace, trace_plan
from repro.check.invariants import check_trace
from repro.check.runner import with_random_weights
from repro.core.framework import ReGraph
from repro.core.system import SystemSimulator
from repro.errors import DataCorruptionError
from repro.faults import BitFlipFault, FaultInjector, FaultPlan
from repro.faults.resilience import (
    ResilientExecutor,
    ResiliencePolicy,
    RunHealthReport,
)
from repro.graph.coo import Graph
from repro.graph.generators import power_law_graph, rmat_graph
from repro.hbm.channel import HbmChannelModel
from repro.sched.plan import SchedulingPlan
from repro.sched.scheduler import build_schedule

from tests.helpers import (
    interpreted_oracle,
    make_framework,
    make_pipeline_config,
)
from tests.strategies import channel_param_perturbations, scheduling_plans
from tests.test_compiled_equivalence import (
    ALL_APPS,
    DEVICES,
    dispatch,
    family_graph,
    run_both_paths,
    run_report_digest,
)


EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / (
    "custom_algorithm.py"
)


@functools.cache
def example_module():
    """``examples/custom_algorithm.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location("custom_algorithm", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spmv_builder(graph):
    """Three chained weighted multiplies ``y = A^3 x``."""
    app = SpMV(graph, np.linspace(0.0, 1.0, graph.num_vertices))
    app.max_iterations = 3
    return app


#: Gather shapes outside ``ALL_APPS``: name -> (app builder, weighted).
GATHER_SHAPES = {
    "delta-pagerank": (DeltaPageRank, False),
    "radii": (lambda g: RadiiEstimation(g, num_sources=16, seed=1), False),
    "spmv": (spmv_builder, True),
    "trust": (
        lambda g: example_module().TrustPropagation(g, seed_vertex=0),
        False,
    ),
}


def run_builder_both_paths(builder, device, graph, max_iterations=8):
    """``framework.run`` on the production path, then on the
    interpreted oracle, each on a fresh framework."""
    reports = []
    for oracle in (False, True):
        context = (
            interpreted_oracle() if oracle else contextlib.nullcontext()
        )
        with context:
            reports.append(make_framework(platform=device).run(
                graph, builder, max_iterations=max_iterations
            ))
    return reports


def assert_gather_shape_identical(app, device, family):
    builder, weighted = GATHER_SHAPES[app]
    graph = family_graph(family, weighted=weighted)
    compiled, interpreted = run_builder_both_paths(builder, device, graph)
    assert compiled_stats()["functional_iterations"] == compiled.iterations
    assert run_report_digest(compiled) == run_report_digest(interpreted)
    np.testing.assert_array_equal(compiled.props, interpreted.props)


def degraded_plan(pre, framework):
    """The plan ``ResilientExecutor._degrade`` re-plans onto after
    retiring the first pipeline of ``pre.plan``."""
    accel = pre.plan.accelerator
    injector = FaultInjector(FaultPlan())
    injector.bind_topology(accel.num_little, accel.num_big)
    executor = ResilientExecutor(pre, framework.platform, framework.channel)
    victim = ("little", 0) if accel.num_little else ("big", 0)
    plan, _, _ = executor._degrade(
        pre.plan, victim, injector, RunHealthReport(), stream=0.0
    )
    return plan


def sorted_edges(src, dst, weights):
    """``(dst, src[, weight])`` columns in lexicographic order."""
    columns = [dst, src] if weights is None else [dst, src, weights]
    order = np.lexsort(columns[::-1])
    return [column[order] for column in columns]


def assert_plan_covers_graph(plan, graph):
    """The plan's drains hold exactly the graph's edges: same
    ``(dst, src, weight)`` multiset, each edge in one drain."""
    assert plan.graph is graph
    parts = [part for _, part in plan_drains(plan)]
    empty = np.zeros(0, dtype=np.int64)

    def concat(column):
        return np.concatenate([column(p) for p in parts] or [empty])

    weights = None
    if graph.weights is not None:
        weights = concat(lambda p: p.weights)
    drained = sorted_edges(
        concat(lambda p: p.src), concat(lambda p: p.dst), weights
    )
    expected = sorted_edges(graph.src, graph.dst, graph.weights)
    assert len(drained) == len(expected)
    for got, want in zip(drained, expected):
        np.testing.assert_array_equal(got, want)


@pytest.fixture(autouse=True)
def fresh_state():
    """Each test starts and ends with zeroed compiled-core counters."""
    reset_compiled_stats()
    yield
    reset_compiled_stats()


# ---------------------------------------------------------------------------
# Tier-1: representative slice of the matrix
# ---------------------------------------------------------------------------
class TestFunctionalEquivalence:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_every_app_digest_and_props_identical(self, app):
        graph = family_graph("rmat", weighted=(app == "sssp"))
        compiled, interpreted = run_both_paths(app, "U280", graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)
        assert compiled.props.dtype == interpreted.props.dtype

    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_every_graph_family_digest_identical(self, family):
        graph = family_graph(family)
        compiled, interpreted = run_both_paths("pagerank", "U50", graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    @pytest.mark.parametrize("device", DEVICES)
    def test_both_devices_digest_identical(self, device):
        graph = family_graph("powerlaw")
        compiled, interpreted = run_both_paths("bfs", device, graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    @pytest.mark.parametrize("app", ("pagerank", "sssp"))
    @pytest.mark.parametrize("device", DEVICES)
    def test_multi_partition_big_group_identical(self, device, app):
        # The family graphs at the test buffer plan no Big group of more
        # than one partition; this graph at COVERAGE_BUFFER does.
        graph = coverage_graph("rmat", weighted=(app == "sssp"))
        pre = make_framework(
            platform=device, buffer_vertices=COVERAGE_BUFFER
        ).preprocess(graph)
        assert any(
            len(task.partitions) > 1
            for tasks in pre.plan.big_tasks for task in tasks
        )
        compiled, interpreted = run_both_paths(
            app, device, graph, buffer_vertices=COVERAGE_BUFFER
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    def test_routing_counters_attribute_each_pass(self):
        graph = family_graph("rmat")
        framework = make_framework()
        run = framework.run_pagerank(graph, max_iterations=5)
        stats = compiled_stats()
        assert stats["functional_plans"] == 1
        assert stats["functional_iterations"] == run.iterations
        assert stats["functional_fallbacks"] == 0

    def test_structure_lowered_once_and_reused(self):
        framework = make_framework()
        pre = framework.preprocess(family_graph("rmat"))
        engine = functional_engine(pre.plan)
        assert functional_engine(pre.plan) is engine
        # Every plan of one graph shares the graph's one structure.
        pipelines = framework.num_pipelines
        forced = build_schedule(
            pre.pset, pre.model, pipelines, forced_combo=(pipelines, 0)
        )
        for plan in (forced, degraded_plan(pre, framework)):
            assert plan is not pre.plan
            assert plan.graph is pre.graph
            assert functional_engine(plan) is engine
        assert compiled_stats()["functional_plans"] == 1
        fplan = lower_functional_plan(pre.plan)
        assert fplan.src.size == pre.plan.total_edges()
        assert np.all(np.diff(fplan.dsts) > 0)
        runs = np.diff(np.append(fplan.starts, fplan.src.size))
        assert runs.size == fplan.dsts.size
        assert np.all(runs > 0)

    def test_weighted_lowering_keeps_each_edge_weight(self):
        # Parallel edges carry distinct weights; each run must hold its
        # destination's (src, weight) pairs exactly.  The order inside a
        # run follows the stored edges and is free (module docstring).
        graph = Graph(
            5, [0, 0, 0, 3, 4, 4, 1], [2, 2, 2, 2, 0, 2, 2],
            weights=np.array([7, 3, 5, 1, 9, 2, 4], dtype=np.int32),
        )
        pre = make_framework().preprocess(graph, use_dbg=False)
        fplan = lower_functional_plan(pre.plan)
        np.testing.assert_array_equal(fplan.dsts, [0, 2])
        np.testing.assert_array_equal(fplan.starts, [0, 1])
        runs = [
            sorted(zip(fplan.src[lo:hi].tolist(),
                       fplan.weights[lo:hi].tolist()))
            for lo, hi in ((0, 1), (1, 7))
        ]
        assert runs == [
            [(4, 9)], [(0, 3), (0, 5), (0, 7), (1, 4), (3, 1), (4, 2)]
        ]

    def test_plan_without_a_graph_is_rejected(self):
        pre = make_framework().preprocess(family_graph("uniform"))
        bare = SchedulingPlan(
            pre.plan.accelerator, pre.plan.little_tasks, pre.plan.big_tasks
        )
        with pytest.raises(ValueError, match="no graph"):
            functional_engine(bare)


def coverage_graph(family, weighted):
    """A graph whose plans at :data:`COVERAGE_BUFFER` mix sliced dense
    partitions on Little pipelines with merged sparse groups on Big."""
    if family == "rmat":
        graph = rmat_graph(11, 16, seed=3)
    else:
        graph = power_law_graph(3000, 30000, seed=3)
    if weighted:
        graph = with_random_weights(graph, seed=3)
    return graph


COVERAGE_BUFFER = 256


class TestPlanCoverage:
    """Each plan drains exactly its graph's edges, which is what lets
    one lowering of the graph serve every plan of it."""

    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize("device", DEVICES)
    def test_build_schedule_plans(self, device, weighted):
        framework = make_framework(
            platform=device, buffer_vertices=COVERAGE_BUFFER
        )
        for family in ("rmat", "powerlaw"):
            pre = framework.preprocess(coverage_graph(family, weighted))
            assert pre.plan.little_tasks and pre.plan.big_tasks
            assert_plan_covers_graph(pre.plan, pre.graph)

    @pytest.mark.parametrize("cluster", ("little", "big"))
    def test_forced_single_cluster_combos(self, cluster):
        framework = make_framework(buffer_vertices=COVERAGE_BUFFER)
        pipelines = framework.num_pipelines
        combo = (pipelines, 0) if cluster == "little" else (0, pipelines)
        pre = framework.preprocess(
            coverage_graph("powerlaw", weighted=True), forced_combo=combo
        )
        assert (
            pre.plan.accelerator.num_little, pre.plan.accelerator.num_big
        ) == combo
        assert_plan_covers_graph(pre.plan, pre.graph)

    @pytest.mark.parametrize("device", DEVICES)
    def test_degraded_replan(self, device):
        framework = make_framework(
            platform=device, buffer_vertices=COVERAGE_BUFFER
        )
        pre = framework.preprocess(coverage_graph("rmat", weighted=True))
        plan = degraded_plan(pre, framework)
        assert plan.accelerator.total_pipelines == (
            pre.plan.accelerator.total_pipelines - 1
        )
        assert_plan_covers_graph(plan, pre.graph)

    @given(drawn=st.booleans().flatmap(
        lambda weighted: scheduling_plans(weighted=weighted)
    ))
    @settings(max_examples=60, deadline=None)
    def test_drawn_plans(self, drawn):
        graph, plan = drawn
        assert_plan_covers_graph(plan, graph)


#: Every app whose scatter the engine may evaluate: name -> builder.
SCATTER_APPS = {
    **{name: get_app_spec(name).build for name in available_apps()},
    **{name: builder for name, (builder, _) in GATHER_SHAPES.items()},
}

#: Property words: anything the dtype holds, plus the apps' sentinels.
PROP_WORDS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-64, 64),
    st.sampled_from((2**31 - 1, 2**32, 2**62, 2**63 - 1)),
)


def scatter_outcome(scatter):
    """``scatter()``'s bytes and dtype, or the ``ValueError`` it raised
    (SSSP's scatter refuses to run without weights)."""
    try:
        updates = scatter()
    except ValueError as exc:
        return type(exc), str(exc)
    return updates.dtype, updates.tobytes()


class TestElementwiseScatter:
    """The engine scatters once per vertex on unweighted graphs: every
    app's ``scatter(props, None)[idx]`` must equal
    ``scatter(props[idx], None)``, repeated indices included."""

    @pytest.mark.parametrize("name", sorted(SCATTER_APPS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_per_vertex_equals_per_edge(self, name, data):
        graph = family_graph("uniform", weighted=True)
        app = SCATTER_APPS[name](graph)
        props = data.draw(hnp.arrays(
            app.prop_dtype, st.integers(1, 48), elements=PROP_WORDS
        ))
        idx = data.draw(hnp.arrays(
            np.intp, st.integers(0, 96),
            elements=st.integers(0, props.size - 1),
        ))
        if idx.size > 1 and data.draw(st.booleans()):
            idx[1:] = idx[0]
        per_vertex = scatter_outcome(lambda: app.scatter(props, None)[idx])
        per_edge = scatter_outcome(lambda: app.scatter(props[idx], None))
        assert per_vertex == per_edge


class TestGatherShapes:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app", sorted(GATHER_SHAPES))
    def test_digest_and_props_identical(self, app, device):
        assert_gather_shape_identical(app, device, "rmat")


class TestCornerCells:
    def test_zero_edge_graph(self):
        graph = Graph(
            40, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            name="empty",
        )
        compiled, interpreted = run_builder_both_paths(
            BreadthFirstSearch, "U280", graph
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    def test_vertices_without_in_edges_keep_the_identity(self):
        # Every edge lands on one of seven hubs, so every other vertex
        # has no destination run and its accumulator stays the identity.
        src = np.arange(300, dtype=np.int64)
        graph = Graph(300, src, src % 7, name="hubs")
        compiled, interpreted = run_builder_both_paths(
            BreadthFirstSearch, "U50", graph
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)
        pre = make_framework().preprocess(graph)
        app = BreadthFirstSearch(pre.graph)
        acc = functional_engine(pre.plan).accumulate(app, app.init_props())
        sinks = np.ones(graph.num_vertices, dtype=bool)
        sinks[pre.graph.dst] = False
        assert sinks.sum() == graph.num_vertices - 7
        assert np.all(acc[sinks] == app.gather_identity)


class TestGasContract:
    def _app_class(self, **attributes):
        return type("BadApp", (BreadthFirstSearch,), attributes)

    def test_rejects_a_gather_that_is_not_a_binary_ufunc(self):
        bad = self._app_class(gather_ufunc=np.negative)
        with pytest.raises(TypeError, match="BadApp.gather_ufunc"):
            bad(family_graph("uniform"))

    def test_rejects_a_non_integer_property_dtype(self):
        bad = self._app_class(prop_dtype=np.float64)
        with pytest.raises(TypeError, match="BadApp.prop_dtype"):
            bad(family_graph("uniform"))

    def test_example_app_constructs(self):
        app = example_module().TrustPropagation(
            family_graph("uniform"), seed_vertex=0
        )
        assert isinstance(app, GasApp)
        assert app.gather_ufunc is np.maximum


#: Apps of the bit-flip differential: name -> (builder, weighted).
FLIP_APPS = {
    "bfs": (BreadthFirstSearch, False),
    "pagerank": (PageRank, False),
    "radii": (lambda g: RadiiEstimation(g, num_sources=4, seed=1), False),
    "sssp": (SingleSourceShortestPaths, True),
    "spmv": (
        lambda g: SpMV(g, np.linspace(0.0, 1.0, g.num_vertices)), True,
    ),
}

#: Injector clock of each pass in a flip cell: windows open mid-cell.
FLIP_PASS_CLOCKS = (0.0, 5e3, 2e4)


@st.composite
def flip_cells(draw):
    """``(plan, app, fault plan)`` for the bit-flip differential.

    Plans come from two sources: :func:`scheduling_plans` draws small
    graphs whose sparse groups merge several partitions per Big task,
    and a framework-preprocessed family graph cuts dense partitions into
    Little slices that share one destination interval.
    """
    builder, weighted = FLIP_APPS[draw(st.sampled_from(sorted(FLIP_APPS)))]
    if draw(st.booleans()):
        graph, plan = draw(scheduling_plans(weighted=weighted))
    else:
        framework = make_framework(platform=draw(st.sampled_from(DEVICES)))
        pre = framework.preprocess(family_graph(
            draw(st.sampled_from(("rmat", "powerlaw", "uniform"))),
            seed=draw(st.integers(1, 20)),
            weighted=weighted,
        ))
        graph, plan = pre.graph, pre.plan
    flips = draw(st.lists(
        st.builds(
            BitFlipFault,
            probability=st.one_of(
                st.sampled_from((0.0, 1.0)), st.floats(0.01, 1.0),
            ),
            detectable=st.booleans(),
            onset_cycle=st.sampled_from((0.0, 1e3, 1e4, 1e6)),
        ),
        min_size=1, max_size=3,
    ))
    fault_plan = FaultPlan(
        seed=draw(st.integers(0, 2**16)), bit_flips=tuple(flips)
    )
    return plan, builder(graph), fault_plan


def flip_pass_records(plan, app, fault_plan, oracle):
    """One functional pass per :data:`FLIP_PASS_CLOCKS` entry on a fresh
    simulator and injector: per pass the pre-Apply accumulator bytes (or
    the corruption message), the injector RNG state, context and pass
    kind."""
    injector = FaultInjector(fault_plan)
    injector.bind_topology(len(plan.little_tasks), len(plan.big_tasks))
    sim = SystemSimulator(plan, get_platform("U280"), injector=injector)
    accs = []
    run_apply = sim._apply.run

    def capture(app, props, acc):
        accs.append(acc.tobytes())
        return run_apply(app, props, acc)

    sim._apply.run = capture
    records = []
    props = app.init_props()
    with interpreted_oracle() if oracle else contextlib.nullcontext():
        for now in FLIP_PASS_CLOCKS:
            injector.now = now
            # What a timing pass that raised at a task leaves behind.
            injector.pass_kind = "timing"
            injector.enter_pipeline("little", 0)
            try:
                props = sim.functional_iteration(app, props)
                outcome = accs[-1]
            except DataCorruptionError as exc:
                outcome = str(exc)
            records.append((
                outcome,
                injector.rng.bit_generator.state,
                injector._context,
                injector.pass_kind,
            ))
    return records


class TestFaultFallback:
    def test_detectable_flip_digest_and_health_identical(self):
        plan = FaultPlan(
            seed=13,
            bit_flips=(
                BitFlipFault(probability=0.05, detectable=True),
            ),
        )
        graph = family_graph("rmat")
        compiled, interpreted = run_both_paths(
            "pagerank", "U280", graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        assert compiled.health.to_dict() == interpreted.health.to_dict()

    def test_silent_flip_digest_identical(self):
        plan = FaultPlan(
            seed=29,
            bit_flips=(
                BitFlipFault(probability=0.1, detectable=False),
            ),
        )
        graph = family_graph("uniform")
        compiled, interpreted = run_both_paths(
            "pagerank", "U280", graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)

    @given(cell=flip_cells())
    @settings(max_examples=100, deadline=None)
    def test_flip_passes_identical_to_oracle(self, cell):
        plan, app, fault_plan = cell
        production = flip_pass_records(plan, app, fault_plan, oracle=False)
        oracle = flip_pass_records(plan, app, fault_plan, oracle=True)
        assert production == oracle
        clean = flip_pass_records(plan, app, FaultPlan(), oracle=False)
        for (outcome, *_), (clean_acc, *_) in zip(production, clean):
            if isinstance(outcome, str):
                event("detectable flip raised")
            elif outcome != clean_acc:
                event("silent flip changed the accumulator")

    def test_every_drain_hit_corrupts_identically(self):
        # Probability 1: every drain of the pass is flipped, so every
        # Little slice sharing an interval hits in the same pass.
        pre = make_framework().preprocess(family_graph("rmat"))
        intervals = [
            (t.partition.vertex_lo, t.partition.vertex_hi)
            for tasks in pre.plan.little_tasks for t in tasks
        ]
        assert len(intervals) > len(set(intervals))
        app = PageRank(pre.graph)
        fault_plan = FaultPlan(
            seed=3,
            bit_flips=(BitFlipFault(probability=1.0, detectable=False),),
        )
        production = flip_pass_records(pre.plan, app, fault_plan, False)
        assert production == flip_pass_records(
            pre.plan, app, fault_plan, True
        )
        clean = flip_pass_records(pre.plan, app, FaultPlan(), False)
        assert all(
            record[0] != clean_record[0]
            for record, clean_record in zip(production, clean)
        )

    def test_fault_active_run_times_each_task_once_per_pass(
        self, monkeypatch
    ):
        # Pass-count guard: with a timing fault and a functional fault
        # both active, no timing pass walks the interpreted pipelines —
        # each replays exactly one on_task hook per task, up to the task
        # that raises — and no functional pass executes a pipeline, not
        # even one whose silent flips corrupted it.
        from repro.arch.big_pipeline import BigPipelineSim
        from repro.arch.little_pipeline import LittlePipelineSim
        from repro.faults import LatencySpikeFault, PipelineStallFault

        task_timings = []
        functional_executions = []
        for cls in (LittlePipelineSim, BigPipelineSim):
            original = cls._compute_timing

            def timed(self, *args, _original=original, **kwargs):
                task_timings.append(self)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "_compute_timing", timed)
            original_execute = cls.execute

            def execute(self, parts, app=None, *args,
                        _original=original_execute, **kwargs):
                if app is not None:
                    functional_executions.append(self)
                return _original(self, parts, app, *args, **kwargs)

            monkeypatch.setattr(cls, "execute", execute)

        hooks = []
        passes = []
        original_on_task = FaultInjector.on_task

        def on_task(self, kind):
            if self.pass_kind == "timing":
                hooks.append(kind)
            return original_on_task(self, kind)

        monkeypatch.setattr(FaultInjector, "on_task", on_task)
        original_timing = SystemSimulator.iteration_timing

        def timing_pass(self, num_vertices):
            start = len(hooks)
            try:
                report = original_timing(self, num_vertices)
            except Exception:
                passes.append((len(hooks) - start, True))
                raise
            passes.append((len(hooks) - start, False))
            return report

        monkeypatch.setattr(SystemSimulator, "iteration_timing", timing_pass)
        silent_hits = []
        original_draw = FaultInjector.draw_flip

        def draw_flip(self, nbytes):
            hit = original_draw(self, nbytes)
            if hit is not None:
                silent_hits.append(hit)
            return hit

        monkeypatch.setattr(FaultInjector, "draw_flip", draw_flip)

        framework = make_framework()
        pre = framework.preprocess(family_graph("powerlaw"))
        fault_plan = FaultPlan(
            seed=5,
            latency_spikes=(LatencySpikeFault(
                channel=0, onset_cycle=0.0, duration_cycles=1e12,
                multiplier=4.0,
            ),),
            stalls=(PipelineStallFault(probability=0.05),),
            bit_flips=(BitFlipFault(
                probability=0.05, detectable=False, onset_cycle=5e3,
            ),),
        )
        task_timings.clear()  # model calibration during preprocess
        run = framework.run(
            pre, PageRank, max_iterations=6,
            fault_plan=fault_plan, resilience=ResiliencePolicy(),
        )
        tasks = sum(len(t) for t in pre.plan.little_tasks) + sum(
            len(t) for t in pre.plan.big_tasks
        )
        assert pre.plan.little_tasks and pre.plan.big_tasks
        assert task_timings == []
        assert [count for count, raised in passes if not raised] == (
            [tasks] * run.iterations
        )
        # A stall raises at a task's hook, before any later task's.
        assert all(0 < count <= tasks for count, raised in passes if raised)
        assert any(raised for _, raised in passes)
        assert silent_hits
        assert functional_executions == []
        assert compiled_stats()["functional_iterations"] >= run.iterations

    def test_silent_flip_faultsim_stdout_identical(self, capsys):
        # The end-to-end gate for silent flips: chaos, fleet and serve
        # draw only detectable ones.
        from repro.cli import main

        argv = [
            "faultsim", "--dataset", "HD", "--scale", "0.02",
            "--platform", "U50", "--pipelines", "6",
            "--buffer-vertices", "256",
            "--bit-flip-rate", "0.05", "--silent-flips",
        ]
        outputs = []
        for oracle in (False, True):
            with interpreted_oracle() if oracle else contextlib.nullcontext():
                assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        clean = next(line for line in lines if line.startswith("clean run:"))
        faulted = next(
            line for line in lines if line.startswith("faulted run:")
        )
        # The flips perturbed the run: it no longer converges in the
        # clean run's iterations.
        assert clean.split(",")[0][len("clean run:"):].strip() != (
            faulted.split(",")[0][len("faulted run:"):].strip()
        )

    def test_inactive_windows_do_not_trip_the_gate(self):
        injector = FaultInjector(FaultPlan(
            seed=1,
            bit_flips=(
                BitFlipFault(probability=0.0),
                BitFlipFault(probability=0.5, onset_cycle=1e12),
            ),
        ))
        assert not injector.functional_faults_active()
        injector.now = 2e12
        assert injector.functional_faults_active()


class TestTraceSynthesis:
    def _plan_and_framework(self, family="rmat", device="U280"):
        framework = make_framework(platform=device)
        pre = framework.preprocess(family_graph(family))
        return framework, pre

    @pytest.mark.parametrize("device", DEVICES)
    def test_events_equal_interpreted_resimulation(self, device):
        framework, pre = self._plan_and_framework(device=device)
        channel = HbmChannelModel()
        synthesized = trace_plan(pre.plan, channel)
        interpreted = interpreted_trace(pre.plan, channel)
        assert synthesized.events == interpreted.events
        assert synthesized.makespan == interpreted.makespan

    def test_synthesized_trace_passes_conformance_invariants(self):
        framework, pre = self._plan_and_framework(family="powerlaw")
        channel = HbmChannelModel()
        trace = trace_plan(pre.plan, channel)
        violations = check_trace(
            trace,
            plan=pre.plan,
            platform=framework.platform,
            channel=channel,
        )
        assert violations == []

    def test_routing_counters(self):
        _, pre = self._plan_and_framework()
        channel = HbmChannelModel()
        trace_plan(pre.plan, channel)
        interpreted_trace(pre.plan, channel)
        assert compiled_stats()["traces_synthesized"] == 1

    def test_fault_site_never_reaches_the_engine_memo(self):
        # The engine memo is keyed by channel params alone, so a channel
        # carrying a live spike must trace (and memoise) the fault-free
        # datapath, never the injector's momentary state.
        from repro.faults import LatencySpikeFault

        _, pre = self._plan_and_framework()
        injector = FaultInjector(FaultPlan(
            seed=3,
            latency_spikes=(LatencySpikeFault(channel=0, multiplier=8.0),),
        ))
        injector.bind_topology(
            len(pre.plan.little_tasks), len(pre.plan.big_tasks)
        )
        injector.enter_pipeline("little", 0)
        spiked = trace_plan(pre.plan, HbmChannelModel(fault_site=injector))
        clean = interpreted_trace(pre.plan, HbmChannelModel())
        assert spiked.events == clean.events


class TestPlacementProbes:
    def test_probes_match_interpreted_timing_on_soak(self, monkeypatch):
        # Every what-if probe of a soak answers exactly the cycles an
        # interpreted timing pass charges on the probed replica.
        from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak
        from repro.fleet.placement import PlacementEngine

        probed = []
        original = PlacementEngine._probe_iteration_cycles

        def checked(replica, pre):
            cycles = original(replica, pre)
            fw = replica.handle.framework
            sim = SystemSimulator(
                pre.plan, fw.platform, HbmChannelModel(fw.channel.params)
            )
            oracle = sim._compute_timing(pre.graph.num_vertices)
            probed.append((cycles, oracle.total_cycles))
            return cycles

        monkeypatch.setattr(
            PlacementEngine, "_probe_iteration_cycles",
            staticmethod(checked),
        )
        run_fleet_soak(FleetSoakConfig(seed=7, jobs=6))
        assert probed
        assert all(cycles == oracle for cycles, oracle in probed)

    def test_probes_share_the_plan_engine_across_params(self):
        from repro.chaos.spec import GraphSpec
        from repro.compiled import plan_engine
        from repro.fleet.job import Job
        from repro.fleet.placement import PlacementEngine
        from repro.fleet.replica import make_replica
        from repro.fleet.runtime import _QueuedJob
        from repro.hbm.channel import HbmTimingParams

        job = Job(
            job_id="j0", app="pagerank",
            graph=GraphSpec(
                kind="rmat", vertices=256, edges=2048, seed=3
            ),
            max_iterations=10,
        )
        entry = _QueuedJob(job, 0)
        slow_params = HbmTimingParams(min_latency=48.0, max_latency=112.0)
        engine = PlacementEngine()
        predictions, plans = [], []
        for rid, device, params in (
            ("r0", "U280", HbmTimingParams()),
            ("r1", "U280", slow_params),
            ("r2", "U50", HbmTimingParams()),
        ):
            replica = make_replica(rid, device)
            fw = replica.handle.framework
            fw.channel = HbmChannelModel(params)
            pre = entry.preprocessed(replica)
            seconds = engine.predicted_seconds(replica, job, pre)
            sim = SystemSimulator(pre.plan, fw.platform, fw.channel)
            cycles = sim._compute_timing(pre.graph.num_vertices).total_cycles
            hz = pre.resources.frequency_mhz * 1e6
            assert seconds == cycles * job.max_iterations / hz
            predictions.append(seconds)
            plans.append(pre.plan)
        # The plan is scheduled on the model calibrated under the
        # replica's channel: other parameters, another plan.  Equal
        # parameters on another device find the same plan, and the probe
        # prices it on its one engine, memoised per parameter set.
        assert plans[1] is not plans[0] and plans[2] is plans[0]
        assert plan_engine(plans[2]) is plan_engine(plans[0])
        assert len(plan_engine(plans[0])._memo) == 1
        assert predictions[1] > predictions[0]
        assert engine.probe_stats == {"probes": 3}


# ---------------------------------------------------------------------------
# Slow: the full matrix + properties
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestFullMatrix:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app", ALL_APPS)
    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_digest_and_props_identical(self, device, app, family):
        graph = family_graph(family, weighted=(app == "sssp"))
        compiled, interpreted = run_both_paths(app, device, graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        np.testing.assert_array_equal(compiled.props, interpreted.props)


@pytest.mark.slow
class TestGatherShapesFullMatrix:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app", sorted(GATHER_SHAPES))
    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_digest_and_props_identical(self, device, app, family):
        assert_gather_shape_identical(app, device, family)


@pytest.mark.slow
class TestProperties:
    @given(params=channel_param_perturbations())
    @settings(max_examples=15, deadline=None)
    def test_digest_identical_under_any_channel_params(self, params):
        # Channel parameters steer timing, never the functional result;
        # both must still agree bit-for-bit between the paths.
        graph = family_graph("rmat")
        reports = []
        for oracle in (False, True):
            framework = ReGraph(
                "U280",
                pipeline=make_pipeline_config(),
                channel=HbmChannelModel(params),
            )
            if oracle:
                with interpreted_oracle():
                    reports.append(dispatch(
                        framework, "pagerank", graph, max_iterations=6
                    ))
            else:
                reports.append(dispatch(
                    framework, "pagerank", graph, max_iterations=6
                ))
        assert run_report_digest(reports[0]) == run_report_digest(reports[1])
        np.testing.assert_array_equal(reports[0].props, reports[1].props)

    @given(params=channel_param_perturbations())
    @settings(max_examples=15, deadline=None)
    def test_synthesized_trace_equal_under_any_channel_params(self, params):
        framework = make_framework()
        pre = framework.preprocess(family_graph("uniform"))
        channel = HbmChannelModel(params)
        synthesized = trace_plan(pre.plan, channel)
        interpreted = interpreted_trace(pre.plan, channel)
        assert synthesized.events == interpreted.events
