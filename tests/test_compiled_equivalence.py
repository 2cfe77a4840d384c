"""Differential equivalence harness: compiled core vs interpreted oracle.

The compiled simulation core's contract is *bit-identity*, not
approximate agreement: every ``PartitionTiming``, every per-iteration
cycle list and every ``RunReport`` digest must match the interpreted
reference path (:func:`tests.helpers.interpreted_oracle`) exactly,
across both devices, all five apps, all graph families, with and
without fault plans attached — and a fault-active run must leave the
injector RNG exactly where the interpreted walk leaves it.  Anything weaker would
let the compiled path drift away from the oracle that every other
subsystem (conformance, chaos, fleet) is validated against.

Tier-1 keeps a representative slice of the matrix; the ``slow`` marker
carries the full device × app × graph-family sweep plus hypothesis
properties over random plans and channel-parameter perturbations.
"""

import contextlib
import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (
    CompiledEngine,
    compile_plan,
    compiled_stats,
    evaluate_plan,
    plan_engine,
)
from repro.arch.config import AcceleratorConfig, PipelineConfig
from repro.arch.platform import get_platform
from repro.core.system import SystemSimulator
from repro.errors import ReproError
from repro.faults import (
    BitFlipFault,
    DeadChannelFault,
    FaultInjector,
    FaultPlan,
    LatencySpikeFault,
    PipelineStallFault,
)
from repro.faults.resilience import ResiliencePolicy
from repro.graph.partition import partition_graph
from repro.sched.plan import BigTask, LittleTask, SchedulingPlan
from repro.graph.generators import (
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)
from repro.hbm.channel import HbmChannelModel

from tests.helpers import (
    TEST_BUFFER_VERTICES,
    interpreted_oracle,
    make_framework,
)
from tests.strategies import (
    channel_param_perturbations,
    scheduling_plans,
)

ALL_APPS = ("pagerank", "bfs", "closeness", "sssp", "wcc")
DEVICES = ("U280", "U50")


# ---------------------------------------------------------------------------
# Matrix plumbing
# ---------------------------------------------------------------------------
def family_graph(family: str, seed: int = 3, weighted: bool = False):
    if family == "rmat":
        graph = rmat_graph(9, 8, seed=seed)
    elif family == "powerlaw":
        graph = power_law_graph(600, 4000, seed=seed)
    elif family == "uniform":
        graph = erdos_renyi_graph(500, 3000, seed=seed)
    else:
        raise ValueError(family)
    if weighted:
        from repro.check.runner import with_random_weights

        graph = with_random_weights(graph, seed=seed)
    return graph


def dispatch(framework, app: str, graph, **kwargs):
    """Run ``app`` by name (mirrors the chaos campaign's dispatch)."""
    if app == "pagerank":
        return framework.run_pagerank(graph, **kwargs)
    if app == "bfs":
        return framework.run_bfs(graph, root=0, **kwargs)
    if app == "closeness":
        return framework.run_closeness(graph, root=0, **kwargs)
    if app == "sssp":
        from repro.apps.sssp import SingleSourceShortestPaths

        pre = framework.preprocess(graph)
        root = pre.to_internal_vertex(0)
        return framework.run(
            pre,
            lambda g: SingleSourceShortestPaths(g, root=root),
            **kwargs,
        )
    if app == "wcc":
        from repro.apps.wcc import WeaklyConnectedComponents, symmetrized

        return framework.run(
            symmetrized(graph), WeaklyConnectedComponents, **kwargs
        )
    raise ValueError(app)


def run_report_digest(run) -> str:
    """SHA-256 over everything a RunReport asserts about the run.

    Floats enter via ``repr`` (which round-trips float64 exactly), the
    property array via raw bytes — so two digests agree iff the reports
    are bit-identical.
    """
    h = hashlib.sha256()
    h.update(repr((
        run.app_name,
        run.graph_name,
        run.accel_label,
        run.frequency_mhz,
        run.iterations,
        run.total_cycles,
        run.edges_per_iteration,
        run.converged,
    )).encode())
    for report in run.iteration_reports:
        h.update(repr((
            report.little_cycles,
            report.big_cycles,
            report.apply_cycles,
            report.writer_cycles,
        )).encode())
    if run.props is not None:
        props = np.ascontiguousarray(run.props)
        h.update(str(props.dtype).encode())
        h.update(props.tobytes())
    return h.hexdigest()


def run_both_paths(
    app, device, graph, buffer_vertices=TEST_BUFFER_VERTICES, **kwargs
):
    """Production run, then the interpreted oracle's, each on a fresh
    framework; returns both reports."""
    production = dispatch(
        make_framework(platform=device, buffer_vertices=buffer_vertices),
        app, graph, max_iterations=8, **kwargs,
    )
    with interpreted_oracle():
        oracle = dispatch(
            make_framework(platform=device, buffer_vertices=buffer_vertices),
            app, graph, max_iterations=8, **kwargs,
        )
    return production, oracle


# ---------------------------------------------------------------------------
# Tier-1: representative slice of the matrix
# ---------------------------------------------------------------------------
class TestRunReportEquivalence:
    @pytest.mark.parametrize("device", DEVICES)
    def test_pagerank_digest_identical_on_both_devices(self, device):
        graph = family_graph("rmat")
        compiled, interpreted = run_both_paths("pagerank", device, graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_every_app_digest_identical(self, app):
        graph = family_graph("rmat", weighted=(app == "sssp"))
        compiled, interpreted = run_both_paths(app, "U280", graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)

    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_every_graph_family_digest_identical(self, family):
        graph = family_graph(family)
        compiled, interpreted = run_both_paths("pagerank", "U50", graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)

    def test_fault_active_run_digest_identical(self):
        # An active latency spike re-evaluates the victim pipeline's
        # nodes under the scaled channel; clean iterations before/after
        # come from the engine memo.  The reports — including health
        # accounting — must equal the interpreted walk's.
        plan = FaultPlan(
            seed=7,
            latency_spikes=(
                LatencySpikeFault(
                    channel=0,
                    onset_cycle=0.0,
                    duration_cycles=5e3,
                    multiplier=4.0,
                ),
            ),
        )
        graph = family_graph("rmat")
        compiled, interpreted = run_both_paths(
            "pagerank", "U280", graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        assert compiled.health.to_dict() == interpreted.health.to_dict()

    def test_stall_fault_rng_stream_unperturbed(self):
        # Stall triggering consumes injector randomness; if the hook
        # replay consumed (or skipped) draws the interpreted walk makes,
        # retry counts would diverge.  Identical health reports pin it.
        plan = FaultPlan(
            seed=11,
            stalls=(
                PipelineStallFault(
                    probability=0.1, onset_cycle=0.0, pipeline=None
                ),
            ),
        )
        graph = family_graph("uniform")
        compiled, interpreted = run_both_paths(
            "pagerank", "U280", graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)
        assert compiled.health.to_dict() == interpreted.health.to_dict()


class TestPartitionTimingEquivalence:
    @pytest.mark.parametrize("device", DEVICES)
    def test_every_node_matches_interpreted_compute(self, device):
        framework = make_framework(platform=device)
        pre = framework.preprocess(family_graph("powerlaw"))
        sim = SystemSimulator(pre.plan, framework.platform)
        cplan = compile_plan(pre.plan)
        timings = evaluate_plan(cplan, sim.channel)
        for pipe, tasks in enumerate(pre.plan.little_tasks):
            for order, task in enumerate(tasks):
                node = cplan.little_by_pipe[pipe][order]
                expected, _ = sim._little.execute(task.partition)
                assert timings[node.index] == expected
        for pipe, tasks in enumerate(pre.plan.big_tasks):
            for order, task in enumerate(tasks):
                node = cplan.big_by_pipe[pipe][order]
                expected, _ = sim._big.execute(task.partitions)
                assert timings[node.index] == expected

    def test_busy_sums_replay_interpreted_order(self):
        framework = make_framework()
        pre = framework.preprocess(family_graph("rmat"))
        sim = SystemSimulator(pre.plan, framework.platform)
        report = sim._compute_timing(pre.graph.num_vertices)
        little, big = plan_engine(pre.plan).busy_cycles(sim.channel)
        assert little == report.little_cycles
        assert big == report.big_cycles


class TestCacheComposition:
    """The compiled engine's per-plan memo: the one place timing
    results are reused."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_memo_served_run_identical_to_cold_run(self, seed):
        # The second run over one plan is served from the engine memo;
        # it must be indistinguishable from a run on a fresh framework.
        graph = rmat_graph(11, 8, seed=seed)
        cold = make_framework().run_pagerank(graph, max_iterations=5)
        framework = make_framework()
        pre = framework.preprocess(graph)
        framework.run_pagerank(pre, max_iterations=5)
        hits = compiled_stats()["memo_hits"]
        warm = framework.run_pagerank(pre, max_iterations=5)
        assert compiled_stats()["memo_hits"] > hits
        assert run_report_digest(warm) == run_report_digest(cold)

    def test_engine_is_compiled_once_per_plan(self):
        framework = make_framework()
        pre = framework.preprocess(family_graph("rmat"))
        engine = plan_engine(pre.plan)
        assert plan_engine(pre.plan) is engine
        assert isinstance(engine, CompiledEngine)

    def test_memoized_evaluation_reused_across_simulators(self):
        framework = make_framework()
        pre = framework.preprocess(family_graph("rmat"))
        channel = HbmChannelModel()
        engine = plan_engine(pre.plan)
        first = engine.timings(channel)
        second = engine.timings(channel)
        assert second is first


# ---------------------------------------------------------------------------
# Fault-path differential: production vs the interpreted oracle
# ---------------------------------------------------------------------------
#: Iteration cycles of the property runs are a few thousand, so onsets
#: and spike windows in these ranges land before, inside and after runs.
ONSETS = st.floats(0.0, 2e4, allow_nan=False)


@st.composite
def timing_fault_plans(draw, num_channels):
    """Random plans mixing every timing fault kind (plus rare flips).

    Channels run past the topology, so some faults hit no pipeline;
    two spikes may share a channel or a pipeline's channel pair.
    """
    channels = st.integers(0, num_channels + 1)
    dead = draw(st.lists(
        st.builds(DeadChannelFault, channel=channels, onset_cycle=ONSETS),
        max_size=1,
    ))
    spikes = draw(st.lists(
        st.builds(
            LatencySpikeFault,
            channel=channels,
            onset_cycle=ONSETS,
            duration_cycles=st.floats(1.0, 5e4, allow_nan=False),
            multiplier=st.floats(1.0, 16.0, allow_nan=False),
        ),
        max_size=3,
    ))
    stalls = draw(st.lists(
        st.builds(
            PipelineStallFault,
            probability=st.floats(0.0, 0.3, allow_nan=False),
            pipeline=st.one_of(
                st.none(), st.integers(0, num_channels // 2)
            ),
            onset_cycle=ONSETS,
        ),
        max_size=2,
    ))
    flips = draw(st.lists(
        st.builds(
            BitFlipFault,
            probability=st.floats(0.0, 0.02, allow_nan=False),
            detectable=st.booleans(),
        ),
        max_size=1,
    ))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        dead_channels=tuple(dead),
        latency_spikes=tuple(spikes),
        bit_flips=tuple(flips),
        stalls=tuple(stalls),
    )


def _fault_outcome(exc: Exception) -> tuple:
    return (type(exc).__name__, str(exc), getattr(exc, "victim", None))


def _resilient_run(graph, fault_plan, oracle: bool):
    """One resilient pagerank run; returns ``(outcome, rng states)``.

    The injector RNG state is recorded after every timing pass, raising
    or not, so the two paths are compared draw for draw.
    """
    states = []
    timing_pass = SystemSimulator.iteration_timing

    def recorded(self, num_vertices):
        try:
            return timing_pass(self, num_vertices)
        finally:
            states.append(self.injector.rng.bit_generator.state)

    framework = make_framework(buffer_vertices=256, num_pipelines=4)
    with mock.patch.object(SystemSimulator, "iteration_timing", recorded):
        with interpreted_oracle() if oracle else contextlib.nullcontext():
            try:
                run = framework.run_pagerank(
                    graph, max_iterations=8, fault_plan=fault_plan,
                    resilience=ResiliencePolicy(),
                )
            except ReproError as exc:
                return _fault_outcome(exc), states
    return (run_report_digest(run), run.health.to_dict()), states


#: 4 pipelines over this graph schedule as 3 Little + 1 Big.
PROPERTY_GRAPH = power_law_graph(1000, 8000, seed=3)

#: Partitions the hand-built plans below deal out to pipelines.
HAND_CONFIG = PipelineConfig(gather_buffer_vertices=32)
HAND_PARTITIONS = partition_graph(
    rmat_graph(9, 8, seed=5), HAND_CONFIG.partition_vertices
).nonempty()


@st.composite
def hand_plans(draw):
    """1-3 Little + 1-3 Big pipelines with 0-3 tasks each (so empty
    pipelines and multi-task pipelines both occur)."""
    num_little = draw(st.integers(1, 3))
    num_big = draw(st.integers(1, 3))
    parts = itertools.cycle(HAND_PARTITIONS)
    little = [
        [LittleTask(next(parts), 0.0)
         for _ in range(draw(st.integers(0, 3)))]
        for _ in range(num_little)
    ]
    big = [
        [BigTask([next(parts) for _ in range(draw(st.integers(1, 2)))], 0.0)
         for _ in range(draw(st.integers(0, 3)))]
        for _ in range(num_big)
    ]
    return SchedulingPlan(
        AcceleratorConfig(num_little, num_big, HAND_CONFIG), little, big
    )


class TestFaultPathEquivalence:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_resilient_runs_match_the_oracle(self, data):
        # Stalls (pinned and not), dead channels, overlapping spikes and
        # mid-run onsets; dead channels and pinned stalls also degrade
        # and re-plan.  Digests, health and every RNG draw must agree.
        fault_plan = data.draw(timing_fault_plans(num_channels=8))
        production = _resilient_run(PROPERTY_GRAPH, fault_plan, False)
        oracle = _resilient_run(PROPERTY_GRAPH, fault_plan, True)
        assert production[0] == oracle[0]
        assert production[1] == oracle[1]

    @given(
        plan=hand_plans(),
        data=st.data(),
        nows=st.lists(ONSETS, min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_timing_pass_matches_the_oracle(self, plan, data, nows):
        # One simulator per path over the same plan and fault plan; the
        # clock jumps between passes so windows open and close mid-run.
        channels = 2 * plan.accelerator.total_pipelines
        fault_plan = data.draw(timing_fault_plans(num_channels=channels))
        platform = get_platform("U280")
        sims = []
        for _ in range(2):
            injector = FaultInjector(fault_plan)
            injector.bind_topology(
                plan.accelerator.num_little, plan.accelerator.num_big
            )
            sims.append(SystemSimulator(plan, platform, injector=injector))
        production, oracle = sims
        for now in sorted(nows):
            outcomes = []
            for sim, patch in (
                (production, contextlib.nullcontext()),
                (oracle, interpreted_oracle()),
            ):
                sim.injector.now = now
                with patch:
                    try:
                        outcomes.append(sim.iteration_timing(1 << 9))
                    except ReproError as exc:
                        outcomes.append(_fault_outcome(exc))
            assert outcomes[0] == outcomes[1]
            assert (
                production.injector.rng.bit_generator.state
                == oracle.injector.rng.bit_generator.state
            )
            assert production.injector._context == oracle.injector._context

    def test_dead_channel_on_an_empty_pipeline_never_fires(self):
        # Pipeline little1 has no tasks: its dead channel keeps the
        # timing-fault gate open but no task ever reaches the hook.
        plan = SchedulingPlan(
            AcceleratorConfig(2, 1, HAND_CONFIG),
            [[LittleTask(HAND_PARTITIONS[0], 0.0)], []],
            [[BigTask([HAND_PARTITIONS[1]], 0.0)]],
        )
        fault_plan = FaultPlan(
            seed=1, dead_channels=(DeadChannelFault(channel=2),)
        )
        reports = []
        for oracle in (False, True):
            injector = FaultInjector(fault_plan)
            injector.bind_topology(2, 1)
            assert injector.timing_faults_active()
            sim = SystemSimulator(
                plan, get_platform("U280"), injector=injector
            )
            with interpreted_oracle() if oracle else contextlib.nullcontext():
                reports.append(sim.iteration_timing(1 << 9))
        assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# Slow: the full matrix + properties
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestFullMatrix:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app", ALL_APPS)
    @pytest.mark.parametrize("family", ("rmat", "powerlaw", "uniform"))
    def test_digest_identical(self, device, app, family):
        graph = family_graph(family, weighted=(app == "sssp"))
        compiled, interpreted = run_both_paths(app, device, graph)
        assert run_report_digest(compiled) == run_report_digest(interpreted)

    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app", ("pagerank", "wcc"))
    def test_fault_active_digest_identical(self, device, app):
        plan = FaultPlan(
            seed=23,
            latency_spikes=(
                LatencySpikeFault(
                    channel=1,
                    onset_cycle=0.0,
                    duration_cycles=1e4,
                    multiplier=6.0,
                ),
            ),
        )
        graph = family_graph("powerlaw")
        compiled, interpreted = run_both_paths(
            app, device, graph,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        assert run_report_digest(compiled) == run_report_digest(interpreted)


@pytest.mark.slow
class TestProperties:
    @given(gp=scheduling_plans(), params=channel_param_perturbations())
    @settings(max_examples=40, deadline=None)
    def test_compiled_plan_matches_interpreted_under_any_params(
        self, gp, params
    ):
        _graph, plan = gp
        channel = HbmChannelModel(params)
        cplan = compile_plan(plan)
        timings = evaluate_plan(cplan, channel)
        from repro.arch.big_pipeline import BigPipelineSim
        from repro.arch.little_pipeline import LittlePipelineSim

        little_sim = LittlePipelineSim(plan.accelerator.pipeline, channel)
        big_sim = BigPipelineSim(plan.accelerator.pipeline, channel)
        for pipe, tasks in enumerate(plan.little_tasks):
            for order, task in enumerate(tasks):
                node = cplan.little_by_pipe[pipe][order]
                expected, _ = little_sim.execute(task.partition)
                assert timings[node.index] == expected
        for pipe, tasks in enumerate(plan.big_tasks):
            for order, task in enumerate(tasks):
                node = cplan.big_by_pipe[pipe][order]
                expected, _ = big_sim.execute(task.partitions)
                assert timings[node.index] == expected
