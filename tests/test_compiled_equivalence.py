"""Differential equivalence harness: compiled core vs interpreted oracle.

The compiled simulation core's contract is *bit-identity*, not
approximate agreement: every ``PartitionTiming``, every per-iteration
cycle list and every ``RunReport`` digest must match the interpreted
reference path exactly, across both devices, all five apps, all graph
families, with and without fault plans attached.  Anything weaker would
let the compiled path drift away from the oracle that every other
subsystem (conformance, chaos, fleet) is validated against.

Tier-1 keeps a representative slice of the matrix; the ``slow`` marker
carries the full device × app × graph-family sweep plus hypothesis
properties over random plans and channel-parameter perturbations.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compiled import (
    CompiledEngine,
    compile_plan,
    compiled_stats,
    configure_compiled,
    evaluate_plan,
    plan_engine,
)
from repro.core.system import SystemSimulator
from repro.faults import FaultPlan, LatencySpikeFault, PipelineStallFault
from repro.faults.resilience import ResiliencePolicy
from repro.graph.generators import (
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)
from repro.hbm.channel import HbmChannelModel

from tests.helpers import make_framework
from tests.strategies import (
    channel_param_perturbations,
    compiled_specs,
    scheduling_plans,
)

ALL_APPS = ("pagerank", "bfs", "closeness", "sssp", "wcc")
DEVICES = ("U280", "U50")


@pytest.fixture(autouse=True)
def fresh_state():
    """Each test starts with compiled ON and leaves the process-global
    switch at its default."""
    configure_compiled(True)
    yield
    configure_compiled(True)


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


def run_both_paths(app, device, graph, **kwargs):
    """One run per path, each on a fresh framework; returns both reports."""
    reports = []
    for compiled in (True, False):
        configure_compiled(compiled)
        framework = make_framework(platform=device)
        reports.append(
            dispatch(framework, app, graph, max_iterations=8, **kwargs)
        )
    configure_compiled(True)
    return reports


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
        # An active latency spike forces faulty iterations through the
        # interpreted walk on both paths; clean iterations before/after
        # still take the compiled engine when it is on.  The reports —
        # including health accounting — must not notice the difference.
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
        # Stall triggering consumes injector randomness; if the compiled
        # path consumed (or skipped) draws the interpreted path makes,
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


class TestSpecDigest:
    @given(spec_a=compiled_specs(), spec_b=compiled_specs())
    @settings(max_examples=60, deadline=None)
    def test_compiled_spec_digest_is_injective(self, spec_a, spec_b):
        # Two distinct device/combo/channel-param bindings must never
        # share a digest, or one spec's compiled evaluation could be
        # reported (or reused) as another's.
        if spec_a == spec_b:
            assert spec_a.digest() == spec_b.digest()
        else:
            assert spec_a.digest() != spec_b.digest()


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

    @given(
        gp=scheduling_plans(),
        params_a=channel_param_perturbations(),
        params_b=channel_param_perturbations(),
    )
    @settings(max_examples=25, deadline=None)
    def test_incremental_param_switch_equals_cold_evaluation(
        self, gp, params_a, params_b
    ):
        from repro.compiled import IncrementalEvaluator

        _graph, plan = gp
        inc = IncrementalEvaluator(plan, params=params_a)
        inc.set_channel_params(params_b)
        cold = IncrementalEvaluator(plan, params=params_b)
        assert inc.timings == cold.timings
