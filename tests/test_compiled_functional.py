"""Differential harness: compiled functional pass + trace synthesis.

The compiled functional engine batches whole partition groups through
the apps' UDFs; its contract is the same as the compiled timing core's —
*bit-identity* with the interpreted oracle, not approximate agreement.
Every RunReport digest and every final property array must match the
per-task interpreted walk exactly, across both devices, all five apps
and all graph families; synthesized traces must carry events equal to
the interpreted re-simulation and pass the conformance invariants
verbatim; placement what-if probes must decide exactly as the full
evaluation oracle does.

Tier-1 keeps a representative slice; the ``slow`` marker carries the
full device × app × family sweep plus hypothesis properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compiled import (
    compiled_stats,
    configure_compiled,
    functional_engine,
    lower_functional_plan,
    reset_compiled_stats,
)
from repro.arch.trace import trace_plan
from repro.check.invariants import check_trace
from repro.core.framework import ReGraph
from repro.faults import BitFlipFault, FaultInjector, FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.hbm.channel import HbmChannelModel

from tests.helpers import make_framework, make_pipeline_config
from tests.strategies import channel_param_perturbations
from tests.test_compiled_equivalence import (
    ALL_APPS,
    DEVICES,
    dispatch,
    family_graph,
    run_both_paths,
    run_report_digest,
)


@pytest.fixture(autouse=True)
def fresh_state():
    """Each test starts with compiled ON and leaves the process-global
    switch at its default."""
    configure_compiled(True)
    reset_compiled_stats()
    yield
    configure_compiled(True)
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

    def test_routing_counters_attribute_each_pass(self):
        graph = family_graph("rmat")
        framework = make_framework()
        run = framework.run_pagerank(graph, max_iterations=5)
        stats = compiled_stats()
        assert stats["functional_plans"] == 1
        assert stats["functional_iterations"] == run.iterations
        assert stats["functional_batches"] >= run.iterations
        assert stats["functional_fallbacks"] == 0
        configure_compiled(False)
        framework.run_pagerank(graph, max_iterations=3)
        assert compiled_stats()["functional_fallbacks"] > 0

    def test_structure_lowered_once_and_reused(self):
        framework = make_framework()
        pre = framework.preprocess(family_graph("rmat"))
        engine = functional_engine(pre.plan)
        assert functional_engine(pre.plan) is engine
        fplan = lower_functional_plan(pre.plan)
        planned_tasks = sum(
            len(t) for t in pre.plan.little_tasks
        ) + sum(len(t) for t in pre.plan.big_tasks)
        assert len(fplan.nodes) == planned_tasks
        assert sum(n.num_edges for n in fplan.nodes) == (
            pre.plan.total_edges()
        )


class TestFaultFallback:
    def test_active_bit_flip_routes_interpreted_on_both_paths(self):
        # An open bit-flip window owns the injector RNG, so compiled and
        # interpreted runs must both take the interpreted functional
        # walk — and therefore corrupt, retry and converge identically.
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

    def test_fallback_counter_increments_while_fault_active(self):
        plan = FaultPlan(
            seed=13,
            bit_flips=(BitFlipFault(probability=0.05),),
        )
        graph = family_graph("rmat")
        framework = make_framework()
        framework.run_pagerank(
            graph, max_iterations=4,
            fault_plan=plan, resilience=ResiliencePolicy(),
        )
        stats = compiled_stats()
        assert stats["functional_fallbacks"] > 0

    def test_fault_active_run_times_each_task_once_per_pass(
        self, monkeypatch
    ):
        # Pass-count guard: with a timing fault and a functional fault
        # both active, every timing pass is the interpreted walk (one
        # _compute_timing per task) and the interpreted functional walk
        # re-times nothing.
        from repro.apps.pagerank import PageRank
        from repro.arch.big_pipeline import BigPipelineSim
        from repro.arch.little_pipeline import LittlePipelineSim
        from repro.core.system import SystemSimulator
        from repro.faults import LatencySpikeFault

        counts = {"timing": 0, "functional": 0}
        phase = ["idle"]
        passes = {"timing": 0, "functional": 0}

        def counted(cls):
            original = cls._compute_timing

            def wrapper(self, *args, **kwargs):
                if phase[0] in counts:
                    counts[phase[0]] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "_compute_timing", wrapper)

        def in_phase(name, method):
            original = getattr(SystemSimulator, method)

            def wrapper(self, *args, **kwargs):
                phase[0] = name
                passes[name] += 1
                try:
                    return original(self, *args, **kwargs)
                finally:
                    phase[0] = "idle"

            monkeypatch.setattr(SystemSimulator, method, wrapper)

        counted(LittlePipelineSim)
        counted(BigPipelineSim)
        in_phase("timing", "_compute_timing")
        in_phase("functional", "_interpreted_functional")

        framework = make_framework()
        pre = framework.preprocess(family_graph("powerlaw"))
        injector = FaultInjector(FaultPlan(
            seed=5,
            latency_spikes=(LatencySpikeFault(
                channel=0, onset_cycle=0.0, duration_cycles=1e12,
                multiplier=4.0,
            ),),
            bit_flips=(BitFlipFault(probability=0.05, detectable=False),),
        ))
        injector.bind_topology(
            len(pre.plan.little_tasks), len(pre.plan.big_tasks)
        )
        sim = SystemSimulator(
            pre.plan, framework.platform, framework.channel,
            injector=injector,
        )
        run = sim.run(PageRank(pre.graph), max_iterations=4)
        tasks = sum(len(t) for t in pre.plan.little_tasks) + sum(
            len(t) for t in pre.plan.big_tasks
        )
        assert pre.plan.little_tasks and pre.plan.big_tasks
        assert passes["timing"] == run.iterations
        assert passes["functional"] == run.iterations
        assert counts["timing"] == tasks * run.iterations
        assert counts["functional"] == 0

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
        configure_compiled(False)
        interpreted = trace_plan(pre.plan, channel)
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
        assert compiled_stats()["traces_synthesized"] == 1
        configure_compiled(False)
        trace_plan(pre.plan, channel)
        stats = compiled_stats()
        assert stats["traces_synthesized"] == 1
        assert stats["traces_interpreted"] == 1

    def test_faulty_channel_always_interpreted(self):
        # A live fault site makes task timings depend on mutable
        # injector state; synthesizing from the compiled memo would
        # freeze that state, so such channels must re-simulate.
        _, pre = self._plan_and_framework()
        injector = FaultInjector(FaultPlan(seed=3))
        channel = HbmChannelModel(fault_site=injector)
        trace_plan(pre.plan, channel)
        stats = compiled_stats()
        assert stats["traces_synthesized"] == 0
        assert stats["traces_interpreted"] == 1


class TestPlacementProbes:
    def test_incremental_decisions_match_full_oracle_on_soak(self):
        from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak
        from repro.fleet.runtime import FleetPolicy
        from repro.perf import PerfConfig

        config = FleetSoakConfig(seed=7, jobs=6)
        results = {}
        for mode in ("incremental", "full"):
            results[mode] = run_fleet_soak(
                config,
                policy=FleetPolicy(placement_probe_mode=mode),
                perf=PerfConfig(workers=1),
            )
        incremental, full = results["incremental"], results["full"]
        assert incremental.report.assignment_log() == (
            full.report.assignment_log()
        )
        assert incremental.report.digest() == full.report.digest()
        probes = incremental.perf["placement"]
        assert probes["probes"] > 0
        assert probes["evaluator_builds"] > 0
        assert probes["full_evaluations"] == 0
        assert full.perf["placement"]["full_evaluations"] > 0

    def test_param_change_dirties_incrementally_and_agrees_with_full(self):
        from repro.fleet.job import Job
        from repro.fleet.placement import PlacementEngine
        from repro.fleet.replica import make_replica
        from repro.chaos.spec import GraphSpec
        from repro.hbm.channel import HbmTimingParams

        job = Job(
            job_id="j0", app="pagerank",
            graph=GraphSpec(
                kind="rmat", vertices=256, edges=2048, seed=3
            ),
            max_iterations=10,
        )
        graph = job.graph.build()
        slow_params = HbmTimingParams(min_latency=48.0, max_latency=112.0)
        replicas = []
        for rid, params in (("r0", None), ("r1", slow_params)):
            replica = make_replica(rid, "U280")
            if params is not None:
                replica.handle.framework.channel = HbmChannelModel(params)
            replicas.append(replica)

        engines = {
            mode: PlacementEngine(probe_mode=mode)
            for mode in ("incremental", "full")
        }
        for replica in replicas:
            predictions = {
                mode: engine.predicted_seconds(replica, job, graph)
                for mode, engine in engines.items()
            }
            assert predictions["incremental"] == predictions["full"]
            assert predictions["incremental"] > 0
        stats = engines["incremental"].probe_stats
        # One kept evaluator; probing the slow replica dirtied only the
        # non-empty nodes instead of building or cold-evaluating again.
        assert stats["evaluator_builds"] == 1
        assert stats["incremental_refreshes"] == 1

    def test_probe_mode_validated(self):
        from repro.errors import UserInputError
        from repro.fleet.placement import PlacementEngine
        from repro.fleet.runtime import FleetPolicy

        with pytest.raises(UserInputError):
            PlacementEngine(probe_mode="bogus")
        with pytest.raises(UserInputError):
            FleetPolicy(placement_probe_mode="bogus")


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
class TestProperties:
    @given(params=channel_param_perturbations())
    @settings(max_examples=15, deadline=None)
    def test_digest_identical_under_any_channel_params(self, params):
        # Channel parameters steer timing, never the functional result;
        # both must still agree bit-for-bit between the paths.
        graph = family_graph("rmat")
        reports = []
        for compiled in (True, False):
            configure_compiled(compiled)
            framework = ReGraph(
                "U280",
                pipeline=make_pipeline_config(),
                channel=HbmChannelModel(params),
            )
            reports.append(
                dispatch(framework, "pagerank", graph, max_iterations=6)
            )
        configure_compiled(True)
        assert run_report_digest(reports[0]) == run_report_digest(reports[1])
        np.testing.assert_array_equal(reports[0].props, reports[1].props)

    @given(params=channel_param_perturbations())
    @settings(max_examples=15, deadline=None)
    def test_synthesized_trace_equal_under_any_channel_params(self, params):
        framework = make_framework()
        pre = framework.preprocess(family_graph("uniform"))
        channel = HbmChannelModel(params)
        synthesized = trace_plan(pre.plan, channel)
        configure_compiled(False)
        interpreted = trace_plan(pre.plan, channel)
        assert synthesized.events == interpreted.events
