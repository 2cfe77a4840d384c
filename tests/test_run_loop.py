"""One run loop: every run iterates in the resilient executor.

``ReGraph.run`` has one path: fault-free runs go through
:meth:`~repro.faults.resilience.ResilientExecutor.run` like faulted ones.
The loop is checked against a frozen copy of the former fault-free loop
(:mod:`tests.frozen_plain_loop`): on every fault-free run the report
digests agree bit for bit and the health report is clean.  The slow test
repeats the differential on the full-size ``repro run`` and analytics
inputs.

A vertex-heavy graph, whose Apply/Writer stream outgrows the slacked
Eq. 1-4 makespan, completes fault-free through ``run_app``, the fleet
and ``repro run``: the watchdog budget never falls below that stream.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import available_apps, get_app_spec
from repro.arch.config import PipelineConfig
from repro.chaos.spec import GraphSpec
from repro.core.framework import ReGraph
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy

from tests.frozen_plain_loop import frozen_run
from tests.strategies import STRATEGY_CONFIG, graphs
from tests.test_compiled_equivalence import DEVICES, run_report_digest


def assert_clean(health, num_pipelines):
    """No fault, retry, re-plan or watchdog trip; every breaker closed."""
    assert health.fault_count == 0
    assert health.retries == 0
    assert health.replans == 0
    assert health.watchdog_trips == 0
    assert health.checkpoint_restores == 0
    assert health.overhead_cycles == 0.0
    assert health.breaker_trips == 0
    assert health.degraded_pipelines == []
    assert health.initial_label == health.final_label
    assert len(health.channel_breakers) == 2 * num_pipelines
    assert all(
        state["state"] == "closed" and state["failures"] == 0
        for state in health.channel_breakers.values()
    )


def assert_one_loop_matches_frozen(
    framework, pre, build, max_iterations, functional
):
    """``ReGraph.run`` against the frozen loop on the same plan."""
    run = framework.run(
        pre, build, max_iterations=max_iterations, functional=functional
    )
    frozen = frozen_run(
        pre, framework, build(pre.graph),
        max_iterations=max_iterations, functional=functional,
    )
    if frozen.props is not None:
        frozen.props = pre.to_original_order(frozen.props)
    assert run_report_digest(run) == run_report_digest(frozen)
    assert run.final_plan is frozen.final_plan
    assert_clean(run.health, pre.plan.accelerator.total_pipelines)


@functools.cache
def strategy_framework(device: str, num_pipelines: int) -> ReGraph:
    return ReGraph(
        device, pipeline=STRATEGY_CONFIG, num_pipelines=num_pipelines
    )


@st.composite
def loop_cases(draw):
    """``(framework, pre, app builder, cap, functional)`` over every
    registered app, both devices and the strategies' graphs."""
    spec = get_app_spec(draw(st.sampled_from(available_apps())))
    weighted = spec.needs_weights or draw(st.booleans())
    graph = spec.prepare(draw(graphs(weighted=weighted)))
    framework = strategy_framework(
        draw(st.sampled_from(DEVICES)), draw(st.integers(1, 4))
    )
    pre = framework.preprocess(graph)
    root = pre.to_internal_vertex(
        draw(st.integers(0, graph.num_vertices - 1))
    )
    cap = draw(st.one_of(st.none(), st.integers(1, 12)))
    functional = draw(st.booleans())
    return (
        framework, pre, lambda g: spec.build(g, root=root), cap, functional
    )


class TestOneLoopMatchesTheFrozenLoop:
    @settings(max_examples=40, deadline=None)
    @given(loop_cases())
    def test_fault_free_runs_are_bit_identical_and_clean(self, case):
        assert_one_loop_matches_frozen(*case)

    def test_empty_plan_and_default_policy_are_the_defaults(
        self, small_rmat
    ):
        framework = ReGraph(
            "U280", pipeline=PipelineConfig(gather_buffer_vertices=512)
        )
        pre = framework.preprocess(small_rmat)
        default = framework.run_bfs(pre, root=3)
        explicit = framework.run_bfs(
            pre, root=3, fault_plan=FaultPlan(),
            resilience=ResiliencePolicy(),
        )
        assert run_report_digest(default) == run_report_digest(explicit)
        assert default.health.to_dict() == explicit.health.to_dict()


#: The full-size ``repro run`` cases (dataset, scale, device, app) and
#: analytics graphs (dataset, scale; U280, every analytics app, run to
#: convergence) of the benchmark's cli_run and analytics workloads.
CLI_RUN_CASES = (
    ("R21", 1 / 64, "U280", "pagerank"),
    ("TC", 1 / 16, "U50", "pagerank"),
    ("R21", 1 / 64, "U50", "bfs"),
    ("TC", 1 / 16, "U280", "bfs"),
    ("TC", 1 / 16, "U50", "closeness"),
)
ANALYTICS_GRAPHS = (
    ("R19", 1 / 64), ("HD", 1 / 64), ("AM", 1 / 16), ("GG", 1 / 16),
    ("PK", 1 / 128),
)
ANALYTICS_APPS = ("pagerank", "delta-pagerank", "bfs", "closeness", "wcc")
BUFFER_VERTICES = 2048


def full_size_case(dataset, scale, device):
    """``(framework, pre, hub)`` of one full-size input, seed 1."""
    from repro.graph.datasets import load_dataset

    graph = load_dataset(dataset, scale=scale, seed=1)
    framework = ReGraph(
        device,
        pipeline=PipelineConfig(gather_buffer_vertices=BUFFER_VERTICES),
    )
    pre = framework.preprocess(graph)
    hub = pre.to_internal_vertex(int(np.argmax(graph.out_degrees())))
    return framework, pre, hub


@pytest.mark.slow
@pytest.mark.parametrize("dataset,scale,device,app", CLI_RUN_CASES)
def test_full_size_cli_run_inputs_match_the_frozen_loop(
    dataset, scale, device, app
):
    framework, pre, hub = full_size_case(dataset, scale, device)
    spec = get_app_spec(app)
    assert_one_loop_matches_frozen(
        framework, pre, lambda g: spec.build(g, root=hub), 10, True
    )


@pytest.mark.slow
@pytest.mark.parametrize("dataset,scale", ANALYTICS_GRAPHS)
def test_full_size_analytics_inputs_match_the_frozen_loop(dataset, scale):
    framework, pre, hub = full_size_case(dataset, scale, "U280")
    for app in ANALYTICS_APPS:
        spec = get_app_spec(app)
        assert_one_loop_matches_frozen(
            framework, pre, lambda g: spec.build(g, root=hub), None, True
        )


# ----------------------------------------------------------------------
# The watchdog budget covers the Apply/Writer stream
# ----------------------------------------------------------------------
#: 3.2M vertices and 16 edges: on U280 a clean iteration's Apply/Writer
#: stream outlasts the default slack times the Eq. 1-4 pipeline makespan.
VERTEX_HEAVY = GraphSpec("uniform", 3_200_000, 16, 1)


@pytest.fixture(scope="module")
def vertex_heavy():
    return VERTEX_HEAVY.build()


class TestVertexHeavyGraph:
    def test_run_app_completes_with_and_without_an_empty_plan(
        self, vertex_heavy
    ):
        framework = ReGraph("U280")
        pre = framework.preprocess(vertex_heavy)
        plain = framework.run_app(pre, "bfs")
        empty = framework.run_app(pre, "bfs", fault_plan=FaultPlan())
        # The slacked pipeline makespan alone is below a clean iteration.
        assert ResiliencePolicy().watchdog_budget(
            pre.plan.estimated_makespan, 0.0
        ) < plain.iteration_reports[0].total_cycles
        assert plain.converged
        assert run_report_digest(plain) == run_report_digest(empty)
        assert plain.health.to_dict() == empty.health.to_dict()
        assert_clean(plain.health, pre.plan.accelerator.total_pipelines)

    def test_fleet_job_without_a_fault_plan_completes(self):
        from repro.fleet import FleetRuntime, Job, make_replica

        job = Job(job_id="vh", app="bfs", graph=VERTEX_HEAVY)
        report = FleetRuntime([make_replica("r0", "U280")]).run([job])
        assert report.jobs[0].status == "completed"

    def test_repro_run_completes(self, tmp_path, capsys):
        from repro.cli import main

        edges = tmp_path / "vertex_heavy.el"
        src, dst, _ = VERTEX_HEAVY.build().stored_edges
        edges.write_text(
            f"# vertices: {VERTEX_HEAVY.vertices}\n"
            + "".join(f"{s} {d}\n" for s, d in zip(src, dst))
        )
        code = main([
            "run", "--edge-list", str(edges), "--platform", "U280",
            "--app", "bfs",
        ])
        assert code == 0
        assert "iterations: 1 (converged)" in capsys.readouterr().out
