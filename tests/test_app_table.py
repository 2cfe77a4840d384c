"""The one app table: how each application is launched and judged.

``ReGraph.run_app`` (driven by :mod:`repro.apps.registry`) is the only
launch path and :func:`repro.check.oracles.judge` the only judge; the
CLI, chaos cells, fleet jobs, served jobs, ``repro check`` and
selfcheck all go through them.  These tests pin both against the
explicit per-app code they replaced, and pin the root-range contract
every entry point now shares.
"""

import asyncio
import copy

import numpy as np
import pytest

from repro.apps.bfs import BreadthFirstSearch
from repro.apps.closeness import ClosenessCentrality
from repro.apps.delta_pagerank import DeltaPageRank
from repro.apps.pagerank import PageRank
from repro.apps.radii import RadiiEstimation
from repro.apps.registry import available_apps, get_app_spec
from repro.apps.sssp import SingleSourceShortestPaths
from repro.apps.wcc import WeaklyConnectedComponents
from repro.chaos.campaign import result_digest
from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs
from repro.chaos.oracles import result_violations
from repro.chaos.spec import CellSpec, GraphSpec
from repro.check.oracles import ORACLE_APPS, functional_oracle
from repro.cli import build_parser, main
from repro.errors import UserInputError
from repro.fleet.job import Job
from repro.graph.datasets import load_dataset
from repro.runtime.host import init_accelerator
from repro.serving.config import ServingConfig, TenantSpec
from repro.serving.gateway import ServingGateway

from tests.helpers import make_framework

ROOT = 3
SPEC = GraphSpec(kind="rmat", vertices=256, edges=2048, seed=5, weighted=True)

#: name -> (constructor, takes a root), written out by hand so the
#: registry is checked against it rather than against itself.
EXPLICIT = {
    "pagerank": (PageRank, False),
    "delta-pagerank": (DeltaPageRank, False),
    "bfs": (BreadthFirstSearch, True),
    "closeness": (ClosenessCentrality, True),
    "wcc": (WeaklyConnectedComponents, False),
    "sssp": (SingleSourceShortestPaths, True),
    "radii": (RadiiEstimation, False),
}


@pytest.fixture(scope="module")
def framework():
    return make_framework("U280", buffer_vertices=256, num_pipelines=4)


@pytest.fixture(scope="module")
def graph():
    return SPEC.build()


class TestLaunch:
    def test_table_covers_every_registered_app(self):
        assert sorted(EXPLICIT) == available_apps()

    @pytest.mark.parametrize("app", sorted(EXPLICIT))
    def test_run_app_matches_the_explicit_launch(self, framework, graph, app):
        factory, takes_root = EXPLICIT[app]
        pre = framework.preprocess(graph)
        internal = pre.to_internal_vertex(ROOT)
        explicit = framework.run(
            pre,
            (lambda g: factory(g, root=internal)) if takes_root else factory,
            max_iterations=12,
        )
        launched = framework.run_app(graph, app, root=ROOT, max_iterations=12)
        assert result_digest(launched) == result_digest(explicit)
        assert launched.total_cycles == explicit.total_cycles

    def test_only_wcc_runs_the_symmetrised_graph(self, graph):
        for app in available_apps():
            spec = get_app_spec(app)
            assert spec.symmetric == (app == "wcc")
            prepared = spec.prepare(graph)
            if spec.symmetric:
                assert prepared.num_edges == 2 * graph.num_edges
            else:
                assert prepared is graph

    def test_app_options_reach_the_constructor(self, framework, graph):
        loose = framework.run_pagerank(graph, tolerance=1e-2)
        tight = framework.run_pagerank(graph, tolerance=1e-9)
        assert loose.iterations < tight.iterations

    def test_unknown_app_is_a_user_error(self, framework, graph):
        with pytest.raises(UserInputError, match="unknown app"):
            framework.run_app(graph, "pagerange")


def _corrupt(app, run):
    bad = copy.copy(run)
    if app == "pagerank":
        bad.result = run.result.copy()
        bad.result[7] += 0.5
    elif app == "closeness":
        bad.result = run.result + 1e-6
    elif app == "wcc":
        bad.props = run.props.copy()
        bad.props[7] = run.props.max() + 1
    else:
        bad.props = run.props.copy()
        bad.props[7] += 1
    return bad


class _Corrupting:
    """A framework whose runs come back corrupted by :func:`_corrupt`."""

    def __init__(self, framework):
        self.framework = framework

    def run_app(self, graph, app, **kwargs):
        return _corrupt(app, self.framework.run_app(graph, app, **kwargs))


#: The chaos violation text of each corrupted run, captured from the
#: per-app oracles this judge replaced.  It feeds ``failure_digest``,
#: so it must not move by a byte.
CORRUPTED_TEXT = {
    "pagerank": "result: max |rank - ref| = 5.00e-01 > atol 3.83e-06",
    "bfs": "result: 1 BFS level mismatch(es) of 256",
    "closeness": "result: |closeness - ref| = 1.00e-06 > 1e-9",
    "sssp": "result: 1 SSSP distance mismatch(es) of 256",
    "wcc": "result: 39 WCC component mismatch(es) of 256",
}


class TestJudge:
    def test_judged_apps_are_one_tuple(self):
        from repro.chaos.generate import CAMPAIGN_APPS
        from repro.fleet.job import FLEET_APPS

        assert CAMPAIGN_APPS is ORACLE_APPS
        assert FLEET_APPS is ORACLE_APPS
        assert tuple(CORRUPTED_TEXT) == ORACLE_APPS

    @pytest.mark.parametrize("app", ORACLE_APPS)
    def test_corruption_text_and_verdicts(self, framework, graph, app):
        executed = get_app_spec(app).prepare(graph)
        run = framework.run_app(executed, app, root=ROOT, max_iterations=12)
        cell = CellSpec(
            cell_id="c", device="U280", app=app, graph=SPEC, root=ROOT
        )
        assert result_violations(cell, executed, run) == []
        assert result_violations(cell, executed, _corrupt(app, run)) == [
            CORRUPTED_TEXT[app]
        ]
        clean = functional_oracle(
            graph, app, framework, root=ROOT, max_iterations=12
        )
        assert clean.passed, clean
        corrupted = functional_oracle(
            graph, app, _Corrupting(framework), root=ROOT, max_iterations=12
        )
        assert not corrupted.passed
        assert "result: " + corrupted.detail == CORRUPTED_TEXT[app]


class TestRootRange:
    """An out-of-range root is bad input everywhere: typed, exit 2,
    and rejected before a gateway makes anything durable."""

    @pytest.mark.parametrize("root", [-1, 256])
    def test_to_internal_vertex(self, framework, graph, root):
        pre = framework.preprocess(graph)
        with pytest.raises(UserInputError, match=f"vertex {root} "):
            pre.to_internal_vertex(root)

    @pytest.mark.parametrize("root", [-1, 256])
    def test_accelerator_execute(self, graph, root):
        handle = init_accelerator("U280")
        handle.load_graph(graph)
        with pytest.raises(UserInputError):
            handle.execute("bfs", root=root)
        assert handle.execute("bfs", root=ROOT).converged

    @pytest.mark.parametrize("root", [-1, 256])
    def test_job_and_cell_construction(self, root):
        with pytest.raises(UserInputError, match="root"):
            Job(job_id="j", app="bfs", graph=SPEC, root=root)
        with pytest.raises(UserInputError, match="root"):
            CellSpec(
                cell_id="c", device="U280", app="bfs", graph=SPEC, root=root
            )
        with pytest.raises(UserInputError, match="root"):
            Job.from_dict({
                "job_id": "j", "app": "bfs", "graph": SPEC.to_dict(),
                "root": root,
            })

    @pytest.mark.parametrize("command", ["run", "faultsim"])
    def test_cli_exits_2(self, command, capsys):
        vertices = load_dataset("GG", scale=0.005, seed=1).num_vertices
        for root in (-1, vertices):
            code = main([
                command, "--dataset", "GG", "--scale", "0.005",
                "--buffer-vertices", "256", "--pipelines", "4",
                "--app", "bfs", "--root", str(root),
            ])
            assert code == 2
            assert f"vertex {root} " in capsys.readouterr().err

    def test_gateway_answers_400_and_stays_up(self):
        payloads = [
            job.to_dict()
            for job in generate_jobs(
                FleetSoakConfig(jobs=2, seed=7, replicas=("U280",))
            )
        ]
        poison = dict(payloads[0], job_id="poison", root=10**6)
        config = ServingConfig(
            tenants=(TenantSpec(name="acme", api_key="acme-key"),),
            fsync=False,
        )

        async def run():
            gateway = ServingGateway(config)
            try:
                with pytest.raises(UserInputError, match="root"):
                    await gateway.submit("acme-key", poison)
                assert gateway.store.job_count() == 0
                ack = await gateway.submit("acme-key", payloads[1])
                assert ack["status"] == "accepted"
                await gateway.drain()
                status = gateway.status(payloads[1]["job_id"])
                assert status["status"] == "completed"
            finally:
                gateway.close()

        asyncio.run(run())


class TestIterationCap:
    """A cap below one is bad input on every run entry point: it would
    "complete" a run that never iterated."""

    @pytest.mark.parametrize("cap", [0, -3])
    def test_run_app_rejects(self, framework, graph, cap):
        with pytest.raises(UserInputError, match="max_iterations"):
            framework.run_app(graph, "pagerank", max_iterations=cap)

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("command", ["run", "faultsim"])
    def test_cli_exits_2(self, command, cap, capsys):
        code = main([
            command, "--dataset", "GG", "--scale", "0.005",
            "--buffer-vertices", "256", "--pipelines", "4",
            "--iterations", cap,
        ])
        assert code == 2
        assert "max_iterations" in capsys.readouterr().err


class TestJobsFlag:
    """``--jobs`` exists only where a worker pool reads it."""

    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "GG"],
        ["sweep", "--dataset", "GG"],
        ["check", "--quick"],
        ["fleet", "run"],
    ])
    def test_rejected_where_nothing_reads_it(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["chaos", "run"]])
    def test_accepted_where_workers_run(self, command):
        args = build_parser().parse_args(command + ["--jobs", "2"])
        assert args.jobs == 2

    def test_chaos_run_rejects_zero_workers(self, capsys):
        assert main(["chaos", "run", "--jobs", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
