"""Tests for the full-system simulator, iterated by the one run loop."""

import functools

import numpy as np
import pytest

from repro.apps.bfs import BreadthFirstSearch
from repro.apps.pagerank import PageRank
from repro.apps.reference import bfs_reference, pagerank_reference
from repro.core.system import SystemSimulator
from repro.faults.resilience import ResilientExecutor

from tests.helpers import make_framework


@pytest.fixture(scope="module")
def framework():
    return make_framework(num_pipelines=6)


@pytest.fixture(scope="module")
def pre(framework, small_rmat):
    return framework.preprocess(small_rmat)


def execute(framework, pre, app, **kwargs):
    """One run of ``app``, props in ``pre``'s relabelled vertex order."""
    executor = ResilientExecutor(pre, framework.platform, framework.channel)
    return executor.run(app, **kwargs)


@pytest.fixture(scope="module")
def runner(framework, pre):
    """Runs an app on the selected plan."""
    return functools.partial(execute, framework, pre)


@pytest.fixture()
def simulator(framework, pre):
    return SystemSimulator(pre.plan, framework.platform, framework.channel)


class TestFunctionalExecution:
    def test_pagerank_matches_reference(self, runner, dbg_rmat, small_rmat):
        app = PageRank(dbg_rmat.graph)
        run = runner(app, max_iterations=8)
        internal_ref = pagerank_reference(dbg_rmat.graph, iterations=run.iterations)
        assert np.max(np.abs(run.result - internal_ref)) < 1e-5

    def test_bfs_matches_reference(self, runner, dbg_rmat):
        app = BreadthFirstSearch(dbg_rmat.graph, root=0)
        run = runner(app)
        np.testing.assert_array_equal(
            run.props, bfs_reference(dbg_rmat.graph, 0)
        )

    def test_bfs_converges(self, runner, dbg_rmat):
        run = runner(BreadthFirstSearch(dbg_rmat.graph, root=0))
        assert run.converged

    def test_iteration_cap_respected(self, runner, dbg_rmat):
        run = runner(PageRank(dbg_rmat.graph), max_iterations=3)
        assert run.iterations <= 3


class TestTimingAccounting:
    def test_cycles_accumulate(self, runner, dbg_rmat):
        run = runner(PageRank(dbg_rmat.graph), max_iterations=4)
        per_iter = [r.total_cycles for r in run.iteration_reports]
        assert run.total_cycles == pytest.approx(sum(per_iter))

    def test_iteration_timing_cached(self, runner, dbg_rmat):
        run = runner(PageRank(dbg_rmat.graph), max_iterations=3)
        cycles = {r.total_cycles for r in run.iteration_reports}
        assert len(cycles) == 1  # same static plan every iteration

    def test_mteps_consistent(self, runner, dbg_rmat):
        run = runner(PageRank(dbg_rmat.graph), max_iterations=4)
        expected = run.processed_edges / run.total_seconds / 1e6
        assert run.mteps == pytest.approx(expected)

    def test_nonfunctional_mode_runs_exact_iterations(self, runner, dbg_rmat):
        run = runner(
            PageRank(dbg_rmat.graph), max_iterations=5, functional=False
        )
        assert run.iterations == 5
        assert run.props is None

    def test_frequency_from_resource_model(self, simulator):
        assert 210.0 < simulator.frequency_mhz <= 300.0

    def test_cluster_overlap_semantics(self, runner, dbg_rmat):
        run = runner(PageRank(dbg_rmat.graph), max_iterations=1)
        rep = run.iteration_reports[0]
        assert rep.total_cycles >= rep.cluster_cycles
        assert rep.total_cycles >= rep.apply_cycles


class TestHomogeneousPlans:
    @pytest.mark.parametrize("combo", [(6, 0), (0, 6)])
    def test_homogeneous_still_correct(
        self, framework, pre, dbg_rmat, combo
    ):
        forced = framework.preprocess(pre.prepared, forced_combo=combo)
        assert forced.plan.accelerator.num_little == combo[0]
        run = execute(
            framework, forced, BreadthFirstSearch(dbg_rmat.graph, root=0)
        )
        np.testing.assert_array_equal(
            run.props, bfs_reference(dbg_rmat.graph, 0)
        )
