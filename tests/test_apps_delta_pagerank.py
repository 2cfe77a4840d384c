"""Tests for incremental (delta) PageRank."""

import numpy as np
import pytest

from repro.apps.delta_pagerank import DeltaPageRank
from repro.apps.reference import pagerank_reference
from repro.graph.generators import erdos_renyi_graph


def _gas_run(app, max_iterations=200):
    graph = app.graph
    props = app.init_props()
    for i in range(max_iterations):
        acc = np.zeros(graph.num_vertices, dtype=np.int64)
        updates = app.scatter(props[graph.src], None)
        app.gather_at(acc, graph.dst, updates)
        new_props = app.apply(props, acc)
        if app.has_converged(props, new_props, i + 1):
            return new_props
        props = new_props
    return props


class TestDeltaPageRank:
    def test_converges_to_classic_fixpoint(self, small_uniform):
        app = DeltaPageRank(small_uniform, tolerance=1e-9)
        props = _gas_run(app)
        ranks = app.finalize(props)
        ref = pagerank_reference(small_uniform, iterations=100)
        assert np.max(np.abs(ranks - ref)) < 1e-4

    def test_on_skewed_graph(self, small_rmat):
        app = DeltaPageRank(small_rmat, tolerance=1e-9)
        ranks = app.finalize(_gas_run(app))
        ref = pagerank_reference(small_rmat, iterations=100)
        assert np.max(np.abs(ranks - ref)) < 1e-3

    def test_pending_mass_decays_geometrically(self):
        g = erdos_renyi_graph(500, 3000, seed=1)
        app = DeltaPageRank(g, tolerance=1e-9)
        props = app.init_props()
        peaks = []
        for _ in range(20):
            acc = np.zeros(g.num_vertices, dtype=np.int64)
            app.gather_at(acc, g.dst, app.scatter(props[g.src], None))
            props = app.apply(props, acc)
            peaks.append(int((np.abs(props) * app.divisor).max()))
        # After the initial mixing, pending deltas shrink by ~damping
        # per sweep.
        assert peaks[-1] < peaks[2] * 0.2

    def test_traffic_quantises_to_zero_at_convergence(self):
        g = erdos_renyi_graph(300, 1500, seed=4)
        app = DeltaPageRank(g, tolerance=1e-9)
        props = _gas_run(app, max_iterations=300)
        # Fixed-point quantisation eventually zeroes settled deltas.
        assert app.traffic_fraction(props) < 1.0

    def test_converged_flag_via_tolerance(self):
        g = erdos_renyi_graph(200, 1200, seed=2)
        app = DeltaPageRank(g, tolerance=1e-4)
        props = _gas_run(app, max_iterations=100)
        assert app.has_converged(None, props, 0)

    def test_on_simulated_system(self, small_rmat):
        from tests.helpers import make_framework

        framework = make_framework(num_pipelines=4)
        run = framework.run(
            small_rmat,
            lambda g: DeltaPageRank(g, tolerance=1e-9),
            max_iterations=100,
        )
        ref = pagerank_reference(small_rmat, iterations=100)
        assert np.max(np.abs(run.result - ref)) < 1e-3
        assert run.converged
