"""Tests for the SpMV and radii-estimation extension apps."""

import numpy as np
import pytest

from repro.apps.radii import RadiiEstimation, radii_reference
from repro.apps.spmv import SpMV, spmv_reference
from repro.graph.generators import erdos_renyi_graph, rmat_graph


def _gas_run(app, max_iterations=200):
    graph = app.graph
    props = app.init_props()
    for i in range(max_iterations):
        acc = np.full(
            graph.num_vertices, app.gather_identity, dtype=app.prop_dtype
        )
        weights = graph.weights if app.uses_weights else None
        updates = app.scatter(props[graph.src], weights)
        app.gather_at(acc, graph.dst, updates)
        new_props = app.apply(props, acc)
        if app.has_converged(props, new_props, i + 1):
            return new_props
        props = new_props
    return props


class TestSpmv:
    def test_matches_dense_reference_unweighted(self):
        g = erdos_renyi_graph(300, 3000, seed=0)
        rng = np.random.default_rng(1)
        x = rng.random(300)
        app = SpMV(g, x)
        y = app.finalize(_gas_run(app))
        np.testing.assert_allclose(y, spmv_reference(g, x), atol=1e-5)

    def test_weighted_harness_and_framework_match_reference(self):
        # The scatter multiplies by the edge weight, so the app must
        # declare it consumes weights: a GAS harness that passes
        # weights only to ``uses_weights`` apps would otherwise drop them.
        from tests.helpers import make_framework

        g = erdos_renyi_graph(300, 3000, seed=0)
        rng = np.random.default_rng(1)
        g = g.with_weights(rng.random(g.num_edges))
        x = rng.random(300)
        expected = spmv_reference(g, x)
        assert SpMV.uses_weights
        harness = SpMV(g, x).finalize(_gas_run(SpMV(g, x)))
        np.testing.assert_allclose(harness, expected, atol=1e-4)

        framework = make_framework()
        pre = framework.preprocess(g)
        internal_x = np.empty_like(x)
        internal_x[pre.dbg.mapping] = x
        run = framework.run(pre, lambda graph: SpMV(graph, internal_x))
        np.testing.assert_allclose(run.result, expected, atol=1e-4)

    def test_single_sweep(self):
        g = erdos_renyi_graph(100, 500, seed=0)
        app = SpMV(g, np.ones(100))
        assert app.has_converged(None, None, 1)

    def test_wrong_vector_shape_raises(self):
        g = erdos_renyi_graph(100, 500, seed=0)
        with pytest.raises(ValueError):
            SpMV(g, np.ones(5))

    def test_zero_vector_gives_zero(self):
        g = erdos_renyi_graph(100, 500, seed=0)
        app = SpMV(g, np.zeros(100))
        y = app.finalize(_gas_run(app))
        assert np.all(y == 0)

    def test_on_simulated_system(self, small_rmat):
        from tests.helpers import make_framework

        framework = make_framework(num_pipelines=4)
        pre = framework.preprocess(small_rmat)
        rng = np.random.default_rng(2)
        x = rng.random(small_rmat.num_vertices)
        internal_x = np.empty_like(x)
        internal_x[pre.dbg.mapping] = x
        run = framework.run(
            pre, lambda g: SpMV(g, internal_x), max_iterations=1
        )
        np.testing.assert_allclose(
            run.result, spmv_reference(small_rmat, x), atol=1e-4
        )


class TestRadii:
    def test_bitmask_init(self):
        g = erdos_renyi_graph(100, 1000, seed=0)
        app = RadiiEstimation(g, num_sources=8, seed=1)
        props = app.init_props()
        assert np.count_nonzero(props) == 8

    def test_invalid_source_count(self):
        g = erdos_renyi_graph(10, 20, seed=0)
        with pytest.raises(ValueError):
            RadiiEstimation(g, num_sources=65)

    def test_diameter_matches_reference(self):
        g = rmat_graph(9, 8, seed=5)
        app = RadiiEstimation(g, num_sources=16, seed=2)
        result = app.finalize(_gas_run(app, max_iterations=100))
        reference = radii_reference(g, app.sources)
        assert result["diameter_estimate"] == reference

    def test_radius_not_exceeding_diameter(self):
        g = rmat_graph(9, 8, seed=7)
        app = RadiiEstimation(g, num_sources=16, seed=3)
        result = app.finalize(_gas_run(app, max_iterations=100))
        assert result["radius_estimate"] <= result["diameter_estimate"]

    def test_gather_is_bitwise_or(self):
        g = erdos_renyi_graph(10, 20, seed=0)
        app = RadiiEstimation(g, num_sources=4)
        out = app.gather(np.array([0b0011]), np.array([0b0101]))
        assert out[0] == 0b0111

    def test_reached_count_positive(self):
        g = rmat_graph(9, 8, seed=1)
        app = RadiiEstimation(g, num_sources=8, seed=1)
        result = app.finalize(_gas_run(app, max_iterations=100))
        assert result["reached"] >= 8
