"""Tests for the synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coo import Graph
from repro.graph.generators import (
    _inverse_cdf_sampler,
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)


def rmat_reference(scale, edge_factor, a, b, c, seed):
    """The int64, allocate-per-level form of the RMAT descent."""
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(num_edges)
        src_bit = r >= a + b
        dst_bit = (r >= a) & (r < a + b) | (r >= a + b + c)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    perm = rng.permutation(num_vertices)
    return Graph(num_vertices, perm[src], perm[dst])


class TestRmat:
    @pytest.mark.parametrize(
        "scale, edge_factor, a, b, c, seed",
        [
            (1, 4, 0.57, 0.19, 0.19, 0),
            (6, 8, 0.57, 0.19, 0.19, 3),
            (10, 16, 0.57, 0.19, 0.19, 11),
            (11, 4, 0.25, 0.25, 0.25, 5),
            (9, 2, 0.45, 0.15, 0.15, 42),
        ],
    )
    def test_matches_int64_reference(self, scale, edge_factor, a, b, c, seed):
        g = rmat_graph(scale, edge_factor, a=a, b=b, c=c, seed=seed)
        ref = rmat_reference(scale, edge_factor, a, b, c, seed)
        np.testing.assert_array_equal(g.src, ref.src)
        np.testing.assert_array_equal(g.dst, ref.dst)

    def test_scale_beyond_32_bit_ids_raises(self):
        with pytest.raises(ValueError, match="32-bit"):
            rmat_graph(33)

    def test_sizes(self):
        g = rmat_graph(10, 8, seed=0)
        assert g.num_vertices == 1024
        assert g.num_edges == 1024 * 8

    def test_deterministic_in_seed(self):
        a = rmat_graph(8, 4, seed=42)
        b = rmat_graph(8, 4, seed=42)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = rmat_graph(8, 4, seed=1)
        b = rmat_graph(8, 4, seed=2)
        assert not np.array_equal(a.dst, b.dst)

    def test_skewed_degree_distribution(self):
        g = rmat_graph(12, 16, seed=0)
        deg = np.sort(g.in_degrees())[::-1]
        top1pct = deg[: len(deg) // 100].sum()
        # RMAT concentrates a large share of edges on few vertices.
        assert top1pct / g.num_edges > 0.10

    def test_more_skewed_than_uniform(self):
        r = rmat_graph(11, 8, seed=0)
        u = erdos_renyi_graph(2048, 2048 * 8, seed=0)
        assert r.in_degrees().max() > 2 * u.in_degrees().max()

    def test_invalid_probabilities_raise(self):
        with pytest.raises(ValueError):
            rmat_graph(8, 4, a=0.6, b=0.3, c=0.2)

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            rmat_graph(0, 4)


def power_law_cdf(num_vertices, exponent):
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    pmf = ranks ** (-exponent)
    pmf /= pmf.sum()
    return np.cumsum(pmf)


def power_law_reference(num_vertices, num_edges, exponent, seed,
                        undirected):
    """The binary-search form of the power-law sampler."""
    rng = np.random.default_rng(seed)
    n_draw = num_edges // 2 if undirected else num_edges
    cdf = power_law_cdf(num_vertices, exponent)
    perm = rng.permutation(num_vertices)
    src = perm[np.searchsorted(cdf, rng.random(n_draw), side="left")]
    dst = perm[np.searchsorted(cdf, rng.random(n_draw), side="left")]
    if undirected:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    return Graph(num_vertices, src, dst)


class TestInverseCdfSampler:
    @given(
        num_vertices=st.integers(64, 200_000),
        exponent=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_binary_search(self, num_vertices, exponent, seed):
        cdf = power_law_cdf(num_vertices, exponent)
        u = np.random.default_rng(seed).random(4096)
        # Bucket edges and the CDF's own steps are the hard cases.
        u = np.concatenate((u, cdf[:-1], np.nextafter(cdf[:-1], 0.0),
                            np.arange(1024) / 1024.0))
        expected = np.searchsorted(cdf, u, side="left")
        np.testing.assert_array_equal(_inverse_cdf_sampler(cdf)(u), expected)

    def test_cdf_ending_below_the_largest_draw(self):
        # Summation round-off can leave cdf[-1] below the largest draw
        # 1 - 2**-53; binary search then returns num_vertices, one past
        # the permutation.
        cdf = power_law_cdf(64, 0.5)
        cdf[-1] = np.nextafter(np.nextafter(1.0, 0.0), 0.0)
        u = np.array([np.nextafter(1.0, 0.0), 0.0, 0.5])
        assert np.searchsorted(cdf, u[0], side="left") == 64
        idx = _inverse_cdf_sampler(cdf)(u)
        assert idx.tolist() == [63, 0, int(np.searchsorted(cdf, 0.5))]

    def test_step_inside_one_bucket(self):
        # Every vertex's CDF step inside the first of 1024 buckets.
        cdf = np.concatenate((np.linspace(1e-6, 5e-4, 100), [1.0]))
        u = np.linspace(0.0, 1e-3, 5001)
        np.testing.assert_array_equal(
            _inverse_cdf_sampler(cdf.copy())(u),
            np.searchsorted(cdf, u, side="left"),
        )


class TestPowerLaw:
    @given(
        num_vertices=st.integers(64, 20_000),
        num_edges=st.integers(256, 40_000),
        exponent=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
        undirected=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_binary_search_reference(self, num_vertices, num_edges,
                                             exponent, seed, undirected):
        g = power_law_graph(num_vertices, num_edges, exponent=exponent,
                            seed=seed, undirected=undirected)
        ref = power_law_reference(num_vertices, num_edges, exponent, seed,
                                  undirected)
        np.testing.assert_array_equal(g.src, ref.src)
        np.testing.assert_array_equal(g.dst, ref.dst)

    def test_sizes(self):
        g = power_law_graph(1000, 8000, seed=0)
        assert g.num_vertices == 1000
        assert g.num_edges == 8000

    def test_undirected_mirrors_edges(self):
        g = power_law_graph(500, 4000, seed=0, undirected=True)
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        mirrored = sum((d, s) in pairs for s, d in pairs)
        assert mirrored == len(pairs)

    def test_skew_grows_with_exponent(self):
        lo = power_law_graph(2000, 20_000, exponent=1.0, seed=3)
        hi = power_law_graph(2000, 20_000, exponent=2.5, seed=3)
        assert hi.in_degrees().max() > lo.in_degrees().max()

    def test_deterministic(self):
        a = power_law_graph(300, 2000, seed=9)
        b = power_law_graph(300, 2000, seed=9)
        np.testing.assert_array_equal(a.src, b.src)

    def test_nonpositive_exponent_raises(self):
        with pytest.raises(ValueError):
            power_law_graph(100, 200, exponent=0.0)


class TestErdosRenyi:
    def test_sizes(self):
        g = erdos_renyi_graph(100, 900, seed=0)
        assert g.num_vertices == 100
        assert g.num_edges == 900

    def test_roughly_uniform_degrees(self):
        g = erdos_renyi_graph(1000, 50_000, seed=0)
        deg = g.in_degrees()
        # Poisson(50): max should stay within ~2.2x of the mean.
        assert deg.max() < 2.2 * deg.mean()
