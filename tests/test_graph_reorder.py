"""Tests for degree-based grouping (DBG)."""

import numpy as np
import pytest

from repro.graph.reorder import (
    _group_of,
    degree_based_grouping,
    identity_ordering,
)


class TestDbgStructure:
    @pytest.mark.parametrize("num_groups", [2, 8, 256, 300])
    def test_matches_int64_stable_argsort(self, small_powerlaw, num_groups):
        res = degree_based_grouping(small_powerlaw, num_groups=num_groups)
        groups = _group_of(small_powerlaw.in_degrees(), num_groups)
        order = np.argsort(-groups, kind="stable")
        np.testing.assert_array_equal(res.inverse, order)

    def test_mapping_is_permutation(self, small_rmat):
        res = degree_based_grouping(small_rmat)
        assert np.array_equal(
            np.sort(res.mapping), np.arange(small_rmat.num_vertices)
        )

    def test_inverse_inverts_mapping(self, small_rmat):
        res = degree_based_grouping(small_rmat)
        np.testing.assert_array_equal(
            res.mapping[res.inverse], np.arange(small_rmat.num_vertices)
        )

    def test_edge_count_preserved(self, small_rmat):
        res = degree_based_grouping(small_rmat)
        assert res.graph.num_edges == small_rmat.num_edges

    def test_group_sizes_sum_to_v(self, small_rmat):
        res = degree_based_grouping(small_rmat)
        assert res.group_sizes.sum() == small_rmat.num_vertices

    def test_restore_roundtrips_properties(self, small_rmat, rng):
        res = degree_based_grouping(small_rmat)
        original = rng.random(small_rmat.num_vertices)
        relabelled = original[res.inverse]
        np.testing.assert_array_equal(res.restore(relabelled), original)

    def test_too_few_groups_raises(self, small_rmat):
        with pytest.raises(ValueError):
            degree_based_grouping(small_rmat, num_groups=1)


class TestDbgSemantics:
    def test_hot_vertices_get_low_ids(self, small_rmat):
        res = degree_based_grouping(small_rmat)
        deg = res.graph.in_degrees()
        head = deg[: small_rmat.num_vertices // 16].mean()
        tail = deg[-small_rmat.num_vertices // 16 :].mean()
        assert head > 10 * max(tail, 0.01)

    def test_group_degree_ordering(self, small_rmat):
        # Average in-degree must be non-increasing across the new ID space
        # when measured at group granularity.
        res = degree_based_grouping(small_rmat)
        deg = res.graph.in_degrees()
        bounds = np.cumsum(res.group_sizes[::-1])  # groups descend
        prev = np.inf
        lo = 0
        for hi in bounds:
            if hi > lo:
                avg = deg[lo:hi].mean()
                assert avg <= prev + 1e-9
                prev = avg
            lo = hi

    def test_stable_within_group(self, small_uniform):
        # With one dominant group (uniform graph), original order largely
        # survives: mapping restricted to the big group is increasing.
        res = degree_based_grouping(small_uniform)
        deg = small_uniform.in_degrees()
        groups_of = res.mapping  # new ids
        # pick vertices in the same (modal) degree band
        band = (deg >= deg.mean() / 2) & (deg < deg.mean())
        ids = groups_of[band]
        assert np.all(np.diff(ids) > 0)

    def test_concentrates_edges_in_first_partition(self, small_rmat):
        res = degree_based_grouping(small_rmat)
        u = small_rmat.num_vertices // 8
        before = (small_rmat.dst < u).sum() / small_rmat.num_edges
        after = (res.graph.dst < u).sum() / small_rmat.num_edges
        assert after > before


class TestIdentityOrdering:
    def test_identity_graph_untouched(self, small_rmat):
        res = identity_ordering(small_rmat)
        assert res.graph is small_rmat
        np.testing.assert_array_equal(
            res.mapping, np.arange(small_rmat.num_vertices)
        )

    def test_restore_is_noop(self, small_rmat, rng):
        res = identity_ordering(small_rmat)
        props = rng.random(small_rmat.num_vertices)
        np.testing.assert_array_equal(res.restore(props), props)
