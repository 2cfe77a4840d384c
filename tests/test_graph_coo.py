"""Tests for the COO graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph.coo import EDGE_BYTES, MAX_VERTICES, VERTEX_WORD_BYTES, Graph

from tests.strategies import multigraphs


def lexsort_reference(src, dst, weights=None):
    """The (src, dst) stable order the packed-key sort must reproduce."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    w = None if weights is None else np.asarray(weights)[order]
    return src[order], dst[order], w


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 8

    def test_sorted_by_source(self, tiny_graph):
        assert np.all(np.diff(tiny_graph.src) >= 0)

    def test_sorted_by_dst_within_source(self):
        g = Graph(4, [1, 1, 1, 0], [3, 0, 2, 1])
        sel = g.src == 1
        assert np.all(np.diff(g.dst[sel]) >= 0)

    def test_stored_order_kept_until_first_read(self):
        g = Graph(4, [3, 0], [0, 1], weights=[7, 9])
        # Order-free readers see the edges as given and do not sort.
        assert g.num_edges == 2 and g.edge_bytes == EDGE_BYTES + 4
        np.testing.assert_array_equal(g.out_degrees(), [1, 0, 0, 1])
        src, dst, w = g.stored_edges
        np.testing.assert_array_equal(src, [3, 0])
        np.testing.assert_array_equal(dst, [0, 1])
        np.testing.assert_array_equal(w, [7, 9])
        # The first sorted read sorts once and keeps the result.
        np.testing.assert_array_equal(g.src, [0, 3])
        np.testing.assert_array_equal(g.weights, [9, 7])
        assert g.stored_edges[0] is g.src

    def test_weights_follow_sort(self):
        g = Graph(3, [2, 0, 1], [0, 1, 2], weights=[20, 0, 10])
        np.testing.assert_array_equal(g.weights, [0, 10, 20])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            Graph(3, [0, 1], [1])

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="per edge"):
            Graph(3, [0, 1], [1, 2], weights=[1])

    def test_src_out_of_range_raises(self):
        with pytest.raises(ValueError, match="src"):
            Graph(3, [0, 5], [1, 2])

    def test_dst_out_of_range_raises(self):
        with pytest.raises(ValueError, match="dst"):
            Graph(3, [0, 1], [1, -1])

    def test_zero_vertices_raises(self):
        with pytest.raises(ValueError):
            Graph(0, [], [])


class TestPackedKeySort:
    @settings(max_examples=60, deadline=None)
    @given(multigraphs())
    def test_matches_lexsort_reference(self, case):
        n, src, dst, weights = case
        g = Graph(n, src, dst, weights=weights)
        ref_src, ref_dst, ref_w = lexsort_reference(src, dst, weights)
        np.testing.assert_array_equal(g.src, ref_src)
        np.testing.assert_array_equal(g.dst, ref_dst)
        assert g.src.dtype == np.int64 and g.dst.dtype == np.int64
        if weights is None:
            assert g.weights is None
        else:
            np.testing.assert_array_equal(g.weights, ref_w)

    def test_duplicate_edge_weights_keep_input_order(self):
        g = Graph(3, [1, 1, 0, 1], [2, 2, 0, 2], weights=[30, 10, 5, 20])
        np.testing.assert_array_equal(g.src, [0, 1, 1, 1])
        np.testing.assert_array_equal(g.weights, [5, 30, 10, 20])

    def test_ids_at_the_32_bit_bound(self):
        top = MAX_VERTICES - 1
        src = [top, 0, 2**31, top, 2**31]
        dst = [0, top, 5, top, 2**31 - 1]
        g = Graph(MAX_VERTICES, src, dst)
        ref_src, ref_dst, _ = lexsort_reference(src, dst)
        np.testing.assert_array_equal(g.src, ref_src)
        np.testing.assert_array_equal(g.dst, ref_dst)

    def test_more_than_2_pow_32_vertices_raises(self):
        with pytest.raises(ValueError, match="32-bit"):
            Graph(MAX_VERTICES + 1, [0], [1])

    def test_narrow_input_dtypes(self):
        src = np.array([3, 1, 1], dtype=np.int32)
        dst = np.array([0, 2, 1], dtype=np.uint16)
        g = Graph(4, src, dst)
        np.testing.assert_array_equal(g.src, [1, 1, 3])
        np.testing.assert_array_equal(g.dst, [1, 2, 0])
        assert g.src.dtype == np.int64 and g.dst.dtype == np.int64

    @pytest.mark.parametrize("read_sorted", [False, True])
    def test_owns_its_arrays(self, read_sorted):
        # Already sorted input: the sort on read changes no order, so
        # only an explicit copy keeps the caller's arrays out.
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 0], dtype=np.int64)
        w = np.array([7, 8, 9])
        g = Graph(3, src, dst, weights=w)
        if read_sorted:
            g.src
        for ours, theirs in zip(g.stored_edges, (src, dst, w)):
            assert not np.shares_memory(ours, theirs)

    def test_with_weights_follows_the_sorted_edges(self):
        g = Graph(4, [3, 0, 2], [0, 1, 1])
        w = g.with_weights([0, 20, 30])
        np.testing.assert_array_equal(w.src, [0, 2, 3])
        np.testing.assert_array_equal(w.dst, [1, 1, 0])
        np.testing.assert_array_equal(w.weights, [0, 20, 30])


class TestDegrees:
    def test_in_degrees(self, tiny_graph):
        # dst = 1,3,2,0,4,2,5,0 -> vertex 0 has in-degree 2, vertex 2 has 2
        deg = tiny_graph.in_degrees()
        assert deg[0] == 2
        assert deg[2] == 2
        assert deg.sum() == tiny_graph.num_edges

    def test_out_degrees(self, tiny_graph):
        deg = tiny_graph.out_degrees()
        assert deg[0] == 2
        assert deg[4] == 2
        assert deg.sum() == tiny_graph.num_edges

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == pytest.approx(8 / 6)

    def test_degrees_cached(self, tiny_graph):
        assert tiny_graph.in_degrees() is tiny_graph.in_degrees()


class TestFootprint:
    def test_edge_bytes_unweighted(self, tiny_graph):
        assert tiny_graph.edge_bytes == EDGE_BYTES

    def test_edge_bytes_weighted(self):
        g = Graph(2, [0], [1], weights=[5])
        assert g.edge_bytes == EDGE_BYTES + VERTEX_WORD_BYTES


class TestTransformations:
    def test_relabel_identity(self, tiny_graph):
        ident = np.arange(6)
        g2 = tiny_graph.relabel(ident)
        np.testing.assert_array_equal(g2.src, tiny_graph.src)
        np.testing.assert_array_equal(g2.dst, tiny_graph.dst)

    def test_relabel_preserves_structure(self, tiny_graph):
        mapping = np.array([5, 4, 3, 2, 1, 0])
        g2 = tiny_graph.relabel(mapping)
        orig = set(zip(tiny_graph.src.tolist(), tiny_graph.dst.tolist()))
        back = set(
            (5 - s, 5 - d) for s, d in zip(g2.src.tolist(), g2.dst.tolist())
        )
        assert orig == back

    def test_relabel_wrong_size_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.relabel(np.arange(5))

    @pytest.mark.parametrize(
        "mapping",
        [
            [0, 0, 2, 3, 4, 5],  # repeated target would merge vertices
            [0, 1, 2, 3, 4, 6],  # out of range
            [-1, 1, 2, 3, 4, 5],  # negative
        ],
    )
    def test_relabel_non_permutation_raises(self, tiny_graph, mapping):
        with pytest.raises(ValueError, match="permutation"):
            tiny_graph.relabel(np.array(mapping))

    def test_reversed_swaps_degrees(self, tiny_graph):
        rev = tiny_graph.reversed()
        np.testing.assert_array_equal(
            rev.in_degrees(), tiny_graph.out_degrees()
        )

    def test_reversed_twice_same_edge_set(self, tiny_graph):
        twice = tiny_graph.reversed().reversed()
        orig = sorted(zip(tiny_graph.src.tolist(), tiny_graph.dst.tolist()))
        back = sorted(zip(twice.src.tolist(), twice.dst.tolist()))
        assert orig == back

    def test_with_weights(self, tiny_graph):
        w = np.arange(8)
        g2 = tiny_graph.with_weights(w)
        assert g2.weights is not None
        assert g2.num_edges == tiny_graph.num_edges
