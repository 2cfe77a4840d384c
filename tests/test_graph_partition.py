"""Tests for destination-interval partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coo import Graph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.partition import partition_graph

from tests.strategies import graphs


def assert_matches_int64_reference(graph, interval):
    """Partitions equal slices of an int64 stable argsort on the ID."""
    pset = partition_graph(graph, interval)
    pid = graph.dst // interval
    order = np.argsort(pid, kind="stable")
    counts = np.bincount(pid, minlength=pset.num_partitions)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    assert pset.num_partitions == -(-graph.num_vertices // interval)
    for i, part in enumerate(pset.partitions):
        sel = order[bounds[i]:bounds[i + 1]]
        np.testing.assert_array_equal(part.src, graph.src[sel])
        np.testing.assert_array_equal(part.dst, graph.dst[sel])
        if graph.weights is not None:
            np.testing.assert_array_equal(part.weights, graph.weights[sel])


class TestPartitionGraph:
    def test_partition_count(self, tiny_graph):
        pset = partition_graph(tiny_graph, 3)
        assert pset.num_partitions == 2  # ceil(6 / 3)

    def test_fig1_example_edges(self, tiny_graph):
        # Fig. 1c: partition 0 owns dst 0..2, partition 1 owns dst 3..5.
        pset = partition_graph(tiny_graph, 3)
        p0, p1 = pset.partitions
        assert np.all(p0.dst < 3)
        assert np.all(p1.dst >= 3)
        assert p0.num_edges + p1.num_edges == 8

    def test_edges_preserved(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        assert pset.total_edges() == small_rmat.num_edges

    def test_ascending_source_invariant(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        for p in pset.partitions:
            assert np.all(np.diff(p.src) >= 0)

    def test_dst_within_interval(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        for p in pset.partitions:
            if p.num_edges:
                assert p.dst.min() >= p.vertex_lo
                assert p.dst.max() < p.vertex_hi

    def test_last_partition_truncated(self):
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(1000, 5000, seed=0)
        pset = partition_graph(g, 300)
        assert pset.partitions[-1].num_dst_vertices == 100

    def test_nonempty_filter(self, tiny_graph):
        pset = partition_graph(tiny_graph, 3)
        assert len(pset.nonempty()) == 2

    def test_invalid_interval_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            partition_graph(tiny_graph, 0)

    def test_weights_partitioned(self, tiny_graph):
        g = tiny_graph.with_weights(np.arange(8))
        pset = partition_graph(g, 3)
        total = sum(p.weights.sum() for p in pset.partitions)
        assert total == np.arange(8).sum()



class TestNarrowKeySort:
    @settings(max_examples=40, deadline=None)
    @given(graphs(weighted=True), st.integers(1, 40))
    def test_matches_int64_reference(self, graph, interval):
        assert_matches_int64_reference(graph, interval)

    @pytest.mark.parametrize("num_parts", [256, 257, 65_536, 65_537])
    def test_matches_int64_reference_at_dtype_boundaries(self, num_parts):
        # uint8 holds IDs of 256 partitions, uint16 of 65,536; one more
        # partition widens the key.  The last partition is one vertex.
        interval = 2
        num_vertices = (num_parts - 1) * interval + 1
        g = erdos_renyi_graph(num_vertices, 20_000, seed=num_parts)
        # Make sure the last partition (highest ID) owns an edge.
        g = Graph(
            num_vertices,
            np.append(g.src, 0),
            np.append(g.dst, num_vertices - 1),
            weights=np.arange(g.num_edges + 1),
        )
        assert_matches_int64_reference(g, interval)


class TestPartitionAccessors:
    def test_src_blocks(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        p = pset.nonempty()[0]
        np.testing.assert_array_equal(p.src_blocks(16), p.src // 16)

    def test_unique_src_count(self, tiny_graph):
        pset = partition_graph(tiny_graph, 3)
        p0 = pset.partitions[0]
        assert p0.unique_src_count() == len(set(p0.src.tolist()))

    def test_src_span_blocks_empty(self, tiny_graph):
        pset = partition_graph(tiny_graph, 3)
        empty = pset.partitions[0].slice(0, 0)
        assert empty.src_span_blocks(16) == 0

    def test_span_at_least_unique_blocks(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        for p in pset.nonempty()[:5]:
            unique_blocks = len(np.unique(p.src_blocks(16)))
            assert p.src_span_blocks(16) >= unique_blocks


class TestSlice:
    def test_slice_edges(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        p = pset.nonempty()[0]
        sub = p.slice(10, 20)
        assert sub.num_edges == 10
        np.testing.assert_array_equal(sub.src, p.src[10:20])

    def test_slice_keeps_interval(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        p = pset.nonempty()[0]
        sub = p.slice(0, 5)
        assert (sub.vertex_lo, sub.vertex_hi) == (p.vertex_lo, p.vertex_hi)

    def test_slices_cover_partition(self, small_rmat):
        pset = partition_graph(small_rmat, 512)
        p = pset.nonempty()[0]
        mid = p.num_edges // 2
        a, b = p.slice(0, mid), p.slice(mid, p.num_edges)
        assert a.num_edges + b.num_edges == p.num_edges
