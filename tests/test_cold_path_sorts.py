"""Each order on the cold path costs one sort, and nothing it feeds moves.

The graph sorts its edges on first read, ``partition_graph`` orders every
partition with one packed (partition, src, dst) sort of the stored edges,
and ``PingPongBufferSim.access_structure`` works only at set boundaries.
Each is checked against a frozen copy of the eager code it replaced
(:mod:`tests.frozen_cold_path`); the slow test repeats the partition and
access-structure differentials on the full-size ``repro run`` inputs.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.graph.coo as coo
from repro.arch.config import PipelineConfig
from repro.arch.pingpong import PingPongBufferSim
from repro.compiled.functional import lower_functional_plan
from repro.core.framework import ReGraph
from repro.graph.coo import MAX_VERTICES, Graph
from repro.graph.generators import rmat_graph
from repro.graph.partition import partition_graph
from repro.graph.reorder import degree_based_grouping

from tests.frozen_cold_path import (
    eager_sort_edges,
    per_edge_access_structure,
    two_sort_partitions,
)
from tests.strategies import multigraphs

#: Unsorted multigraphs, weighted or not.
GRAPHS = multigraphs(max_vertices=40, max_edges=200)


def spy_on_sort(monkeypatch):
    """Record every call of the graph's (src, dst) sort."""
    calls = []
    sort = coo._sort_edges

    def spy(*args):
        calls.append(args)
        return sort(*args)

    monkeypatch.setattr(coo, "_sort_edges", spy)
    return calls


class TestSortOnRead:
    # What the sorted reads return is checked against the eager order by
    # tests/test_graph_coo.py's lexsort differential.
    @settings(max_examples=40, deadline=None)
    @given(GRAPHS, st.randoms(use_true_random=False))
    def test_order_free_readers_never_sort(self, case, rnd):
        n, src, dst, weights = case
        mapping = np.array(rnd.sample(range(n), n), dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            sorts = spy_on_sort(mp)
            g = Graph(n, src, dst, weights=weights)
            assert g.num_edges == len(src)
            g.edge_bytes, g.in_degrees(), g.out_degrees()
            relabelled = g.relabel(mapping)
            flipped = g.reversed()
            partition_graph(g, 3)
            lower_functional_plan(SimpleNamespace(graph=g))
        assert sorts == []
        # What the order-free readers built equals the eager results.
        ref_src, ref_dst, ref_w = eager_sort_edges(src, dst, weights)
        for got, want in (
            (relabelled, eager_sort_edges(
                mapping[ref_src], mapping[ref_dst], ref_w)),
            (flipped, eager_sort_edges(ref_dst, ref_src, ref_w)),
        ):
            np.testing.assert_array_equal(got.src, want[0])
            np.testing.assert_array_equal(got.dst, want[1])
            if weights is not None:
                np.testing.assert_array_equal(got.weights, want[2])
            # Degrees carried over by relabel equal recounted ones.
            np.testing.assert_array_equal(
                got.in_degrees(), np.bincount(want[1], minlength=n)
            )
            np.testing.assert_array_equal(
                got.out_degrees(), np.bincount(want[0], minlength=n)
            )

    def test_racing_first_reads_agree(self):
        # More readers than cores, switching often: every reader sees the
        # eager order whichever thread's sort lands.
        rng = np.random.default_rng(7)
        src, dst = rng.integers(0, 500, (2, 20_000))
        weights = rng.integers(0, 2**32, 20_000)
        ref = eager_sort_edges(src, dst, weights)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = Graph(500, src, dst, weights=weights)
                with ThreadPoolExecutor(max_workers=6) as pool:
                    reads = [
                        pool.submit(lambda: (g.src, g.dst, g.weights))
                        for _ in range(6)
                    ]
                    for read in reads:
                        for got, want in zip(read.result(timeout=60), ref):
                            np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_run_pagerank_never_sorts_a_fresh_graph(self, monkeypatch):
        sorts = spy_on_sort(monkeypatch)
        ReGraph().run_pagerank(rmat_graph(10, 8, seed=3), max_iterations=3)
        assert sorts == []

    @pytest.mark.parametrize("app", ["sssp", "wcc"])
    def test_weighted_and_symmetric_runs_never_sort(self, monkeypatch, app):
        src, dst, _ = rmat_graph(10, 8, seed=3).stored_edges
        weights = np.random.default_rng(3).integers(1, 16, src.size)
        graph = Graph(1024, src, dst, weights=weights)
        sorts = spy_on_sort(monkeypatch)
        ReGraph().run_app(graph, app, max_iterations=3)
        assert sorts == []


def assert_partitions_match_two_sort(graph, src, dst, weights, interval):
    """``partition_graph`` equals the frozen two-sort partitioner."""
    pset = partition_graph(graph, interval)
    ref = two_sort_partitions(graph.num_vertices, src, dst, weights, interval)
    assert pset.num_partitions == len(ref)
    for i, (part, (lo, hi, r_src, r_dst, r_w)) in enumerate(
        zip(pset.partitions, ref)
    ):
        assert (part.index, part.vertex_lo, part.vertex_hi) == (i, lo, hi)
        assert part.src.dtype == part.dst.dtype == np.int64
        np.testing.assert_array_equal(part.src, r_src)
        np.testing.assert_array_equal(part.dst, r_dst)
        if weights is None:
            assert part.weights is None
        else:
            assert part.weights.dtype == r_w.dtype
            np.testing.assert_array_equal(part.weights, r_w)


class TestPackedPartition:
    @settings(max_examples=120, deadline=None)
    @given(
        GRAPHS,
        st.sampled_from([1, 3, 5, 6, 7, 12, "V", "V+1", "3V"]),
    )
    def test_matches_the_two_sort_partitioner(self, case, interval):
        n, src, dst, weights = case
        if isinstance(interval, str):
            interval = {"V": n, "V+1": n + 1, "3V": 3 * n}[interval]
        graph = Graph(n, src, dst, weights=weights)
        assert_partitions_match_two_sort(graph, src, dst, weights, interval)

    @settings(max_examples=40, deadline=None)
    @given(multigraphs(max_vertices=200, max_edges=60, weighted=True))
    def test_weighted_duplicates_and_empty_partitions(self, case):
        n, src, dst, weights = case
        # Duplicate every edge with its own weight, so duplicates always
        # exist, and confine destinations so most partitions are empty.
        src, dst = src * 2, [d % 4 for d in dst] * 2
        weights = weights + [w + 1 for w in weights]
        graph = Graph(n, src, dst, weights=weights)
        assert_partitions_match_two_sort(graph, src, dst, weights, 2)

    def test_64_bit_key_at_the_32_bit_vertex_bound(self):
        top = MAX_VERTICES - 1
        src = [top, 0, top, 5, 2**31]
        dst = [top, top, 0, 2**31 - 1, 2**31]
        graph = Graph(MAX_VERTICES, src, dst)
        # pid 1 + src 32 + offset 31 bits: exactly 64.
        assert_partitions_match_two_sort(graph, src, dst, None, 2**31)

    def test_oversized_key_raises_before_reading_edges(self, monkeypatch):
        graph = Graph(2**32, [0], [1])

        def refuse(self):
            raise AssertionError("edges read before the key-width check")

        monkeypatch.setattr(Graph, "stored_edges", property(refuse))
        with pytest.raises(ValueError, match="65 bits"):
            partition_graph(graph, 3)


class TestFunctionalLoweringReadsStoredEdges:
    @settings(max_examples=60, deadline=None)
    @given(GRAPHS)
    def test_matches_the_lowering_of_the_sorted_graph(self, case):
        n, src, dst, weights = case
        assume(len(src) > 0)
        stored = lower_functional_plan(
            SimpleNamespace(graph=Graph(n, src, dst, weights=weights))
        )
        eager = lower_functional_plan(
            SimpleNamespace(
                graph=Graph(n, *eager_sort_edges(src, dst, weights))
            )
        )
        np.testing.assert_array_equal(stored.starts, eager.starts)
        np.testing.assert_array_equal(stored.dsts, eager.dsts)
        if weights is None:
            # Unweighted: byte-identical.
            assert stored.src.tobytes() == eager.src.tobytes()
            assert stored.weights is None
            return
        # Weighted: only the order inside one destination's run moves.
        bounds = list(stored.starts) + [len(src)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert sorted(zip(stored.src[lo:hi], stored.weights[lo:hi])) \
                == sorted(zip(eager.src[lo:hi], eager.weights[lo:hi]))


def assert_structure_matches_per_edge(config, src):
    fill, stats = PingPongBufferSim(config, None).access_structure(src)
    ref_fill, ref_stats = per_edge_access_structure(config, src)
    assert fill.dtype == ref_fill.dtype
    assert fill.tobytes() == ref_fill.tobytes()
    assert stats == ref_stats


#: Vertices per ping-pong segment of a 512-byte and a 32 KiB buffer: a
#: source exactly at a segment's first vertex is the searchsorted edge.
SEGMENT_VERTICES = (64, 4096)


class TestSetBoundaryAccess:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(0, 20_000)
            | st.builds(
                lambda s, width: s * width,
                st.integers(0, 300), st.sampled_from(SEGMENT_VERTICES),
            ),
            min_size=1, max_size=400,
        ),
        st.integers(0, 2**32 - 20_001 * 64)
        | st.integers(0, 2**18).map(lambda o: o * 4096),
        st.sampled_from([128, 512, 2048, 32 * 1024]),
        st.sampled_from([1, 3, 8, 16]),
        st.booleans(),
    )
    def test_matches_the_per_edge_formula(
        self, ids, offset, pingpong_bytes, n_spe, jump_access
    ):
        config = PipelineConfig(
            n_spe=n_spe, pingpong_bytes=pingpong_bytes,
            jump_access=jump_access,
        )
        src = np.sort(np.array(ids, dtype=np.int64)) + offset
        assert_structure_matches_per_edge(config, src)

    @pytest.mark.parametrize("jump_access", [False, True])
    @pytest.mark.parametrize(
        "src",
        [
            [7],                                  # one edge
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],       # one segment
            list(range(0, 4096, 3)),              # sets cross segments
            [0] * 9 + [5000] * 9 + [90_000],      # skipped segments
            [1] * 8 + [64] * 8 + [200] * 8,       # a segment's first vertex
        ],
        ids=["one-edge", "one-segment", "crossing-sets", "gappy",
             "segment-starts"],
    )
    def test_shapes(self, src, jump_access):
        config = PipelineConfig(pingpong_bytes=512, jump_access=jump_access)
        assert_structure_matches_per_edge(
            config, np.array(src, dtype=np.int64)
        )


#: The ``repro run`` cases of the cli_run benchmark: (dataset, scale).
CLI_RUN_INPUTS = (("R21", 1 / 64), ("TC", 1 / 16))


@pytest.mark.slow
@pytest.mark.parametrize("dataset,scale", CLI_RUN_INPUTS)
def test_full_size_cli_run_inputs_match_the_frozen_paths(dataset, scale):
    from repro.graph.datasets import load_dataset

    graph = degree_based_grouping(
        load_dataset(dataset, scale=scale, seed=1)
    ).graph
    src, dst, weights = graph.stored_edges
    for buffer_vertices in (2048, 32 * 1024, 64 * 1024):
        config = PipelineConfig(gather_buffer_vertices=buffer_vertices)
        assert_partitions_match_two_sort(
            graph, src, dst, weights, config.partition_vertices
        )
        pset = partition_graph(graph, config.partition_vertices)
        for jump_access in (False, True):
            cfg = PipelineConfig(
                gather_buffer_vertices=buffer_vertices,
                jump_access=jump_access,
            )
            for part in pset.nonempty():
                assert_structure_matches_per_edge(cfg, part.src)
