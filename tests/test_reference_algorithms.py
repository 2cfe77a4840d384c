"""Reference algorithms against third-party implementations.

Every judged job is compared with :mod:`repro.apps.reference`, so the
references themselves are checked here against SciPy and NetworkX,
which share no code with them: ``wcc_reference`` against
``scipy.sparse.csgraph.connected_components`` and ``bfs_reference`` /
``closeness_reference`` against
``networkx.single_source_shortest_path_length``.  Both libraries come
with the ``[test]`` extra, so a missing one fails here instead of
skipping.
"""

from __future__ import annotations

import ast
import inspect

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path

import repro.apps.reference as reference
from repro.apps.reference import (
    bfs_reference,
    closeness_reference,
    wcc_reference,
)
from repro.apps.wcc import symmetrized
from repro.graph.coo import Graph
from repro.graph.datasets import load_dataset

UNREACHED = 2**31 - 1

#: The cli_run and analytics Table III stand-ins at their benchmark scales.
TABLE_III_STAND_INS = (
    ("R21", 1 / 64),
    ("TC", 1 / 16),
    ("R19", 1 / 64),
    ("GG", 1 / 16),
)


def _adjacency(graph: Graph) -> sp.csr_matrix:
    ones = np.ones(graph.num_edges)
    shape = (graph.num_vertices, graph.num_vertices)
    return sp.csr_matrix((ones, (graph.src, graph.dst)), shape=shape)


def scipy_min_id_labels(graph: Graph) -> np.ndarray:
    """Weak components from SciPy, relabelled by each one's min ID."""
    _, labels = connected_components(
        _adjacency(graph), directed=True, connection="weak"
    )
    lowest = np.full(labels.max() + 1, graph.num_vertices, dtype=np.int64)
    np.minimum.at(lowest, labels, np.arange(graph.num_vertices))
    return lowest[labels]


def networkx_levels(graph: Graph, root: int) -> np.ndarray:
    """Hop distances from NetworkX; unreached vertices get 2**31 - 1."""
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(graph.num_vertices))
    digraph.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    for vertex, hops in nx.single_source_shortest_path_length(
        digraph, root
    ).items():
        levels[vertex] = hops
    return levels


def scipy_levels(graph: Graph, root: int) -> np.ndarray:
    """Hop distances from SciPy's unweighted BFS (the large-graph
    reference: NetworkX needs gigabytes for a multi-million-edge graph)."""
    hops = shortest_path(
        _adjacency(graph), unweighted=True, indices=root
    )
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    reached = np.isfinite(hops)
    levels[reached] = hops[reached].astype(np.int64)
    return levels


def closeness_from_levels(levels: np.ndarray) -> float:
    reached = levels[levels < UNREACHED]
    total = float(reached.sum())
    if reached.size <= 1 or not total:
        return 0.0
    return (reached.size - 1) / total


def assert_matches_third_party(graph: Graph, root: int) -> None:
    np.testing.assert_array_equal(
        wcc_reference(graph), scipy_min_id_labels(graph)
    )
    levels = networkx_levels(graph, root)
    np.testing.assert_array_equal(bfs_reference(graph, root), levels)
    assert closeness_reference(graph, root) == closeness_from_levels(levels)


@st.composite
def edge_case_graphs(draw):
    """``(graph, root)`` pairs that stress the edge cases: no edges,
    self-loops, duplicate edges, isolated vertices and, sometimes, a
    root without out-edges."""
    n = draw(st.integers(1, 40))
    # Edges touch only the first ``used`` vertices; the rest are isolated.
    used = draw(st.integers(1, n))
    vertex = st.integers(0, used - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    loops = draw(st.lists(vertex, max_size=5))
    edges += [(v, v) for v in loops]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    root = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        edges = [(s, d) for s, d in edges if s != root]
    src = [s for s, _ in edges]
    dst = [d for _, d in edges]
    return Graph(n, src, dst), root


class TestAgainstThirdParty:
    @settings(max_examples=150, deadline=None)
    @given(edge_case_graphs())
    def test_random_graphs(self, case):
        graph, root = case
        assert_matches_third_party(graph, root)
        assert_matches_third_party(symmetrized(graph), root)

    def test_zero_edges(self):
        graph = Graph(5, [], [])
        np.testing.assert_array_equal(wcc_reference(graph), np.arange(5))
        assert_matches_third_party(graph, 3)

    def test_descending_id_path(self):
        # Edges run from high IDs to low, so every hook lands on the
        # next root down: the ordering that needs the most jumping.
        n = 300
        graph = Graph(n, np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1))
        np.testing.assert_array_equal(wcc_reference(graph), np.zeros(n))
        assert_matches_third_party(graph, n - 1)
        assert_matches_third_party(graph, 0)

    def test_two_disjoint_stars(self):
        # Centers 9 and 3; leaves on both sides of each center's ID.
        src = [9, 9, 9, 9, 3, 3, 3]
        dst = [0, 2, 10, 11, 1, 4, 5]
        graph = Graph(12, src, dst)
        expected = np.array([0, 1, 0, 1, 1, 1, 6, 7, 8, 0, 0, 0])
        np.testing.assert_array_equal(wcc_reference(graph), expected)
        for root in (9, 3, 0):
            assert_matches_third_party(graph, root)


@pytest.mark.slow
@pytest.mark.parametrize("symmetrize", [False, True],
                         ids=["directed", "symmetrized"])
@pytest.mark.parametrize("key,scale", TABLE_III_STAND_INS,
                         ids=[key for key, _ in TABLE_III_STAND_INS])
def test_table3_stand_ins(key, scale, symmetrize):
    graph = load_dataset(key, scale=scale, seed=1)
    if symmetrize:
        graph = symmetrized(graph)
    np.testing.assert_array_equal(
        wcc_reference(graph), scipy_min_id_labels(graph)
    )
    np.testing.assert_array_equal(
        bfs_reference(graph, 0), scipy_levels(graph, 0)
    )


#: What the references judge; importing any of it would let a bug in
#: the accelerator's algorithm hide in its own oracle.
JUDGED_MODULES = (
    "repro.apps.gas",
    "repro.apps.wcc",
    "repro.apps.bfs",
    "repro.compiled",
    "repro.core",
    "repro.arch",
)


def test_reference_imports_nothing_it_judges():
    tree = ast.parse(inspect.getsource(reference))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the reference"
            imported.add(node.module)
            imported.update(
                f"{node.module}.{alias.name}" for alias in node.names
            )
    judged = {
        name for name in imported
        if any(name == m or name.startswith(m + ".") for m in JUDGED_MODULES)
    }
    assert not judged, f"reference imports what it judges: {sorted(judged)}"
    assert "repro.graph.coo" in imported and "repro.graph.csr" in imported
