"""Reference algorithm implementations for functional validation.

Plain NumPy/CSR algorithms, written independently of the GAS machinery, so
tests can check that the simulated accelerator computes the same answers
(up to fixed-point resolution for PageRank).
"""

from __future__ import annotations

import numpy as np

from repro.graph.coo import Graph
from repro.graph.csr import CsrGraph


def pagerank_reference(
    graph: Graph,
    damping: float = 0.85,
    iterations: int = 20,
    tolerance: float = 0.0,
) -> np.ndarray:
    """Power-iteration PageRank in float64 (dangling mass dropped,
    matching the accelerator's pre-divide-by-out-degree kernel)."""
    n = graph.num_vertices
    out_deg = np.maximum(graph.out_degrees(), 1)
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iterations):
        contrib = rank / out_deg
        acc = np.zeros(n)
        np.add.at(acc, graph.dst, contrib[graph.src])
        new_rank = base + damping * acc
        if tolerance and np.max(np.abs(new_rank - rank)) <= tolerance:
            rank = new_rank
            break
        rank = new_rank
    return rank


def bfs_reference(graph: Graph, root: int = 0) -> np.ndarray:
    """Frontier BFS over out-CSR; unvisited vertices get 2**31 - 1."""
    return _bfs_levels(CsrGraph.from_coo(graph), root)


def _bfs_levels(csr: CsrGraph, root: int) -> np.ndarray:
    """BFS levels from ``root``, expanding one whole frontier per level.

    Each level gathers every frontier vertex's CSR row at once: row
    ``f`` contributes ``indices[indptr[f] : indptr[f + 1]]``, addressed
    as ``np.repeat`` of the row starts plus an ``arange`` offset within
    each row.
    """
    levels = np.full(csr.num_vertices, 2**31 - 1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = csr.indptr[frontier]
        counts = csr.indptr[frontier + 1] - starts
        # Gathered slot k of row j sits at starts[j] + (k - row_base[j]).
        row_base = np.cumsum(counts) - counts
        slots = np.repeat(starts - row_base, counts) + np.arange(counts.sum())
        neighbors = csr.indices[slots]
        frontier = np.unique(neighbors[levels[neighbors] > depth])
        levels[frontier] = depth
    return levels


def closeness_reference(graph: Graph, root: int = 0) -> float:
    """Closeness centrality of ``root`` from reference BFS levels."""
    levels = bfs_reference(graph, root)
    reached = levels < 2**31 - 1
    num_reached = int(reached.sum())
    if num_reached <= 1:
        return 0.0
    total = float(levels[reached].sum())
    return (num_reached - 1) / total if total else 0.0


def wcc_reference(graph: Graph) -> np.ndarray:
    """Weak components by hooking and pointer jumping; labels are each
    component's min ID.

    A Shiloach-Vishkin-shaped round over a parent forest: every edge
    whose endpoints sit in different trees hooks the larger root under
    the smaller (``np.minimum.at``), pointer jumping then flattens every
    tree to a star, and edges inside one tree are dropped.  ``parent[v]
    <= v`` always holds, so each component's minimum vertex is its root
    and the forest stays acyclic.  Edge direction is ignored.
    """
    parent = np.arange(graph.num_vertices, dtype=np.int64)
    src, dst = graph.src, graph.dst
    while src.size:
        # Every tree is a star here, so parent[] of a vertex is its root.
        a, b = parent[src], parent[dst]
        live = a != b
        src, dst, a, b = src[live], dst[live], a[live], b[live]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return parent


def sssp_reference(graph: Graph, root: int = 0) -> np.ndarray:
    """Bellman-Ford over the edge list; unreachable gets 2**40."""
    if graph.weights is None:
        raise ValueError("sssp_reference needs a weighted graph")
    inf = np.int64(2**40)
    dist = np.full(graph.num_vertices, inf, dtype=np.int64)
    dist[root] = 0
    weights = np.asarray(graph.weights, dtype=np.int64)
    for _ in range(graph.num_vertices):
        proposal = np.where(
            dist[graph.src] < inf, dist[graph.src] + weights, inf
        )
        new_dist = dist.copy()
        np.minimum.at(new_dist, graph.dst, proposal)
        if np.array_equal(new_dist, dist):
            break
        dist = new_dist
    return dist
