"""Subgraph extraction and edge sampling.

Scaling studies need smaller *structure-preserving* views of a graph:
uniform edge sampling (keeps the degree-distribution shape), induced
subgraphs over a vertex set (keeps local structure), and top-degree
cores (keeps the hub subnetwork DBG concentrates on).  All return
standard :class:`~repro.graph.coo.Graph` objects, so everything
downstream — partitioning, scheduling, simulation — works unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.graph.coo import Graph
from repro.utils.validation import check_probability


def sample_edges(graph: Graph, fraction: float, seed: int = 0) -> Graph:
    """Keep each edge independently with probability ``fraction``.

    Vertex IDs are preserved (the vertex set does not shrink), so degree
    shapes scale down uniformly — the right primitive for throughput
    scaling studies.
    """
    check_probability("fraction", fraction)
    rng = np.random.default_rng(seed)
    keep = rng.random(graph.num_edges) < fraction
    if not keep.any():
        raise ValueError("sampling removed every edge; raise fraction")
    return Graph(
        graph.num_vertices,
        graph.src[keep],
        graph.dst[keep],
        weights=None if graph.weights is None else graph.weights[keep],
        name=f"{graph.name}-s{fraction:g}",
    )


def induced_subgraph(graph: Graph, vertices: np.ndarray) -> Graph:
    """Subgraph induced by ``vertices``, compacted to dense new IDs.

    Edges survive iff both endpoints are selected; selected vertices are
    renumbered ``0 .. k-1`` in ascending original-ID order.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if vertices.size == 0:
        raise ValueError("vertex set is empty")
    if vertices.min() < 0 or vertices.max() >= graph.num_vertices:
        raise ValueError("vertex IDs out of range")
    member = np.zeros(graph.num_vertices, dtype=bool)
    member[vertices] = True
    keep = member[graph.src] & member[graph.dst]
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    return Graph(
        int(vertices.size),
        remap[graph.src[keep]],
        remap[graph.dst[keep]],
        weights=None if graph.weights is None else graph.weights[keep],
        name=f"{graph.name}-induced{vertices.size}",
    )


def top_degree_core(graph: Graph, num_vertices: int) -> Graph:
    """Induced subgraph over the ``num_vertices`` highest in-degree
    vertices — the hub core that forms the dense partitions."""
    if not 0 < num_vertices <= graph.num_vertices:
        raise ValueError(
            f"num_vertices must be in (0, {graph.num_vertices}]"
        )
    order = np.argsort(graph.in_degrees())[::-1][:num_vertices]
    return induced_subgraph(graph, order)
