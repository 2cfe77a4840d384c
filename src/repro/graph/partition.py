"""Destination-interval graph partitioning (Fig. 1c).

Following ThunderGP's scheme, which the paper adopts verbatim: a graph with
``V`` vertices is cut into ``ceil(V / U)`` partitions, the i-th owning the
destination-vertex interval ``[i*U, (i+1)*U)``.  Each partition's edge list
contains every edge whose destination falls in its interval, kept in
ascending source order (inherited from the globally sorted COO input) —
the invariant the Vertex Loader's last-block cache relies on.

``U`` equals the number of destination vertices one pipeline's Gather PEs
can buffer on chip (65,536 on U280, 32,768 on U50; Sec. VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.graph.coo import Graph
from repro.utils.validation import check_positive


@dataclass
class Partition:
    """One destination-interval partition and its edge list."""

    index: int
    vertex_lo: int
    vertex_hi: int
    src: np.ndarray
    dst: np.ndarray
    weights: Optional[np.ndarray] = None

    @property
    def num_edges(self) -> int:
        """Edges whose destination lies in this partition's interval."""
        return int(self.src.size)

    @property
    def num_dst_vertices(self) -> int:
        """Size of the destination interval (== U except the last)."""
        return self.vertex_hi - self.vertex_lo

    def src_blocks(self, vertices_per_block: int) -> np.ndarray:
        """Global-memory block index of each edge's source property."""
        return self.src // vertices_per_block

    def unique_src_count(self) -> int:
        """Distinct source vertices this partition dereferences."""
        if self.num_edges == 0:
            return 0
        return int(np.unique(self.src).size)

    def src_span_blocks(self, vertices_per_block: int) -> int:
        """Blocks between the first and last source access, inclusive.

        This is the amount of data the Little pipeline's burst read streams
        through when it covers the partition's source range.
        """
        if self.num_edges == 0:
            return 0
        blocks = self.src_blocks(vertices_per_block)
        return int(blocks[-1] - blocks[0] + 1)

    def slice(self, lo: int, hi: int) -> "Partition":
        """A sub-partition over the edge index range ``[lo, hi)``.

        Used by the intra-cluster scheduler to hand contiguous edge chunks
        of one partition to different pipelines of the same cluster.
        """
        return Partition(
            index=self.index,
            vertex_lo=self.vertex_lo,
            vertex_hi=self.vertex_hi,
            src=self.src[lo:hi],
            dst=self.dst[lo:hi],
            weights=None if self.weights is None else self.weights[lo:hi],
        )


@dataclass
class PartitionSet:
    """All partitions of one graph for a given interval size ``U``."""

    graph: Graph
    interval: int
    partitions: List[Partition] = field(default_factory=list)

    @property
    def num_partitions(self) -> int:
        """Total partition count, ``ceil(V / U)``."""
        return len(self.partitions)

    def nonempty(self) -> List[Partition]:
        """Partitions that own at least one edge (Fig. 2 drops empties)."""
        return [p for p in self.partitions if p.num_edges > 0]

    def total_edges(self) -> int:
        """Sum of edges over all partitions (== E of the graph)."""
        return sum(p.num_edges for p in self.partitions)


def partition_graph(graph: Graph, interval: int) -> PartitionSet:
    """Partition ``graph`` into destination intervals of size ``interval``.

    One stable sort on the partition ID groups edges by partition while
    preserving the ascending-source order within each partition.  The ID is
    narrowed to the smallest unsigned type that holds ``num_parts - 1``;
    for up to 65,536 partitions that is uint8 or uint16, which NumPy sorts
    with an O(E) radix pass, the paper's partitioning scan.
    """
    check_positive("interval", interval)
    num_parts = -(-graph.num_vertices // interval)
    pid = graph.dst // interval
    order = np.argsort(
        pid.astype(np.min_scalar_type(num_parts - 1)), kind="stable"
    )
    src = graph.src[order]
    dst = graph.dst[order]
    weights = None if graph.weights is None else graph.weights[order]
    counts = np.bincount(pid, minlength=num_parts)
    bounds = np.concatenate(([0], np.cumsum(counts)))

    partitions = []
    for i in range(num_parts):
        lo, hi = bounds[i], bounds[i + 1]
        partitions.append(
            Partition(
                index=i,
                vertex_lo=i * interval,
                vertex_hi=min((i + 1) * interval, graph.num_vertices),
                src=src[lo:hi],
                dst=dst[lo:hi],
                weights=None if weights is None else weights[lo:hi],
            )
        )
    return PartitionSet(graph=graph, interval=interval, partitions=partitions)
