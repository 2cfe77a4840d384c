"""Destination-interval graph partitioning (Fig. 1c).

Following ThunderGP's scheme, which the paper adopts verbatim: a graph with
``V`` vertices is cut into ``ceil(V / U)`` partitions, the i-th owning the
destination-vertex interval ``[i*U, (i+1)*U)``.  Each partition's edge list
contains every edge whose destination falls in its interval, in ascending
(src, dst) order — the invariant the Vertex Loader's last-block cache
relies on.  :func:`partition_graph` produces that order itself with one
packed sort of the graph's stored edges, so the graph's own (src, dst)
sort is never needed on the accelerator path.

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

    One sort of the stored edges on the packed ``uint64`` key
    ``pid << (b + u) | src << u | (dst - pid * interval)``, with
    ``pid = dst // interval``, groups the edges by partition and orders
    each partition by (src, dst).  ``b`` and ``u`` are the bit widths of
    the largest source and of the largest in-interval offset; for any
    ``V <= 2**31`` the key fits in 64 bits, and a graph whose key does
    not fit raises ``ValueError`` before anything is allocated.
    Unweighted edges sort the key in place; weighted ones take a stable
    argsort and one weight gather, so duplicate edges keep their stored
    order, as the graph's own stable (src, dst) sort would.  Partition
    bounds are a ``searchsorted`` of each partition's first key.
    """
    check_positive("interval", interval)
    num_vertices = graph.num_vertices
    num_parts = -(-num_vertices // interval)
    pid_bits = (num_parts - 1).bit_length()
    src_bits = (num_vertices - 1).bit_length()
    low_bits = (min(interval, num_vertices) - 1).bit_length()
    if pid_bits + src_bits + low_bits > 64:
        raise ValueError(
            f"partition sort key needs {pid_bits + src_bits + low_bits} "
            f"bits (> 64) for {num_vertices} vertices at interval {interval}"
        )
    src, dst, weights = graph.stored_edges
    shift = src_bits + low_bits
    # key = pid << shift | src << low_bits | (dst - pid * interval), built
    # as pid * (2**shift - interval) + (src << low_bits) + dst; uint64
    # arithmetic wraps modulo 2**64, so the sum is exact.
    key = (dst // interval).view(np.uint64)
    key *= np.uint64(((1 << shift) - interval) % (1 << 64))
    key += src.view(np.uint64) << np.uint64(low_bits)
    key += dst.view(np.uint64)
    if weights is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = weights[order]
    firsts = np.arange(num_parts, dtype=np.uint64) << np.uint64(shift)
    bounds = np.append(np.searchsorted(key, firsts), key.size)
    src = (key >> np.uint64(low_bits)).view(np.int64)
    src &= (1 << src_bits) - 1
    key &= np.uint64((1 << low_bits) - 1)
    dst = key.view(np.int64)

    partitions = []
    for i in range(num_parts):
        lo, hi = bounds[i], bounds[i + 1]
        vertex_lo = i * interval
        if vertex_lo:
            dst[lo:hi] += vertex_lo
        partitions.append(
            Partition(
                index=i,
                vertex_lo=vertex_lo,
                vertex_hi=min(vertex_lo + interval, num_vertices),
                src=src[lo:hi],
                dst=dst[lo:hi],
                weights=None if weights is None else weights[lo:hi],
            )
        )
    return PartitionSet(graph=graph, interval=interval, partitions=partitions)
