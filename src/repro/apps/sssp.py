"""Single-Source Shortest Paths — an extension app using edge weights.

Bellman-Ford-style relaxation over the GAS interface: scatter proposes
``dist(src) + weight``, gather and apply keep minima.  Demonstrates the
weighted-edge path of the programming interface (the optional third word
of the COO edge record, Fig. 4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.graph.coo import Graph

#: Sentinel distance for unreachable vertices.
UNREACHED = np.int64(2**40)


class SingleSourceShortestPaths(GasApp):
    """SSSP with non-negative integer weights over the GAS interface."""

    prop_dtype = np.int64
    #: accGather (Listing 1): keep the shortest proposal.
    gather_ufunc = np.minimum
    gather_identity = UNREACHED
    uses_weights = True
    max_iterations = 10_000

    def __init__(self, graph: Graph, root: int = 0):
        super().__init__(graph)
        if not graph.weighted:
            raise ValueError("SSSP needs a weighted graph")
        # An order-free check: it reads the stored weights, never sorting.
        if np.any(graph.stored_edges[2] < 0):
            raise ValueError("SSSP needs non-negative weights")
        if not 0 <= root < graph.num_vertices:
            raise ValueError(f"root {root} out of range")
        self.root = root

    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Relax: propose ``dist + weight`` across each edge."""
        if weights is None:
            raise ValueError("SSSP scatter needs edge weights")
        return np.where(
            src_props < UNREACHED,
            src_props + weights.astype(np.int64),
            UNREACHED,
        )

    def apply(self, old_props, accumulated):
        """Distances only ever decrease."""
        return np.minimum(old_props, accumulated)

    def init_props(self) -> np.ndarray:
        """Root at distance 0, everything else unreached."""
        props = np.full(self.graph.num_vertices, UNREACHED, dtype=np.int64)
        props[self.root] = 0
        return props
