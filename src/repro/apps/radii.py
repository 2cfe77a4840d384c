"""Graph radii estimation via multi-source BFS bitmasks.

A Ligra-lineage application (the CPU baseline's flagship beyond BFS/PR):
run BFS from ``k <= 64`` sample sources simultaneously, packing "visited
by source j" into one 64-bit property word per vertex.  The gather UDF is
bitwise OR — associative and II=1-friendly — and a vertex's eccentricity
estimate is the last iteration at which its bitmask grew.  The graph
radius estimate is the maximum over vertices.

Demonstrates a GAS app whose property is a *bitset*, exercising integer
UDFs beyond min/plus semirings.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.apps.reference import _bfs_levels
from repro.graph.coo import Graph
from repro.graph.csr import CsrGraph


class RadiiEstimation(GasApp):
    """Multi-source BFS with 64-wide bit-parallel frontiers."""

    prop_dtype = np.int64
    #: accGather (Listing 1): union of visited-by sets.
    gather_ufunc = np.bitwise_or
    gather_identity = 0
    max_iterations = 512

    def __init__(self, graph: Graph, num_sources: int = 64, seed: int = 0):
        super().__init__(graph)
        if not 1 <= num_sources <= 64:
            raise ValueError("num_sources must be in [1, 64]")
        rng = np.random.default_rng(seed)
        count = min(num_sources, graph.num_vertices)
        self.sources = rng.choice(graph.num_vertices, count, replace=False)
        self._round = 0
        self.eccentricity = np.zeros(graph.num_vertices, dtype=np.int64)

    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Propagate the source's visited-by bitmask."""
        return src_props

    def apply(self, old_props, accumulated):
        """Union with the previous mask; track growth for eccentricity."""
        new_props = old_props | accumulated
        self._round += 1
        grew = new_props != old_props
        self.eccentricity[grew] = self._round
        return new_props

    def init_props(self) -> np.ndarray:
        props = np.zeros(self.graph.num_vertices, dtype=np.int64)
        for j, source in enumerate(self.sources):
            props[source] |= np.int64(1) << j
        return props

    def finalize(self, props: np.ndarray) -> dict:
        """Radius/diameter estimates over the sampled sources."""
        reached = props != 0
        return {
            "eccentricity": self.eccentricity,
            "radius_estimate": int(
                self.eccentricity[reached].min() if reached.any() else 0
            ),
            "diameter_estimate": int(self.eccentricity.max()),
            "reached": int(reached.sum()),
        }


def radii_reference(graph: Graph, sources: np.ndarray) -> int:
    """Diameter lower bound from per-source BFS (reference)."""
    csr = CsrGraph.from_coo(graph)
    worst = 0
    for source in sources:
        levels = _bfs_levels(csr, int(source))
        finite = levels[levels < 2**31 - 1]
        worst = max(worst, int(finite.max()) if finite.size else 0)
    return worst
