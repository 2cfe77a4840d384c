"""Breadth-First Search (the paper's BFS benchmark).

Edge-centric BFS in the GAS model: the property is the vertex's BFS level
(a large sentinel when unvisited); scatter proposes ``level + 1`` across
each edge, gather keeps the minimum, and apply takes the min of the old
level and the proposal.  The run loop converges when no level changes —
each iteration is one full edge sweep, the execution style of ThunderGP
whose TEPS figures Table V compares against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.graph.coo import Graph

#: Sentinel level for unvisited vertices (fits a 32-bit property word).
UNVISITED = np.int64(2**31 - 1)


class BreadthFirstSearch(GasApp):
    """Level-synchronous BFS over the GAS interface."""

    prop_dtype = np.int64
    #: accGather (Listing 1): keep the smallest proposed level.
    gather_ufunc = np.minimum
    gather_identity = UNVISITED
    max_iterations = 1000

    def __init__(self, graph: Graph, root: int = 0):
        super().__init__(graph)
        if not 0 <= root < graph.num_vertices:
            raise ValueError(f"root {root} out of range")
        self.root = root

    # -- UDFs ----------------------------------------------------------
    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Propose ``level + 1``; unvisited sources propose the sentinel."""
        return np.where(src_props < UNVISITED, src_props + 1, UNVISITED)

    def apply(self, old_props, accumulated):
        """A vertex's level only ever decreases."""
        return np.minimum(old_props, accumulated)

    # -- run loop ------------------------------------------------------
    def init_props(self) -> np.ndarray:
        """Root at level 0, everything else unvisited."""
        props = np.full(self.graph.num_vertices, UNVISITED, dtype=np.int64)
        props[self.root] = 0
        return props

    def finalize(self, props: np.ndarray) -> np.ndarray:
        """BFS levels; unvisited vertices keep the sentinel."""
        return props
