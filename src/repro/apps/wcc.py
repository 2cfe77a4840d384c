"""Weakly Connected Components — an extension app.

Label propagation over the GAS interface: every vertex starts with its own
ID as label; edges propagate the minimum label until a fixpoint.  On a
directed graph this computes components of the *directed reachability
closure* per sweep direction; run it on ``graph + graph.reversed()`` (or
an undirected dataset) for true weak components — the helper
:func:`symmetrized` does that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.graph.coo import Graph


def symmetrized(graph: Graph) -> Graph:
    """Union of the graph and its transpose, for weak-component runs.

    The union is unweighted, so its sorted edges do not depend on the
    input's edge order: it reads the stored edges, which never sorts.
    """
    src, dst, _ = graph.stored_edges
    return Graph(
        graph.num_vertices,
        np.concatenate((src, dst)),
        np.concatenate((dst, src)),
        name=f"{graph.name}-sym",
    )


class WeaklyConnectedComponents(GasApp):
    """Min-label propagation over the GAS interface."""

    prop_dtype = np.int64
    #: accGather (Listing 1): keep the smallest label.
    gather_ufunc = np.minimum
    gather_identity = np.int64(2**31 - 1)
    max_iterations = 1000

    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Propagate the source's current label."""
        return src_props

    def apply(self, old_props, accumulated):
        """Labels only ever decrease."""
        return np.minimum(old_props, accumulated)

    def init_props(self) -> np.ndarray:
        """Every vertex starts in its own component."""
        return np.arange(self.graph.num_vertices, dtype=np.int64)
