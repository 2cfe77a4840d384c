"""Sparse matrix-vector multiplication over the GAS interface.

GraphLily — one of the paper's baselines — expresses all graph algorithms
through SpMV/SpMSpV primitives.  Implementing SpMV as a ReGraph app shows
the GAS interface subsumes the overlay's primitive: ``y = A @ x`` where
``A`` is the (weighted) adjacency matrix in COO and ``x`` the current
property vector.  One iteration per multiply; chaining iterations gives
power-method style kernels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.graph.coo import Graph
from repro.utils.fixed_point import FixedPointFormat


class SpMV(GasApp):
    """One ``y = A @ x`` per iteration, fixed-point like the hardware."""

    prop_dtype = np.int64
    #: accGather (Listing 1): row dot-product accumulation.
    gather_ufunc = np.add
    gather_identity = 0
    #: scatter multiplies by the edge's matrix entry
    uses_weights = True
    max_iterations = 1

    def __init__(self, graph: Graph, x: np.ndarray,
                 fmt: FixedPointFormat = FixedPointFormat()):
        super().__init__(graph)
        if x.shape != (graph.num_vertices,):
            raise ValueError(
                f"x must have one entry per vertex, got shape {x.shape}"
            )
        self.fmt = fmt
        self._x0 = fmt.from_float(np.asarray(x, dtype=np.float64))

    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Multiply ``x[src]`` by the edge's matrix entry (1 if none)."""
        if weights is None:
            return src_props
        return self.fmt.multiply(src_props, self.fmt.from_float(weights))

    def apply(self, old_props, accumulated):
        """The new vector is the accumulated product."""
        return accumulated

    def init_props(self) -> np.ndarray:
        return self._x0.copy()

    def has_converged(self, old_props, new_props, iteration) -> bool:
        """SpMV is a single sweep; run exactly ``max_iterations``."""
        return iteration >= self.max_iterations

    def finalize(self, props: np.ndarray) -> np.ndarray:
        return self.fmt.to_float(props)


def spmv_reference(graph: Graph, x: np.ndarray) -> np.ndarray:
    """Dense reference ``y = A @ x`` over the COO edges."""
    y = np.zeros(graph.num_vertices)
    contrib = x[graph.src]
    if graph.weights is not None:
        contrib = contrib * graph.weights
    np.add.at(y, graph.dst, contrib)
    return y
