"""PageRank in fixed-point arithmetic (the paper's PR benchmark).

Matches Listing 1: the stored vertex property is the *pre-divided* score
``rank / out_degree``; scatter pushes it unchanged, gather accumulates by
addition, and apply computes ``(base + d * acc) / out_degree``.  Like
ThunderGP and GraphLily (Sec. VI-A), all arithmetic uses a fixed-point
datatype so Gather PEs sustain II = 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.graph.coo import Graph
from repro.utils.fixed_point import FixedPointFormat


class PageRank(GasApp):
    """Fixed-point PageRank over the GAS interface."""

    prop_dtype = np.int64
    #: accGather: sum of incoming scores (Listing 1, lines 5-6).
    gather_ufunc = np.add
    gather_identity = 0
    max_iterations = 20

    def __init__(
        self,
        graph: Graph,
        damping: float = 0.85,
        tolerance: float = 1e-6,
        fmt: FixedPointFormat = FixedPointFormat(),
    ):
        super().__init__(graph)
        self.fmt = fmt
        self.damping_fx = int(fmt.from_float(damping))
        self.base_fx = int(fmt.from_float((1.0 - damping) / graph.num_vertices))
        self.tolerance_fx = max(int(fmt.from_float(tolerance)), 1)
        # Zero-out-degree vertices divide by one, the ThunderGP convention.
        self.divisor = np.maximum(graph.out_degrees(), 1)

    # -- UDFs ----------------------------------------------------------
    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """accScatter: push the pre-divided score (Listing 1, lines 2-3)."""
        return src_props

    def apply(self, old_props, accumulated):
        """accApply: damp, add base rank, pre-divide by out-degree."""
        new_rank = self.base_fx + self.fmt.multiply(
            self.damping_fx, accumulated
        )
        return new_rank // self.divisor

    # -- run loop ------------------------------------------------------
    def init_props(self) -> np.ndarray:
        """Uniform rank ``1/V``, pre-divided by out-degree."""
        rank = self.fmt.from_float(
            np.full(self.graph.num_vertices, 1.0 / self.graph.num_vertices)
        )
        return rank // self.divisor

    def has_converged(self, old_props, new_props, iteration) -> bool:
        """L-inf distance of pre-divided scores under tolerance."""
        return bool(
            np.max(np.abs(new_props - old_props)) <= self.tolerance_fx
        )

    def finalize(self, props: np.ndarray) -> np.ndarray:
        """Recover float ranks from the pre-divided fixed-point scores."""
        return self.fmt.to_float(props * self.divisor)
