"""Incremental (delta) PageRank.

Instead of re-propagating full scores every sweep, only the *change*
since the last iteration travels along edges: scatter pushes
``delta / out_degree``, gather sums incoming deltas, and apply folds the
damped delta into the rank while emitting the next delta.  On graphs
where most mass converges early this moves far less update traffic —
the same fixed-point datapath, a different algorithmic contract.

Convergence is the natural one: stop when the largest outstanding delta
falls under tolerance.  Final ranks match classic PageRank's fixpoint.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.gas import GasApp
from repro.graph.coo import Graph
from repro.utils.fixed_point import FixedPointFormat


class DeltaPageRank(GasApp):
    """Delta-propagating PageRank over the GAS interface.

    The 32-bit property word carries the *pre-divided pending delta*
    (``delta / out_degree``); ranks accumulate in an app-side array the
    Apply stage owns, mirroring how the hardware keeps the rank vector
    in the Apply module's memory region.
    """

    prop_dtype = np.int64
    #: accGather (Listing 1): sum incoming deltas.
    gather_ufunc = np.add
    gather_identity = 0
    max_iterations = 100

    def __init__(
        self,
        graph: Graph,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        fmt: FixedPointFormat = FixedPointFormat(),
    ):
        super().__init__(graph)
        self.fmt = fmt
        self.damping_fx = int(fmt.from_float(damping))
        self.tolerance_fx = max(int(fmt.from_float(tolerance)), 1)
        self.divisor = np.maximum(graph.out_degrees(), 1)
        base = (1.0 - damping) / graph.num_vertices
        # Fixpoint = sum_k (d P)^k base: rank starts at the teleport term
        # and the teleport term is also the first delta to propagate.
        self.rank_fx = fmt.from_float(np.full(graph.num_vertices, base))
        self._initial_delta = self.rank_fx.copy()

    # -- UDFs ----------------------------------------------------------
    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Push the pre-divided pending delta."""
        return src_props

    def apply(self, old_props, accumulated):
        """Fold the damped delta into the rank; emit the next delta."""
        damped = self.fmt.multiply(self.damping_fx, accumulated)
        self.rank_fx = self.rank_fx + damped
        return damped // self.divisor

    # -- run loop ------------------------------------------------------
    def init_props(self) -> np.ndarray:
        """First sweep propagates the teleport mass (already in rank)."""
        return self._initial_delta // self.divisor

    def has_converged(self, old_props, new_props, iteration) -> bool:
        """Stop when every pending (pre-divided) delta is tiny."""
        pending = np.abs(new_props) * self.divisor
        return bool(pending.max() <= self.tolerance_fx)

    def finalize(self, props: np.ndarray) -> np.ndarray:
        """Converged ranks in float.

        Pending deltas (bounded by the tolerance) belong to *neighbours'*
        future inflow, so they are simply truncated — the same epsilon
        any tolerance-terminated PageRank leaves on the table.
        """
        return self.fmt.to_float(self.rank_fx)

    def traffic_fraction(self, props: np.ndarray) -> float:
        """Fraction of vertices still carrying a non-zero delta —
        the update traffic an incremental sweep actually moves."""
        return float(np.count_nonzero(props)) / self.graph.num_vertices
