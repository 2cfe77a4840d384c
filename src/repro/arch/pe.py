"""Scatter and Gather processing-element arrays (functional model).

The Scatter PEs evaluate the user's ``accScatter`` on each edge; the Gather
PEs fold ``accGather`` into on-chip destination buffers.  The arrays here
execute the real UDFs (vectorised) so the simulated accelerator produces
*actual algorithm results*, which the tests validate against NumPy and
networkx references.

Two dispatch disciplines exist, exactly as in Sec. III:

* **static** (Little pipeline): tuple ``i`` of a set goes to PE ``i mod
  N_gpe``; all PEs buffer the *same* destination interval and a Merger
  combines them afterwards.
* **routed** (Big pipeline): the Data Router sends each tuple to the PE
  whose buffer owns its destination partition; PEs buffer *distinct*
  partitions and need no merger, letting one execution cover ``N_gpe``
  partitions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.arch.router import ButterflyRouter


def routed_dispatch(bases: np.ndarray, dst: np.ndarray):
    """Per-edge ``(lane, slot)`` under Data Router dispatch: each tuple
    goes to the PE whose buffer owns its destination partition
    (``bases`` ascending, one per active PE).
    """
    bases = np.asarray(bases, dtype=np.int64)
    lane = np.searchsorted(bases, dst, side="right") - 1
    slot = np.asarray(dst, dtype=np.int64) - bases[lane]
    return lane, slot


class ScatterPeArray:
    """``n_spe`` Scatter PEs applying the app's scatter UDF per edge."""

    def __init__(self, n_spe: int):
        if n_spe < 1:
            raise ValueError("n_spe must be >= 1")
        self.n_spe = n_spe

    def process(self, app, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """Compute update values for a batch of edges."""
        return app.scatter(src_props, weights)


class GatherPeArray:
    """``n_gpe`` Gather PEs with per-PE destination buffers."""

    def __init__(self, n_gpe: int, buffer_vertices: int, routed: bool):
        if n_gpe < 1:
            raise ValueError("n_gpe must be >= 1")
        self.n_gpe = n_gpe
        self.buffer_vertices = buffer_vertices
        self.routed = routed
        self.router = ButterflyRouter(n_gpe) if routed else None
        self._buffers: List[np.ndarray] = []
        self._bases: np.ndarray = np.zeros(0, dtype=np.int64)

    def reset(self, app, bases) -> None:
        """Initialise the gather buffers with the app's identity value.

        ``bases``: in routed mode, one destination-interval base per active
        PE (ascending, at most ``n_gpe`` of them); in static mode a single
        base — all PEs replicate the same interval.
        """
        if self.routed:
            self._bases = np.asarray(bases, dtype=np.int64).ravel()
            if self._bases.size > self.n_gpe:
                raise ValueError(
                    f"routed mode takes at most {self.n_gpe} partition "
                    f"bases, got {self._bases.size}"
                )
            if np.any(np.diff(self._bases) <= 0):
                raise ValueError("partition bases must be ascending")
            active = self._bases.size
        else:
            self._bases = np.asarray([int(bases)], dtype=np.int64)
            active = self.n_gpe
        self._buffers = [
            np.full(
                self.buffer_vertices, app.gather_identity, dtype=app.prop_dtype
            )
            for _ in range(active)
        ]

    def absorb(self, app, dst: np.ndarray, updates: np.ndarray) -> None:
        """Fold a batch of update tuples into the PE buffers."""
        if dst.size == 0:
            return
        if self.routed:
            lane_of, slot = routed_dispatch(self._bases, dst)
            slot_lanes = self.router.route(lane_of, slot)
            update_lanes = self.router.route(lane_of, updates)
            for pe, buf in enumerate(self._buffers):
                if slot_lanes[pe].size:
                    app.gather_at(buf, slot_lanes[pe], update_lanes[pe])
        else:
            offset = dst - self._bases[0]
            for pe, buf in enumerate(self._buffers):
                sel = slice(pe, None, self.n_gpe)
                if offset[sel].size:
                    app.gather_at(buf, offset[sel], updates[sel])

    def drain(self) -> List[np.ndarray]:
        """Return the per-PE buffers.

        Routed mode yields one distinct-partition buffer per active PE;
        static mode yields replicated buffers for the Merger to combine
        (:func:`repro.arch.merger.merge_buffers`).
        """
        return self._buffers
