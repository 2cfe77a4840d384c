"""The Gather-Apply-Scatter programming interface (Sec. V-B, Listing 1).

An application defines three UDFs over 32-bit vertex properties:

* ``scatter(src_prop, edge_prop)`` — the update value an edge carries;
* ``gather(buffered, value)`` — an associative, commutative combiner the
  Gather PEs fold at II = 1, declared once as the binary NumPy ufunc
  ``gather_ufunc``;
* ``apply(old_prop, accumulated)`` — the per-vertex property update run
  by the Apply module between iterations.

Implementations are NumPy-vectorised: UDFs receive arrays and return
arrays, which is how the simulator executes millions of edges while still
running the *user's* logic on every edge.

The property word must be an integer dtype.  Integer ``add`` (wrapping
modulo 2**64), ``minimum``, ``maximum`` and ``bitwise_or`` are then
*exactly* associative and commutative, so any grouping of one vertex's
updates folds to the same bits — the hardware's per-PE buffers plus
Merger, or the compiled core's one reduction per destination
(:mod:`repro.compiled.functional`).  Construction enforces both halves
of that contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.graph.coo import Graph


class GasApp(ABC):
    """Base class for GAS applications."""

    #: dtype of the vertex property word (int64 raw for fixed point).
    prop_dtype: np.dtype = np.int64

    #: The gather combiner: a binary ``np.ufunc`` that is associative
    #: and commutative on ``prop_dtype`` (e.g. ``np.add``,
    #: ``np.minimum``, ``np.bitwise_or``).  ``gather`` and ``gather_at``
    #: are derived from it.
    gather_ufunc: Optional[np.ufunc] = None

    #: identity element of the gather combiner (0 for +, INF for min).
    gather_identity = 0

    #: whether the scatter UDF consumes edge weights.
    uses_weights: bool = False

    #: default iteration cap for the run loop.
    max_iterations: int = 100

    def __init__(self, graph: Graph):
        cls = type(self)
        ufunc = cls.gather_ufunc
        if not (isinstance(ufunc, np.ufunc) and ufunc.nin == 2
                and ufunc.nout == 1):
            raise TypeError(
                f"{cls.__name__}.gather_ufunc must be a binary np.ufunc, "
                f"got {ufunc!r}"
            )
        if not np.issubdtype(np.dtype(cls.prop_dtype), np.integer):
            raise TypeError(
                f"{cls.__name__}.prop_dtype must be an integer dtype, "
                f"got {np.dtype(cls.prop_dtype)}"
            )
        self.graph = graph

    # ------------------------------------------------------------------
    # The three UDFs
    # ------------------------------------------------------------------
    @abstractmethod
    def scatter(self, src_props: np.ndarray, weights: Optional[np.ndarray]):
        """accScatter: update value per edge (vectorised).

        Must be elementwise: entry ``i`` of the result depends only on
        ``src_props[i]`` (and ``weights[i]``), never on its position or
        the array's length.  The compiled engine relies on it and
        evaluates an unweighted scatter once per *vertex*, as
        ``scatter(props, None)[src]``; weighted scatters run per edge.
        """

    def gather(self, buffered: np.ndarray, values: np.ndarray):
        """accGather: combine two accumulation arrays (vectorised)."""
        return self.gather_ufunc(buffered, values)

    def gather_at(self, buffer: np.ndarray, idx: np.ndarray, values: np.ndarray):
        """In-place indexed gather: fold ``values`` into ``buffer[idx]``.

        The unbuffered ``ufunc.at`` form, so repeated destinations
        combine correctly, exactly like the hardware's read-modify-write
        with shift-register hazard resolution (Sec. V-C).
        """
        self.gather_ufunc.at(buffer, idx, values)

    @abstractmethod
    def apply(self, old_props: np.ndarray, accumulated: np.ndarray):
        """accApply: new property per vertex (vectorised)."""

    # ------------------------------------------------------------------
    # Run-loop hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def init_props(self) -> np.ndarray:
        """Initial vertex property array."""

    def has_converged(
        self, old_props: np.ndarray, new_props: np.ndarray, iteration: int
    ) -> bool:
        """Stop when an iteration leaves every property unchanged."""
        return bool(np.array_equal(old_props, new_props))

    def finalize(self, props: np.ndarray):
        """Post-process the final property array into the app's result."""
        return props

    @property
    def name(self) -> str:
        """Short application name used in reports."""
        return type(self).__name__
