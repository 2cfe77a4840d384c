"""COO (coordinate list) graph representation.

ReGraph's input format (Fig. 1b): a directed graph stored as parallel arrays
of source and destination vertex IDs, with the source IDs in ascending order.
The ascending-source invariant is what lets the Big pipeline's Vertex Loader
cache only the last requested block (Sec. III-B), so :class:`Graph` enforces
and tracks it explicitly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_array_1d, check_positive

#: Bytes per vertex ID / property word; "all raw graph data are 32-bit".
VERTEX_WORD_BYTES = 4

#: Bytes per (src, dst) edge record without weights.
EDGE_BYTES = 8

#: Vertex IDs are 32-bit words, so a graph holds at most ``2**32`` vertices.
MAX_VERTICES = 1 << 32


def _sort_edges(src: np.ndarray, dst: np.ndarray, weights):
    """Sort in-range ``int64`` edges by (src, dst) on one packed key.

    Each edge packs into the ``uint64`` key ``src << 32 | dst``, so a
    single sort orders by source and then destination.  Weights need the
    permutation, so they take the stable argsort, which keeps duplicate
    edges' weights in input order.
    """
    key = src.view(np.uint64) << 32
    key |= dst.view(np.uint64)
    if weights is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = weights[order]
    src = (key >> 32).view(np.int64)
    key &= 0xFFFFFFFF
    return src, key.view(np.int64), weights


class Graph:
    """A directed graph in COO format with ascending source vertex IDs.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``V``; vertex IDs are ``0 .. V - 1``.
    src, dst:
        Parallel edge arrays.  They are copied into ``int64`` and sorted by
        (src, dst) unless ``assume_sorted`` is set.  Vertex IDs are 32-bit
        words, so ``num_vertices`` may be at most ``2**32``.
    weights:
        Optional per-edge 32-bit payload (e.g. SSSP edge lengths).
    name:
        Human-readable label used in reports.
    """

    def __init__(
        self,
        num_vertices: int,
        src,
        dst,
        weights=None,
        name: str = "graph",
        assume_sorted: bool = False,
    ):
        check_positive("num_vertices", num_vertices)
        if num_vertices > MAX_VERTICES:
            raise ValueError(
                f"num_vertices must be <= 2**32 (vertex IDs are 32-bit "
                f"words), got {num_vertices}"
            )
        # One copy per input: an explicit one when the order is kept,
        # otherwise the packed sort key below is the copy.
        src = check_array_1d("src", src).astype(np.int64, copy=assume_sorted)
        dst = check_array_1d("dst", dst).astype(np.int64, copy=assume_sorted)
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst must have equal length, "
                f"got {src.size} vs {dst.size}"
            )
        if weights is not None:
            weights = check_array_1d("weights", weights)
            if weights.shape != src.shape:
                raise ValueError("weights must have one entry per edge")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("src IDs out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise ValueError("dst IDs out of range")

        if assume_sorted:
            if weights is not None:
                weights = weights.copy()
        else:
            src, dst, weights = _sort_edges(src, dst, weights)

        self.num_vertices = int(num_vertices)
        self.src = src
        self.dst = dst
        self.weights = weights
        self.name = name
        self._in_degrees: Optional[np.ndarray] = None
        self._out_degrees: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges ``E``."""
        return int(self.src.size)

    @property
    def average_degree(self) -> float:
        """``E / V`` — the ``D`` column of Table III."""
        return self.num_edges / self.num_vertices

    @property
    def edge_bytes(self) -> int:
        """Size of one stored edge record in bytes."""
        return EDGE_BYTES + (VERTEX_WORD_BYTES if self.weights is not None else 0)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (cached)."""
        if self._in_degrees is None:
            self._in_degrees = np.bincount(
                self.dst, minlength=self.num_vertices
            ).astype(np.int64)
        return self._in_degrees

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        if self._out_degrees is None:
            self._out_degrees = np.bincount(
                self.src, minlength=self.num_vertices
            ).astype(np.int64)
        return self._out_degrees

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def relabel(self, mapping: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Return a new graph with vertex ``v`` renamed to ``mapping[v]``.

        ``mapping`` must be a permutation of ``0 .. V - 1`` (an O(V) check
        raises ``ValueError`` otherwise); this is how DBG reordering is
        applied.
        """
        mapping = check_array_1d("mapping", mapping).astype(np.int64)
        if mapping.size != self.num_vertices:
            raise ValueError(
                f"mapping must have {self.num_vertices} entries, "
                f"got {mapping.size}"
            )
        if (
            mapping.min() < 0
            or mapping.max() >= self.num_vertices
            or not np.all(np.bincount(mapping, minlength=self.num_vertices) == 1)
        ):
            raise ValueError("mapping must be a permutation of 0 .. V - 1")
        return Graph(
            self.num_vertices,
            mapping[self.src],
            mapping[self.dst],
            weights=self.weights,
            name=name or self.name,
        )

    def reversed(self) -> "Graph":
        """Return the transpose graph (every edge flipped)."""
        return Graph(
            self.num_vertices,
            self.dst,
            self.src,
            weights=self.weights,
            name=f"{self.name}-rev",
        )

    def with_weights(self, weights) -> "Graph":
        """Return a copy of this graph carrying the given edge weights."""
        return Graph(
            self.num_vertices,
            self.src,
            self.dst,
            weights=weights,
            name=self.name,
            assume_sorted=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges})"
        )
