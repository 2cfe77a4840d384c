"""COO (coordinate list) graph representation.

ReGraph's input format (Fig. 1b): a directed graph stored as parallel arrays
of source and destination vertex IDs, with the source IDs in ascending order.
The ascending-source invariant is what lets the Big pipeline's Vertex Loader
cache only the last requested block (Sec. III-B).

:class:`Graph` sorts on first read.  The constructor validates and stores
the edges in the order given; the ``src``/``dst``/``weights`` properties
sort them by (src, dst) the first time one is read and keep the result.
Readers that do not depend on edge order (degrees, :meth:`Graph.relabel`,
:meth:`Graph.reversed`, partitioning, the functional lowering) use the
stored edges and never pay for that sort: on the accelerator path the
ascending-source order is produced per partition by
:func:`~repro.graph.partition.partition_graph`'s one packed sort.
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
        Parallel edge arrays, copied into ``int64`` in the order given and
        sorted by (src, dst) on first read of ``src``/``dst``/``weights``.
        Both sorts are stable over the given order, so duplicate edges keep
        it.  Vertex IDs are 32-bit words, so ``num_vertices`` may be at
        most ``2**32``.
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
    ):
        check_positive("num_vertices", num_vertices)
        if num_vertices > MAX_VERTICES:
            raise ValueError(
                f"num_vertices must be <= 2**32 (vertex IDs are 32-bit "
                f"words), got {num_vertices}"
            )
        src = check_array_1d("src", src).astype(np.int64)
        dst = check_array_1d("dst", dst).astype(np.int64)
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst must have equal length, "
                f"got {src.size} vs {dst.size}"
            )
        if weights is not None:
            weights = check_array_1d("weights", weights)
            if weights.shape != src.shape:
                raise ValueError("weights must have one entry per edge")
            weights = weights.copy()
        # Viewed as uint64 a negative ID is >= 2**63, so one max per
        # array checks both bounds.
        if src.size and src.view(np.uint64).max() >= num_vertices:
            raise ValueError("src IDs out of range")
        if dst.size and dst.view(np.uint64).max() >= num_vertices:
            raise ValueError("dst IDs out of range")

        self.num_vertices = int(num_vertices)
        self.name = name
        #: The edges as given until the first sorted read, then sorted.
        self._edges = (src, dst, weights)
        self._sorted = False
        self._in_degrees: Optional[np.ndarray] = None
        self._out_degrees: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Edge arrays
    # ------------------------------------------------------------------
    def _sorted_edges(self):
        """The edges sorted by (src, dst), sorting them on the first call.

        Two threads racing on the first call both sort the same stored
        edges (sorting sorted edges is the identity), so the race only
        repeats identical work.
        """
        if not self._sorted:
            self._edges = _sort_edges(*self._edges)
            self._sorted = True
        return self._edges

    @property
    def src(self) -> np.ndarray:
        """Source vertex of each edge, ascending."""
        return self._sorted_edges()[0]

    @property
    def dst(self) -> np.ndarray:
        """Destination of each edge, ascending within one source."""
        return self._sorted_edges()[1]

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Per-edge weight in (src, dst) order, or None."""
        return self._sorted_edges()[2]

    @property
    def stored_edges(self):
        """``(src, dst, weights)`` in whatever order they are stored.

        For readers whose result does not depend on edge order; reading
        these never sorts.
        """
        return self._edges

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges ``E``."""
        return int(self._edges[0].size)

    @property
    def average_degree(self) -> float:
        """``E / V`` — the ``D`` column of Table III."""
        return self.num_edges / self.num_vertices

    @property
    def weighted(self) -> bool:
        """Whether the edges carry weights (never sorts)."""
        return self._edges[2] is not None

    @property
    def edge_bytes(self) -> int:
        """Size of one stored edge record in bytes."""
        return EDGE_BYTES + (VERTEX_WORD_BYTES if self.weighted else 0)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (cached)."""
        if self._in_degrees is None:
            self._in_degrees = np.bincount(
                self._edges[1], minlength=self.num_vertices
            ).astype(np.int64)
        return self._in_degrees

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        if self._out_degrees is None:
            self._out_degrees = np.bincount(
                self._edges[0], minlength=self.num_vertices
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
        src, dst, weights = self._edges
        relabelled = Graph(
            self.num_vertices,
            mapping[src],
            mapping[dst],
            weights=weights,
            name=name or self.name,
        )
        # A degree already counted moves with its vertex: O(V), not O(E).
        for attr in ("_in_degrees", "_out_degrees"):
            degrees = getattr(self, attr)
            if degrees is not None:
                moved = np.empty_like(degrees)
                moved[mapping] = degrees
                setattr(relabelled, attr, moved)
        return relabelled

    def reversed(self) -> "Graph":
        """Return the transpose graph (every edge flipped)."""
        src, dst, weights = self._edges
        return Graph(
            self.num_vertices,
            dst,
            src,
            weights=weights,
            name=f"{self.name}-rev",
        )

    def with_weights(self, weights) -> "Graph":
        """Return a copy of this graph carrying the given edge weights.

        ``weights[i]`` belongs to edge ``(src[i], dst[i])`` of the sorted
        edge arrays.
        """
        return Graph(
            self.num_vertices,
            self.src,
            self.dst,
            weights=weights,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges})"
        )
