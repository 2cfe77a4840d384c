"""Degree-based grouping (DBG) vertex reordering.

Sec. II-A: ReGraph applies the lightweight DBG technique of Faldu et al.
[12] before partitioning.  Vertices are bucketed by in-degree into
power-of-two groups anchored at the average degree; groups are laid out in
descending-degree order and the original vertex order is preserved inside
each group (that stability is what keeps DBG "lightweight" — it is a
counting pass, not a full sort).

After DBG, hot (high in-degree) vertices own the lowest IDs, so the first
few destination-interval partitions concentrate most edges (the *dense*
partitions of Fig. 2) while the tail partitions hold only cold vertices
(the *sparse* partitions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.coo import Graph

#: Number of degree groups used by DBG (Faldu et al. use 8).
DBG_NUM_GROUPS = 8


@dataclass(frozen=True)
class DbgResult:
    """Outcome of DBG: the relabelled graph and the permutation used.

    ``mapping[v]`` is the new ID of original vertex ``v``;
    ``inverse[n]`` recovers the original ID of new vertex ``n``.
    """

    graph: Graph
    mapping: np.ndarray
    inverse: np.ndarray
    group_sizes: np.ndarray

    def restore(self, properties: np.ndarray) -> np.ndarray:
        """Permute per-vertex ``properties`` back to original vertex order."""
        return properties[self.mapping]


def _group_of(degrees: np.ndarray, num_groups: int) -> np.ndarray:
    """Assign each vertex a group index; higher group = higher degree.

    Group ``g`` (for ``g >= 1``) holds vertices with degree in
    ``[avg * 2**(g-1), avg * 2**g)``; group 0 holds degrees below the
    average.  The top group is open-ended.
    """
    avg = max(degrees.mean(), 1.0)
    thresholds = avg * (2.0 ** np.arange(num_groups - 1))
    return np.digitize(degrees, thresholds)


def degree_based_grouping(
    graph: Graph,
    num_groups: int = DBG_NUM_GROUPS,
) -> DbgResult:
    """Apply DBG to ``graph`` and return the relabelled result.

    Complexity is O(V) plus the O(E) relabel, matching the preprocessing
    costs reported in Table IV.
    """
    if num_groups < 2:
        raise ValueError(f"num_groups must be >= 2, got {num_groups}")
    degrees = graph.in_degrees()
    groups = _group_of(degrees, num_groups)
    # Stable counting order: descending group, original ID preserved
    # within.  A small unsigned key makes the stable sort a radix pass.
    rank = num_groups - 1 - groups
    order = np.argsort(
        rank.astype(np.min_scalar_type(num_groups - 1)), kind="stable"
    )
    mapping = np.empty(graph.num_vertices, dtype=np.int64)
    mapping[order] = np.arange(graph.num_vertices, dtype=np.int64)
    relabelled = graph.relabel(mapping, name=graph.name)
    group_sizes = np.bincount(groups, minlength=num_groups).astype(np.int64)
    return DbgResult(
        graph=relabelled,
        mapping=mapping,
        inverse=order.astype(np.int64),
        group_sizes=group_sizes,
    )


def identity_ordering(graph: Graph) -> DbgResult:
    """A no-op "reordering" used to ablate DBG (Fig. 2's grey markers)."""
    ident = np.arange(graph.num_vertices, dtype=np.int64)
    return DbgResult(
        graph=graph,
        mapping=ident,
        inverse=ident.copy(),
        group_sizes=np.array([graph.num_vertices], dtype=np.int64),
    )
