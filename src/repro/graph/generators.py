"""Synthetic graph generators.

The paper evaluates on RMAT/Kronecker graphs [22], a Graph500 graph [33] and
a dozen real-world web/social graphs (Table III).  Real datasets are not
available offline, so :mod:`repro.graph.datasets` instantiates stand-ins from
the generators here:

* :func:`rmat_graph` — recursive-matrix Kronecker generator, the exact family
  behind ``rmat-19-32`` / ``rmat-21-32`` / ``rmat-24-16`` and Graph500.
* :func:`power_law_graph` — configurable-skew preferential generator used to
  mimic each real graph's V/E/degree-skew signature.
* :func:`erdos_renyi_graph` — uniform random graph, the "no skew" control
  used by tests and ablations.

All generators are deterministic in ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.coo import Graph
from repro.utils.validation import check_positive, check_probability


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: str = "rmat",
) -> Graph:
    """Generate an RMAT graph with ``2**scale`` vertices.

    Edge endpoints are drawn by descending ``scale`` levels of the 2x2
    recursive matrix with quadrant probabilities (a, b, c, d = 1-a-b-c),
    the standard Graph500 parameterisation.  Duplicate edges and self loops
    are kept, as Graph500 generators do.
    """
    check_positive("scale", scale)
    if scale > 32:
        raise ValueError(
            f"scale must be <= 32 (vertex IDs are 32-bit words), got {scale}"
        )
    check_positive("edge_factor", edge_factor)
    for nm, p in (("a", a), ("b", b), ("c", c)):
        check_probability(nm, p)
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must be <= 1")

    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor

    # Descend the recursion one bit level at a time, fully vectorised, in
    # place on 32-bit accumulators with one reused draw buffer.
    src = np.zeros(num_edges, dtype=np.uint32)
    dst = np.zeros(num_edges, dtype=np.uint32)
    r = np.empty(num_edges)
    ab, abc = a + b, a + b + c
    for _ in range(scale):
        rng.random(out=r)
        src <<= 1
        src |= r >= ab
        dst <<= 1
        dst |= (r >= a) & (r < ab) | (r >= abc)
    # Scramble IDs so the heavy quadrant is not trivially the low ID range;
    # real Graph500 applies a similar permutation.  Indexing the int64
    # permutation widens the IDs back to int64.
    perm = rng.permutation(num_vertices)
    return Graph(num_vertices, perm[src], perm[dst], name=name)


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.0,
    seed: int = 0,
    name: str = "powerlaw",
    undirected: bool = False,
) -> Graph:
    """Generate a graph whose in/out degrees follow a Zipf-like power law.

    Endpoints are sampled independently from a discrete distribution
    ``p(rank) ~ rank**-exponent`` over a random vertex permutation, which
    yields the "few hot vertices" structure (Sec. II-A) that drives the
    dense/sparse partition split.  With ``undirected=True`` each sampled
    edge is mirrored, emulating the undirected datasets of Table III.
    """
    check_positive("num_vertices", num_vertices)
    check_positive("num_edges", num_edges)
    if exponent <= 0:
        raise ValueError(f"exponent must be > 0, got {exponent}")

    rng = np.random.default_rng(seed)
    n_draw = num_edges // 2 if undirected else num_edges
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    pmf = ranks ** (-exponent)
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    sample = _inverse_cdf_sampler(cdf)

    perm = rng.permutation(num_vertices)
    src = perm[sample(rng.random(n_draw))]
    dst = perm[sample(rng.random(n_draw))]
    if undirected:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    return Graph(num_vertices, src, dst, name=name)


def _inverse_cdf_sampler(cdf: np.ndarray):
    """``u -> np.searchsorted(cdf, u, side="left")`` for draws in [0, 1).

    ``cdf`` is a nondecreasing CDF; its last entry is raised to 1.0 in
    place, so summation round-off cannot leave a draw past the end.

    A guide table over ``K`` equal buckets of [0, 1) (``K`` a power of
    two, so ``cdf * K`` and ``u * K`` are exact) holds
    ``guide[k] = #{i : cdf[i] < k / K}``, the answer for the bucket's
    lower edge.  A draw in bucket ``k`` starts there; only draws with
    ``cdf[guide[k]] < u`` (a CDF step inside the bucket) fall back to a
    binary search.
    """
    cdf[-1] = max(cdf[-1], 1.0)
    size = max(1 << int(cdf.size - 1).bit_length(), 1024)
    buckets = np.floor(cdf * size).astype(np.int64)
    guide = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(buckets, minlength=size + 1)[:size], out=guide[1:])

    def sample(u: np.ndarray) -> np.ndarray:
        idx = guide[(u * size).astype(np.int64)]
        miss = np.flatnonzero(cdf[idx] < u)
        idx[miss] = np.searchsorted(cdf, u[miss], side="left")
        return idx

    return sample


def erdos_renyi_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> Graph:
    """Generate a uniform random directed multigraph (G(n, m) style)."""
    check_positive("num_vertices", num_vertices)
    check_positive("num_edges", num_edges)
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, num_edges, dtype=np.int64)
    return Graph(num_vertices, src, dst, name=name)
