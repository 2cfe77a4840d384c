"""Frozen copies of the cold path's former eager implementations.

The graph used to sort its edges by (src, dst) in its constructor,
``partition_graph`` used to stable-argsort that sorted graph by partition
ID, and ``PingPongBufferSim.access_structure`` used to evaluate its block,
segment and rank arrays per edge.  These copies are the references the
sort-once paths are checked against; they are test-only and must not
change.
"""

from __future__ import annotations

import numpy as np

from repro.arch.pingpong import PingPongStats


def eager_sort_edges(src, dst, weights=None):
    """The (src, dst) sort the graph constructor used to run."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    key = src.view(np.uint64) << 32
    key |= dst.view(np.uint64)
    if weights is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = np.asarray(weights)[order]
    src = (key >> 32).view(np.int64)
    key &= 0xFFFFFFFF
    return src, key.view(np.int64), weights


def two_sort_partitions(num_vertices, src, dst, weights, interval):
    """``[(vertex_lo, vertex_hi, src, dst, weights)]`` of the former
    partitioner: eager (src, dst) sort, then a stable sort on the ID."""
    src, dst, weights = eager_sort_edges(src, dst, weights)
    num_parts = -(-num_vertices // interval)
    pid = dst // interval
    order = np.argsort(
        pid.astype(np.min_scalar_type(num_parts - 1)), kind="stable"
    )
    src = src[order]
    dst = dst[order]
    weights = None if weights is None else weights[order]
    counts = np.bincount(pid, minlength=num_parts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    out = []
    for i in range(num_parts):
        lo, hi = bounds[i], bounds[i + 1]
        out.append((
            i * interval,
            min((i + 1) * interval, num_vertices),
            src[lo:hi],
            dst[lo:hi],
            None if weights is None else weights[lo:hi],
        ))
    return out


def per_edge_access_structure(config, src):
    """The former per-edge ``PingPongBufferSim.access_structure``."""
    if src.size == 0:
        return np.zeros(0), PingPongStats(0, 0, 0, 0, 0)

    k = config.edges_per_set
    src = np.asarray(src, dtype=np.int64)
    num_sets = -(-src.size // k)
    last_of_set = np.minimum(
        np.arange(1, num_sets + 1) * k - 1, src.size - 1
    )
    blocks = src // config.vertices_per_block
    base = blocks[0]
    rel = blocks - base
    span = int(rel[-1] + 1)

    seg_blocks = config.pingpong_blocks_per_side
    segments = rel // seg_blocks
    if config.jump_access:
        seg_rank = np.cumsum(np.diff(segments, prepend=0) != 0)
    else:
        seg_rank = segments
    num_needed = int(seg_rank[-1]) + 1

    fill_pos = seg_rank * seg_blocks + (rel - segments * seg_blocks) + 1.0
    fill_at_set = fill_pos[last_of_set]

    fetched = num_needed * seg_blocks
    tail_waste = seg_blocks - (int(rel[-1]) % seg_blocks + 1)
    fetched -= tail_waste
    fetched = min(fetched, span)
    stats = PingPongStats(
        num_edges=int(src.size),
        num_sets=num_sets,
        blocks_fetched=fetched,
        blocks_skipped=max(span - fetched, 0),
        span_blocks=span,
    )
    return fill_at_set, stats
