"""Intra-cluster task scheduling (Sec. IV-B, Fig. 7b).

Pipelines within a cluster process partitions cooperatively, so partitions
are cut into sub-partitions of near-equal *estimated execution time* — not
equal edge counts, which the paper shows leaves pipelines unbalanced on
irregular graphs.  Cuts are found at window granularity (a fixed number of
edges) so boundaries come out of one prefix-sum scan.

For the Big cluster, every ``N_gpe`` sparse partitions are first merged
into a large sparse partition (one execution's worth); cutting a merged
group hands each Big pipeline a *source-range slice* of the same
destination intervals, and the Big merger combines their buffers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.partition import Partition
from repro.model.perf import PerformanceModel, merge_sources
from repro.sched.plan import BigTask, LittleTask
from repro.utils.prefix import balanced_chunk_bounds

#: Edges per scheduling window (Sec. IV-B estimates time per window).
DEFAULT_WINDOW_EDGES = 1024


def split_dense_for_little(
    dense: Sequence[Partition],
    num_pipelines: int,
    model: PerformanceModel,
    window_edges: int = DEFAULT_WINDOW_EDGES,
    estimates: Optional[Sequence[Tuple[float, np.ndarray]]] = None,
) -> List[List[LittleTask]]:
    """Cut dense partitions into per-pipeline task lists of ~equal time.

    Windows of all dense partitions form one weighted sequence which is
    split into ``num_pipelines`` contiguous chunks; chunk boundaries
    falling inside a partition produce sub-partition slices.

    ``estimates[i]`` is ``model.estimate_little_windows(dense[i].src,
    window_edges)``, computed here when not given.  A task covering a
    whole partition takes its estimate from there; only cut slices are
    estimated again.
    """
    if num_pipelines < 1:
        return []
    assignments: List[List[LittleTask]] = [[] for _ in range(num_pipelines)]
    if not dense:
        return assignments
    if estimates is None:
        estimates = [
            model.estimate_little_windows(p.src, window_edges) for p in dense
        ]

    # Per-window weights, tagged with (partition ordinal, local edge lo).
    # Built with repeat/concatenate instead of a per-window Python loop:
    # window counts per partition expand directly into the owner and
    # local-offset columns.
    per_partition = [windows for _, windows in estimates]
    counts = np.array([w.size for w in per_partition], dtype=np.int64)
    weights = np.concatenate(per_partition)
    owner = np.repeat(np.arange(len(dense), dtype=np.int64), counts)
    local_lo = (
        np.concatenate(
            [np.arange(c, dtype=np.int64) for c in counts]
        ) * window_edges
    )
    bounds = balanced_chunk_bounds(weights, num_pipelines)
    # Starts of owner runs, so chunks walk per-run instead of per-window.
    run_starts = np.flatnonzero(np.diff(owner)) + 1

    for pipe in range(num_pipelines):
        lo_w, hi_w = int(bounds[pipe]), int(bounds[pipe + 1])
        if hi_w <= lo_w:
            continue
        # Group this chunk's windows by owning partition and slice once
        # per (partition, contiguous window run).
        inner = run_starts[
            (run_starts > lo_w) & (run_starts < hi_w)
        ]
        starts = [lo_w] + [int(s) for s in inner]
        ends = starts[1:] + [hi_w]
        for w, run_end in zip(starts, ends):
            ordinal = int(owner[w])
            partition = dense[ordinal]
            edge_lo = int(local_lo[w])
            edge_hi = (
                partition.num_edges
                if run_end == owner.size or owner[run_end] != ordinal
                else int(local_lo[run_end])
            )
            edge_hi = min(edge_hi, partition.num_edges)
            sub = partition.slice(edge_lo, edge_hi)
            if sub.num_edges == partition.num_edges:
                est = estimates[ordinal][0]
            else:
                est = model.estimate_little_execution(sub.src)
            assignments[pipe].append(LittleTask(sub, est))
    return assignments


def merge_sparse_groups(
    sparse: Sequence[Partition],
    group_size: int,
) -> List[List[Partition]]:
    """Merge every ``group_size`` sparse partitions into one group.

    Groups preserve ascending destination-interval order, which the Big
    pipeline's Gather PE base lookup requires.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    ordered = sorted(sparse, key=lambda p: p.vertex_lo)
    return [
        ordered[i : i + group_size]
        for i in range(0, len(ordered), group_size)
    ]


def _slice_group_by_src(
    group: Sequence[Partition],
    src_lo: int,
    src_hi: int,
) -> List[Partition]:
    """Slice every partition of a group to edges with src in [lo, hi)."""
    out = []
    for partition in group:
        lo = int(np.searchsorted(partition.src, src_lo, side="left"))
        hi = int(np.searchsorted(partition.src, src_hi, side="left"))
        out.append(partition.slice(lo, hi))
    return out


def split_groups_for_big(
    groups: Sequence[Sequence[Partition]],
    num_pipelines: int,
    model: PerformanceModel,
    window_edges: int = DEFAULT_WINDOW_EDGES,
) -> List[List[BigTask]]:
    """Distribute merged sparse groups over Big pipelines by modelled time.

    The window sequence of all groups (in merged ascending-source order)
    is split into ``num_pipelines`` chunks.  A chunk boundary inside a
    group becomes a source-range cut: each pipeline executes the same
    destination intervals over disjoint source ranges.
    """
    if num_pipelines < 1:
        return []
    assignments: List[List[BigTask]] = [[] for _ in range(num_pipelines)]
    if not groups:
        return assignments

    merged_srcs = []
    group_weights = []
    for group in groups:
        src = merge_sources([p.src for p in group])
        merged_srcs.append(src)
        group_weights.append(
            model.window_weights(src, "big", window_edges)
        )

    # Global window sequence across groups.
    weights = (
        np.concatenate(group_weights)
        if group_weights
        else np.zeros(0)
    )
    group_of_window = np.concatenate(
        [np.full(w.size, gi) for gi, w in enumerate(group_weights)]
    )
    first_window = np.concatenate(
        ([0], np.cumsum([w.size for w in group_weights])[:-1])
    )
    bounds = balanced_chunk_bounds(weights, num_pipelines)
    # Starts of group runs, so chunks walk per-run instead of per-window.
    run_starts = np.flatnonzero(np.diff(group_of_window)) + 1

    for pipe in range(num_pipelines):
        lo_w, hi_w = int(bounds[pipe]), int(bounds[pipe + 1])
        inner = run_starts[(run_starts > lo_w) & (run_starts < hi_w)]
        starts = [lo_w] + [int(s) for s in inner] if hi_w > lo_w else []
        ends = starts[1:] + [hi_w] if starts else []
        for w, run_end in zip(starts, ends):
            gi = int(group_of_window[w])
            src = merged_srcs[gi]
            edge_lo = int(w - first_window[gi]) * window_edges
            if (
                run_end < group_of_window.size
                and group_of_window[run_end] == gi
            ):
                edge_hi = int(run_end - first_window[gi]) * window_edges
            else:
                edge_hi = src.size
            edge_hi = min(edge_hi, src.size)
            src_lo = int(src[edge_lo]) if edge_lo < src.size else int(src[-1]) + 1
            src_hi = int(src[edge_hi]) if edge_hi < src.size else int(src[-1]) + 1
            sliced = _slice_group_by_src(groups[gi], src_lo, src_hi)
            if sum(p.num_edges for p in sliced):
                est = model.estimate_big_group([p.src for p in sliced])
                assignments[pipe].append(BigTask(list(sliced), est))
    return assignments
