"""Inter-cluster task scheduling (Sec. IV-B, Fig. 7a).

Step one marks each partition dense or sparse: *"a partition is marked as
a sparse partition if the estimated execution time on the Big pipeline is
shorter than that on the Little pipeline, otherwise marked as a dense
partition"*.  Step two picks the pipeline split (M Little, N Big) with
``M + N = N_pip`` minimising the imbalance between the two clusters'
total estimated times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.partition import Partition
from repro.model.perf import PerformanceModel
from repro.sched.intra import DEFAULT_WINDOW_EDGES


@dataclass(frozen=True)
class PartitionCosts:
    """Every partition's estimates from one Little and one Big pass.

    ``little[i]`` is ``(estimate, window weights)`` of partition ``i`` on
    the Little pipeline; the intra-cluster scheduler cuts dense
    partitions from those window weights instead of enumerating the
    edges again.  Only window sums are kept, never per-edge costs.
    """

    little: List[Tuple[float, np.ndarray]]
    t_big: List[float]

    @property
    def t_little(self) -> List[float]:
        return [total for total, _ in self.little]


def cost_partitions(
    partitions: Sequence[Partition],
    model: PerformanceModel,
    window_edges: int = DEFAULT_WINDOW_EDGES,
) -> PartitionCosts:
    """Estimate every partition on both pipeline types."""
    return PartitionCosts(
        little=[
            model.estimate_little_windows(p.src, window_edges)
            for p in partitions
        ],
        t_big=[model.estimate_partition(p, "big") for p in partitions],
    )


def classify_partitions(
    partitions: Sequence[Partition],
    model: PerformanceModel,
    costs: Optional[PartitionCosts] = None,
) -> Tuple[List[int], List[int], List[float], List[float]]:
    """Split partitions into dense and sparse sets by modelled time.

    Two phases:

    1. per-partition comparison: sparse if the Big estimate (with the
       gather bound amortised over a balanced ``N_gpe`` group) beats the
       Little estimate;
    2. group refinement: sparse partitions will execute as merged
       ``N_gpe`` groups, so each prospective group is re-estimated as a
       group.  A group whose Big time exceeds the Little alternative is
       dominated by a too-heavy partition (its Gather PE serialises);
       that partition is evicted to the dense set and grouping repeats.
       Groups ahead of the eviction reappear unchanged, so each distinct
       group is estimated at most once; a group whose gather bound
       alone exceeds the Little alternative is not estimated at all.

    ``costs`` are the partitions' :func:`cost_partitions` estimates,
    computed here when not given.  Returns ``(dense_idx, sparse_idx,
    t_little, t_big)`` where the index lists refer to positions in
    ``partitions``.
    """
    if costs is None:
        costs = cost_partitions(partitions, model)
    t_little, t_big = costs.t_little, costs.t_big
    dense, sparse = [], []
    for i in range(len(partitions)):
        (sparse if t_big[i] < t_little[i] else dense).append(i)

    n_gpe = model.config.n_gpe
    group_big: Dict[Tuple[int, ...], float] = {}
    while sparse:
        evicted = None
        for lo in range(0, len(sparse), n_gpe):
            group = tuple(sparse[lo : lo + n_gpe])
            heaviest = max(group, key=lambda i: partitions[i].num_edges)
            group_little = sum(t_little[i] for i in group)
            # The group's Big estimate is at least its gather bound plus
            # the execution constant, so below that it loses unestimated.
            gather_floor = (
                float(partitions[heaviest].num_edges * model.config.ii_gpe)
                + model.const_big
            )
            if group_little < gather_floor:
                evicted = heaviest
                break
            if group not in group_big:
                group_big[group] = model.estimate_big_group(
                    [partitions[i].src for i in group]
                )
            if group_little < group_big[group]:
                evicted = heaviest
                break
        if evicted is None:
            break
        sparse.remove(evicted)
        dense.append(evicted)
    dense.sort()
    return dense, sparse, t_little, t_big


def choose_pipeline_combination(
    dense_time: float,
    sparse_time: float,
    num_pipelines: int,
) -> Tuple[int, int]:
    """Pick (M, N) minimising ``|dense_time / M - sparse_time / N|``.

    Each cluster with work gets at least one pipeline; a cluster with no
    work gets zero.  Ties break toward more Big pipelines (sparse
    partitions are the long tail on real graphs).
    """
    if num_pipelines < 1:
        raise ValueError("need at least one pipeline")
    if dense_time <= 0 and sparse_time <= 0:
        return num_pipelines, 0
    if dense_time <= 0:
        return 0, num_pipelines
    if sparse_time <= 0:
        return num_pipelines, 0
    if num_pipelines == 1:
        # One pipeline cannot host two clusters; give it to the bigger load.
        return (1, 0) if dense_time >= sparse_time else (0, 1)

    best = None
    for m in range(1, num_pipelines):
        n = num_pipelines - m
        gap = abs(dense_time / m - sparse_time / n)
        if best is None or gap < best[0]:
            best = (gap, m, n)
    return best[1], best[2]
