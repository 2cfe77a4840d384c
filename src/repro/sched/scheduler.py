"""End-to-end model-guided scheduler (Sec. IV-B).

``build_schedule`` runs the full offline flow once per (graph, app) pair:

1. estimate every partition on both pipeline types, one enumeration of
   its edges per type; the Little pass also yields the window weights
   the dense cut needs;
2. classify partitions dense/sparse and pick the pipeline combination
   (M, N) — unless a combination is forced, as the Fig. 10 sweep does;
   refinement enumerates each distinct prospective sparse group at most
   once;
3. merge sparse partitions into ``N_gpe``-sized groups and cut both
   clusters' work into equal-time per-pipeline task lists.  Dense tasks
   that keep a whole partition reuse its step-1 estimate; only cut
   slices and the merged sparse groups are enumerated again.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.config import AcceleratorConfig
from repro.graph.partition import PartitionSet
from repro.model.perf import PerformanceModel
from repro.sched.inter import (
    choose_pipeline_combination,
    classify_partitions,
    cost_partitions,
)
from repro.sched.intra import (
    DEFAULT_WINDOW_EDGES,
    merge_sparse_groups,
    split_dense_for_little,
    split_groups_for_big,
)
from repro.sched.plan import SchedulingPlan


def build_schedule(
    pset: PartitionSet,
    model: PerformanceModel,
    num_pipelines: int,
    forced_combo: Optional[Tuple[int, int]] = None,
    window_edges: int = DEFAULT_WINDOW_EDGES,
) -> SchedulingPlan:
    """Produce the static scheduling plan for a partitioned graph.

    ``forced_combo`` pins (M, N) — used to sweep all combinations in the
    heterogeneity study; classification then respects the forced cluster
    sizes (everything goes to the only cluster when one count is zero).
    """
    partitions = pset.nonempty()
    costs = cost_partitions(partitions, model, window_edges)
    dense_idx, sparse_idx, t_little, t_big = classify_partitions(
        partitions, model, costs
    )

    if forced_combo is not None:
        num_little, num_big = forced_combo
        if num_little + num_big != num_pipelines:
            raise ValueError(
                f"forced combo {forced_combo} does not sum to "
                f"{num_pipelines} pipelines"
            )
        if num_little == 0:
            sparse_idx = sorted(dense_idx + sparse_idx)
            dense_idx = []
        elif num_big == 0:
            dense_idx = sorted(dense_idx + sparse_idx)
            sparse_idx = []
    else:
        dense_time = sum(t_little[i] for i in dense_idx)
        sparse_time = sum(t_big[i] for i in sparse_idx)
        num_little, num_big = choose_pipeline_combination(
            dense_time, sparse_time, num_pipelines
        )
        # A cluster that lost its pipelines sends its work to the other.
        if num_little == 0 and dense_idx:
            sparse_idx = sorted(dense_idx + sparse_idx)
            dense_idx = []
        if num_big == 0 and sparse_idx:
            dense_idx = sorted(dense_idx + sparse_idx)
            sparse_idx = []

    accel = AcceleratorConfig(
        num_little=num_little, num_big=num_big, pipeline=model.config
    )

    dense_parts = [partitions[i] for i in dense_idx]
    sparse_parts = [partitions[i] for i in sparse_idx]

    little_tasks = split_dense_for_little(
        dense_parts,
        num_little,
        model,
        window_edges,
        [costs.little[i] for i in dense_idx],
    )
    groups = merge_sparse_groups(sparse_parts, model.config.n_gpe)
    big_tasks = split_groups_for_big(groups, num_big, model, window_edges)

    return SchedulingPlan(
        accelerator=accel,
        little_tasks=little_tasks,
        big_tasks=big_tasks,
        dense_indices=[partitions[i].index for i in dense_idx],
        sparse_indices=[partitions[i].index for i in sparse_idx],
        graph=pset.graph,
    )
