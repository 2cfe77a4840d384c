"""Model-guided task scheduling (Sec. IV-B).

Inter-cluster scheduling classifies every partition as dense or sparse by
comparing its estimated execution time on the two pipeline types, then
picks the Little/Big pipeline split (M, N) that balances the two clusters.
Intra-cluster scheduling cuts the work into sub-partitions of near-equal
*estimated time* (not equal edge counts) at window granularity.  The
result is a static :class:`~repro.sched.plan.SchedulingPlan` computed once
per (graph, application) pair.
"""

from repro.sched.plan import BigTask, LittleTask, SchedulingPlan
from repro.sched.inter import (
    choose_pipeline_combination,
    classify_partitions,
)
from repro.sched.intra import (
    merge_sparse_groups,
    split_dense_for_little,
    split_groups_for_big,
)
from repro.sched.scheduler import build_schedule
from repro.sched.dynamic import dynamic_makespan, static_makespan
from repro.sched.batch import BatchSchedule, naive_batch, plan_batch

__all__ = [
    "BigTask",
    "LittleTask",
    "SchedulingPlan",
    "classify_partitions",
    "choose_pipeline_combination",
    "merge_sparse_groups",
    "split_dense_for_little",
    "split_groups_for_big",
    "build_schedule",
    "dynamic_makespan",
    "static_makespan",
    "BatchSchedule",
    "naive_batch",
    "plan_batch",
]
