"""Scheduling-plan serialization.

The task scheduler "runs offline and only once to generate a static
scheduling plan for a graph on an application" (Sec. IV-B) — so the plan
is an artifact worth persisting.  Plans serialise to JSON describing the
accelerator choice, the dense/sparse split and every task's edge range;
deserialisation rebuilds the plan against the original partition set
(edge data itself is not duplicated into the file).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.arch.config import AcceleratorConfig, PipelineConfig
from repro.graph.partition import PartitionSet
from repro.sched.plan import BigTask, LittleTask, SchedulingPlan


def plan_to_dict(plan: SchedulingPlan) -> dict:
    """JSON-serialisable description of a plan."""
    def little_entry(task: LittleTask):
        return {
            "partition": task.partition.index,
            "edges": task.partition.num_edges,
            "estimated_cycles": task.estimated_cycles,
        }

    def big_entry(task: BigTask):
        return {
            "partitions": [p.index for p in task.partitions],
            "edges": [p.num_edges for p in task.partitions],
            "estimated_cycles": task.estimated_cycles,
        }

    return {
        "accelerator": {
            "num_little": plan.accelerator.num_little,
            "num_big": plan.accelerator.num_big,
            "n_spe": plan.accelerator.pipeline.n_spe,
            "n_gpe": plan.accelerator.pipeline.n_gpe,
            "gather_buffer_vertices": (
                plan.accelerator.pipeline.gather_buffer_vertices
            ),
        },
        "dense_indices": list(plan.dense_indices),
        "sparse_indices": list(plan.sparse_indices),
        "little_tasks": [
            [little_entry(t) for t in tasks] for tasks in plan.little_tasks
        ],
        "big_tasks": [
            [big_entry(t) for t in tasks] for tasks in plan.big_tasks
        ],
        "total_edges": plan.total_edges(),
    }


def save_plan(plan: SchedulingPlan, path: Union[str, Path]) -> Path:
    """Write a plan summary as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(plan_to_dict(plan), indent=2))
    return path


def load_plan_summary(path: Union[str, Path]) -> dict:
    """Read back a serialized plan summary."""
    return json.loads(Path(path).read_text())


def verify_plan_against(
    summary: dict, pset: PartitionSet, accelerator: AcceleratorConfig
) -> bool:
    """Check a stored summary is consistent with a partition set.

    Used when re-deploying a cached plan: the accelerator shape must
    match and the edge totals must equal the freshly partitioned graph's.
    """
    acc = summary["accelerator"]
    pipeline: PipelineConfig = accelerator.pipeline
    if (acc["num_little"], acc["num_big"]) != (
        accelerator.num_little,
        accelerator.num_big,
    ):
        return False
    if acc["gather_buffer_vertices"] != pipeline.gather_buffer_vertices:
        return False
    total = sum(p.num_edges for p in pset.nonempty())
    return summary["total_edges"] == total
