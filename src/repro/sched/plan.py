"""Static scheduling plan data structures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.arch.config import AcceleratorConfig
from repro.graph.coo import Graph
from repro.graph.partition import Partition


@dataclass(frozen=True)
class LittleTask:
    """One Little pipeline execution: a (sub-)partition."""

    partition: Partition
    estimated_cycles: float

    @property
    def num_edges(self) -> int:
        """Edges this task processes."""
        return self.partition.num_edges

    @property
    def partition_indices(self) -> Tuple[int, ...]:
        """Destination-interval indices this task covers."""
        return (self.partition.index,)


@dataclass(frozen=True)
class BigTask:
    """One Big pipeline execution: a (sliced) group of partitions.

    The group covers at most ``N_gpe`` destination intervals; data routing
    lets one execution process them all, amortising the switch overhead.
    """

    partitions: List[Partition]
    estimated_cycles: float

    @property
    def num_edges(self) -> int:
        """Edges this task processes."""
        return sum(p.num_edges for p in self.partitions)

    @property
    def partition_indices(self) -> Tuple[int, ...]:
        """Destination-interval indices this task covers."""
        return tuple(p.index for p in self.partitions)


@dataclass
class SchedulingPlan:
    """The full static plan for one graph on one accelerator."""

    accelerator: AcceleratorConfig
    #: one task list per Little pipeline (length == num_little)
    little_tasks: List[List[LittleTask]] = field(default_factory=list)
    #: one task list per Big pipeline (length == num_big)
    big_tasks: List[List[BigTask]] = field(default_factory=list)
    #: original partition indices classified dense / sparse
    dense_indices: List[int] = field(default_factory=list)
    sparse_indices: List[int] = field(default_factory=list)
    #: the partitioned graph whose edges the tasks cover exactly once;
    #: the compiled functional engine lowers this, not the task lists
    graph: Optional[Graph] = field(default=None, compare=False, repr=False)

    @property
    def little_cycle_estimates(self) -> List[float]:
        """Estimated busy cycles of each Little pipeline."""
        return [
            sum(t.estimated_cycles for t in tasks)
            for tasks in self.little_tasks
        ]

    @property
    def big_cycle_estimates(self) -> List[float]:
        """Estimated busy cycles of each Big pipeline."""
        return [
            sum(t.estimated_cycles for t in tasks) for tasks in self.big_tasks
        ]

    @property
    def estimated_makespan(self) -> float:
        """Estimated iteration cycles: the slowest pipeline of any cluster."""
        candidates = self.little_cycle_estimates + self.big_cycle_estimates
        return max(candidates) if candidates else 0.0

    @property
    def balance_ratio(self) -> float:
        """Max/mean busy-cycle ratio across pipelines (1.0 = perfect)."""
        busy = [
            c for c in self.little_cycle_estimates + self.big_cycle_estimates
        ]
        busy = [c for c in busy if c > 0]
        if not busy:
            return 1.0
        return max(busy) / (sum(busy) / len(busy))

    def iter_tasks(self) -> Iterator[Tuple[str, object]]:
        """Yield ``(pipeline_name, task)`` pairs in execution order.

        Pipeline names match the ``little[i]`` / ``big[i]`` labels used
        by :func:`repro.arch.trace.trace_plan`, so a trace can be joined
        back to the plan task-by-task.
        """
        for idx, tasks in enumerate(self.little_tasks):
            for task in tasks:
                yield f"little[{idx}]", task
        for idx, tasks in enumerate(self.big_tasks):
            for task in tasks:
                yield f"big[{idx}]", task

    def total_edges(self) -> int:
        """Edges covered by the plan (must equal the graph's E)."""
        little = sum(t.num_edges for tasks in self.little_tasks for t in tasks)
        big = sum(t.num_edges for tasks in self.big_tasks for t in tasks)
        return little + big

    def validate(self, expected_edges: int = None) -> None:
        """Check structural invariants; raises ``ValueError`` on breakage.

        Verified: pipeline list lengths match the accelerator shape, Big
        groups respect the ``N_gpe`` cap with ascending bases, task edge
        lists stay inside their destination intervals, and (optionally)
        the plan covers exactly the expected edge count.
        """
        accel = self.accelerator
        if len(self.little_tasks) != accel.num_little:
            raise ValueError(
                f"{len(self.little_tasks)} Little task lists for "
                f"{accel.num_little} pipelines"
            )
        if len(self.big_tasks) != accel.num_big:
            raise ValueError(
                f"{len(self.big_tasks)} Big task lists for "
                f"{accel.num_big} pipelines"
            )
        for tasks in self.little_tasks:
            for task in tasks:
                p = task.partition
                if p.num_edges and (
                    p.dst.min() < p.vertex_lo or p.dst.max() >= p.vertex_hi
                ):
                    raise ValueError(
                        f"Little task on partition {p.index} has edges "
                        "outside its destination interval"
                    )
        for tasks in self.big_tasks:
            for task in tasks:
                if len(task.partitions) > accel.pipeline.n_gpe:
                    raise ValueError(
                        f"Big task covers {len(task.partitions)} partitions "
                        f"(> N_gpe = {accel.pipeline.n_gpe})"
                    )
                bases = [p.vertex_lo for p in task.partitions]
                if bases != sorted(bases) or len(set(bases)) != len(bases):
                    raise ValueError(
                        "Big task partition bases must be strictly ascending"
                    )
        if expected_edges is not None and self.total_edges() != expected_edges:
            raise ValueError(
                f"plan covers {self.total_edges()} edges, expected "
                f"{expected_edges}"
            )
