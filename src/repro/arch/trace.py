"""Execution tracing: per-pipeline timelines and utilisation reports.

Turns a scheduling plan into a task-level timeline (which pipeline ran
which partition slice, when) and renders a text Gantt chart — the
tooling one uses to see *why* a pipeline combination balances or does
not.  :func:`trace_plan` synthesizes the timeline from the compiled
engine's node timings; :func:`interpreted_trace` re-simulates every
task through the pipeline simulators and is the oracle it must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.hbm.channel import HbmChannelModel
from repro.sched.plan import SchedulingPlan


@dataclass(frozen=True)
class TraceEvent:
    """One task execution on one pipeline.

    ``partition_indices`` and ``num_edges`` tie the event back to the
    scheduling plan, which is what lets the conformance checker
    (:mod:`repro.check.invariants`) prove coverage — every planned task
    executed exactly once — and bound the implied channel bandwidth.
    """

    pipeline: str
    task_label: str
    start_cycle: float
    end_cycle: float
    #: destination-interval partition indices this task covered
    partition_indices: Tuple[int, ...] = field(default=())
    #: edges the task streamed (0 when unknown, e.g. hand-built events)
    num_edges: int = 0

    @property
    def duration(self) -> float:
        """Busy cycles of this task."""
        return self.end_cycle - self.start_cycle


@dataclass
class ExecutionTrace:
    """A full iteration's timeline across all pipelines."""

    events: List[TraceEvent]

    @property
    def makespan(self) -> float:
        """Cycle at which the last pipeline finishes."""
        return max((e.end_cycle for e in self.events), default=0.0)

    def pipeline_busy(self) -> dict:
        """Total busy cycles per pipeline."""
        busy: dict = {}
        for event in self.events:
            busy[event.pipeline] = busy.get(event.pipeline, 0.0) + event.duration
        return busy

    def utilization(self) -> dict:
        """Busy fraction of the makespan per pipeline."""
        span = self.makespan
        if span == 0:
            return {}
        return {k: v / span for k, v in self.pipeline_busy().items()}

    def render_gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart: one row per pipeline, '#' = busy."""
        span = self.makespan
        if span == 0:
            return "(empty trace)"
        rows = []
        pipelines = sorted({e.pipeline for e in self.events})
        for pipe in pipelines:
            cells = [" "] * width
            for event in self.events:
                if event.pipeline != pipe:
                    continue
                lo = int(event.start_cycle / span * (width - 1))
                hi = max(int(event.end_cycle / span * (width - 1)), lo + 1)
                for i in range(lo, min(hi, width)):
                    cells[i] = "#"
            busy = self.pipeline_busy().get(pipe, 0.0)
            rows.append(f"{pipe:>10} |{''.join(cells)}| {busy:9.0f} cyc")
        rows.append(f"{'':>10}  makespan = {span:.0f} cycles")
        return "\n".join(rows)


def trace_plan(
    plan: SchedulingPlan,
    channel: Optional[HbmChannelModel] = None,
) -> ExecutionTrace:
    """One iteration of a plan with every task's busy window recorded.

    Synthesized from the compiled engine's node timings under
    ``channel.params`` (:mod:`repro.compiled.trace` — bit-identical
    events, no re-simulation).  A fault site on ``channel`` is ignored:
    traces describe the fault-free datapath.
    """
    from repro.compiled.trace import synthesize_trace

    return synthesize_trace(plan, channel)


def interpreted_trace(
    plan: SchedulingPlan,
    channel: Optional[HbmChannelModel] = None,
) -> ExecutionTrace:
    """The same timeline re-simulated task by task through the pipeline
    simulators — the reference oracle :func:`trace_plan` must equal."""
    channel = channel or HbmChannelModel()
    config = plan.accelerator.pipeline
    little = LittlePipelineSim(config, channel)
    big = BigPipelineSim(config, channel)
    events: List[TraceEvent] = []

    for pipe_idx, tasks in enumerate(plan.little_tasks):
        clock = 0.0
        for task_idx, task in enumerate(tasks):
            timing, _ = little.execute(task.partition)
            events.append(
                TraceEvent(
                    pipeline=f"little[{pipe_idx}]",
                    task_label=f"p{task.partition.index}.{task_idx}",
                    start_cycle=clock,
                    end_cycle=clock + timing.total_cycles,
                    partition_indices=(task.partition.index,),
                    num_edges=task.num_edges,
                )
            )
            clock += timing.total_cycles
    for pipe_idx, tasks in enumerate(plan.big_tasks):
        clock = 0.0
        for task_idx, task in enumerate(tasks):
            timing, _ = big.execute(task.partitions)
            label = "+".join(f"p{p.index}" for p in task.partitions[:3])
            if len(task.partitions) > 3:
                label += f"+{len(task.partitions) - 3}"
            events.append(
                TraceEvent(
                    pipeline=f"big[{pipe_idx}]",
                    task_label=f"{label}.{task_idx}",
                    start_cycle=clock,
                    end_cycle=clock + timing.total_cycles,
                    partition_indices=tuple(
                        p.index for p in task.partitions
                    ),
                    num_edges=task.num_edges,
                )
            )
            clock += timing.total_cycles
    return ExecutionTrace(events=events)
