"""Trace synthesis: build an ExecutionTrace from compiled node timings.

The interpreted :func:`repro.arch.trace.interpreted_trace` re-simulates
every task of the plan just to learn its busy window — a full extra
timing pass for each trace the conformance checker or the chaos oracles
request.  The compiled engine
already knows every node's :class:`~repro.arch.timing.PartitionTiming`
bit-for-bit (the equivalence harness's contract), and the interpreted
trace is a pure fold over those timings: per pipeline, a clock starts
at zero and each task occupies ``[clock, clock + total_cycles)`` in
task order.

This module replays exactly that fold over the engine's timings —
labels, partition indices and edge counts come from the plan's own task
objects, so synthesized events are byte-for-byte the events the
interpreted tracer would emit, and pass the conformance trace
invariants (:mod:`repro.check.invariants`) verbatim.

Timings are read from the engine's per-params memo, which never
captures fault-site state: a trace describes the fault-free datapath
under the channel's parameters.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.trace import ExecutionTrace, TraceEvent
from repro.compiled.evaluate import _STATS, plan_engine
from repro.hbm.channel import HbmChannelModel


def synthesize_trace(
    plan,
    channel: Optional[HbmChannelModel] = None,
) -> ExecutionTrace:
    """One iteration's task-level timeline from compiled timings.

    Bit-identical to :func:`repro.arch.trace.interpreted_trace` on any
    fault-free channel: the per-node timings are bit-identical,
    and the per-pipeline clock accumulation replays the same sequential
    float additions in the same order.
    """
    channel = channel or HbmChannelModel()
    engine = plan_engine(plan)
    timings = engine.timings(channel)
    cplan = engine.cplan
    _STATS["traces_synthesized"] += 1
    events: List[TraceEvent] = []

    for pipe_idx, tasks in enumerate(plan.little_tasks):
        row = cplan.little_by_pipe[pipe_idx]
        clock = 0.0
        for task_idx, task in enumerate(tasks):
            total = timings[row[task_idx].index].total_cycles
            events.append(
                TraceEvent(
                    pipeline=f"little[{pipe_idx}]",
                    task_label=f"p{task.partition.index}.{task_idx}",
                    start_cycle=clock,
                    end_cycle=clock + total,
                    partition_indices=(task.partition.index,),
                    num_edges=task.num_edges,
                )
            )
            clock += total
    for pipe_idx, tasks in enumerate(plan.big_tasks):
        row = cplan.big_by_pipe[pipe_idx]
        clock = 0.0
        for task_idx, task in enumerate(tasks):
            total = timings[row[task_idx].index].total_cycles
            label = "+".join(f"p{p.index}" for p in task.partitions[:3])
            if len(task.partitions) > 3:
                label += f"+{len(task.partitions) - 3}"
            events.append(
                TraceEvent(
                    pipeline=f"big[{pipe_idx}]",
                    task_label=f"{label}.{task_idx}",
                    start_cycle=clock,
                    end_cycle=clock + total,
                    partition_indices=tuple(
                        p.index for p in task.partitions
                    ),
                    num_edges=task.num_edges,
                )
            )
            clock += total
    return ExecutionTrace(events=events)
