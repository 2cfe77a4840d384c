"""Lowering: from a SchedulingPlan to a static node evaluation plan.

One node per scheduled task.  Lowering extracts everything that does
*not* depend on the HBM channel parameters — ping-pong fill positions,
deduplicated request strides and arrivals, per-set releasing requests,
router gather-service rates, stream constants — by calling the exact
structure routines the interpreted simulators use
(:meth:`~repro.arch.pingpong.PingPongBufferSim.access_structure`,
:meth:`~repro.arch.vertex_loader.VertexLoaderSim.access_structure`,
:func:`~repro.arch.big_pipeline.gather_service_cycles`,
:func:`~repro.arch.big_pipeline.merge_group_edges`).  Evaluation then
replays the *same* elementwise operation chain as the interpreted
datapath, batched across nodes (see :mod:`repro.compiled.evaluate`),
which is why compiled timings are bit-identical, not merely close.

This is the LightningSimV2 split (PAPERS.md): pay structure extraction
once, make repeated evaluation — per channel variant, per sweep point,
per chaos cell — cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arch.big_pipeline import gather_service_cycles, merge_group_edges
from repro.arch.config import AcceleratorConfig, PipelineConfig
from repro.arch.merger import merger_cycles
from repro.arch.pingpong import PingPongBufferSim
from repro.arch.timing import PartitionTiming
from repro.arch.vertex_loader import VertexLoaderSim
from repro.sched.plan import SchedulingPlan


@dataclass
class LittleNode:
    """Lowered Little task: ping-pong structure + stream constants."""

    index: int          #: position in the flat node list
    pipeline: int       #: Little pipeline index
    order: int          #: position within the pipeline's task list
    num_edges: int
    num_sets: int
    edge_bytes: int
    set_cycles: float       #: edge-set stream period (Burst Read)
    service_cycles: float   #: constant per-set Gather service
    store_cycles: float     #: partition store incl. merger drain
    switch_cycles: float
    fill_at_set: np.ndarray  #: [S] burst-relative fill completion

    kind = "little"


@dataclass
class BigNode:
    """Lowered Big task: loader request structure + router service."""

    index: int
    pipeline: int       #: Big pipeline index
    order: int
    num_edges: int
    num_sets: int
    edge_bytes: int
    set_cycles: float
    store_cycles: float
    switch_cycles: float
    strides: np.ndarray          #: [R] request strides (bytes)
    arrival: np.ndarray          #: [R] request arrival cycles
    last_req_per_set: np.ndarray  #: [S] releasing request (-1 = none)
    gather_service: np.ndarray    #: [S] router-bound Gather service

    kind = "big"


@dataclass
class CompiledPlan:
    """The static evaluation plan for one SchedulingPlan."""

    accelerator: AcceleratorConfig
    num_little: int
    num_big: int
    #: Flat node list; ``nodes[i].index == i``.
    nodes: List[object]
    #: Per-pipeline node lists in task order (busy-sum replay order).
    little_by_pipe: List[List[LittleNode]]
    big_by_pipe: List[List[BigNode]]

    @property
    def config(self) -> PipelineConfig:
        return self.accelerator.pipeline

    def constant_timing(self, node) -> Optional[PartitionTiming]:
        """Timing of a node that needs no evaluation (empty edge list)."""
        if node.num_edges:
            return None
        return PartitionTiming(
            compute_cycles=0.0,
            store_cycles=node.store_cycles,
            switch_cycles=node.switch_cycles,
            num_edges=0,
            num_sets=0,
        )


def lower_little_task(
    config: PipelineConfig, partition, index: int, pipeline: int, order: int
) -> LittleNode:
    """Lower one Little task (see module docstring)."""
    edge_bytes = 8 if partition.weights is None else 12
    store = config.store_cycles + merger_cycles(config.n_gpe)
    # The structure routine never consults the channel; the simulator is
    # instantiated channel-less on purpose.
    pingpong = PingPongBufferSim(config, None)
    fill_at_set, _stats = pingpong.access_structure(partition.src)
    return LittleNode(
        index=index,
        pipeline=pipeline,
        order=order,
        num_edges=int(partition.src.size),
        num_sets=int(fill_at_set.size),
        edge_bytes=edge_bytes,
        set_cycles=config.edges_per_set * edge_bytes / 64.0,
        service_cycles=config.edges_per_set * config.proc_cycles_per_edge,
        store_cycles=store,
        switch_cycles=config.switch_cycles,
        fill_at_set=fill_at_set,
    )


def lower_big_task(
    config: PipelineConfig, partitions, index: int, pipeline: int, order: int
) -> BigNode:
    """Lower one Big task (a routed group of partitions)."""
    src, _dst, lanes, weights = merge_group_edges(partitions)
    edge_bytes = 8 if weights is None else 12
    loader = VertexLoaderSim(config, None)
    structure = loader.access_structure(src)
    gather = gather_service_cycles(lanes, len(partitions), config)
    return BigNode(
        index=index,
        pipeline=pipeline,
        order=order,
        num_edges=int(src.size),
        num_sets=structure.num_sets,
        edge_bytes=edge_bytes,
        set_cycles=config.edges_per_set * edge_bytes / 64.0,
        store_cycles=config.store_cycles,
        switch_cycles=config.switch_cycles,
        strides=structure.strides,
        arrival=structure.arrival,
        last_req_per_set=structure.last_req_per_set,
        gather_service=gather,
    )


def compile_plan(plan: SchedulingPlan) -> CompiledPlan:
    """Lower every task of ``plan`` into a static evaluation plan.

    Channel-independent by construction: the result is reused unchanged
    across channel-parameter changes, sweep points and re-timed retries;
    only :mod:`repro.compiled.evaluate` touches channel state.
    """
    config = plan.accelerator.pipeline
    nodes: List[object] = []
    little_by_pipe: List[List[LittleNode]] = []
    big_by_pipe: List[List[BigNode]] = []
    for pipe, tasks in enumerate(plan.little_tasks):
        row = []
        for order, task in enumerate(tasks):
            node = lower_little_task(
                config, task.partition, len(nodes), pipe, order
            )
            nodes.append(node)
            row.append(node)
        little_by_pipe.append(row)
    for pipe, tasks in enumerate(plan.big_tasks):
        row = []
        for order, task in enumerate(tasks):
            node = lower_big_task(
                config, task.partitions, len(nodes), pipe, order
            )
            nodes.append(node)
            row.append(node)
        big_by_pipe.append(row)
    return CompiledPlan(
        accelerator=plan.accelerator,
        num_little=len(plan.little_tasks),
        num_big=len(plan.big_tasks),
        nodes=nodes,
        little_by_pipe=little_by_pipe,
        big_by_pipe=big_by_pipe,
    )
