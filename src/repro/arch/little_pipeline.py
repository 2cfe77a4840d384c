"""Cycle-level simulator of the Little pipeline (Fig. 3a).

Little pipelines handle *dense* partitions: most source vertices get
touched anyway, so the Ping-Pong Buffer streams the whole source-property
range in burst mode and overlaps fetching with edge processing — no
latency-tolerant machinery, no Data Router.  Update tuples are statically
dispatched to the Gather PEs, whose replicated buffers a Merger combines
after the partition drains.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arch.config import PipelineConfig
from repro.arch.merger import merge_buffers, merger_cycles
from repro.arch.pe import GatherPeArray, ScatterPeArray
from repro.arch.pingpong import PingPongBufferSim
from repro.arch.timing import PartitionTiming
from repro.graph.partition import Partition
from repro.hbm.channel import HbmChannelModel
from repro.utils.prefix import running_release_times


class LittlePipelineSim:
    """One Little pipeline: Burst Read + Ping-Pong Buffer + PEs + Merger."""

    def __init__(self, config: PipelineConfig, channel: HbmChannelModel):
        self.config = config
        self.channel = channel
        self.pingpong = PingPongBufferSim(config, channel)
        self.scatter_pes = ScatterPeArray(config.n_spe)
        #: Fault-injection hook (:mod:`repro.faults`); None = fault-free.
        self.fault_site = None

    def execute(
        self,
        partition: Partition,
        app=None,
        src_props: Optional[np.ndarray] = None,
    ) -> Tuple[Optional[PartitionTiming], Optional[tuple]]:
        """Run one partition (or sub-partition slice).

        Timing-only (no ``app``) returns ``(timing, None)``.  With an
        ``app`` the call is one functional step and returns ``(None,
        output)`` with ``output = (vertex_lo, vertex_hi,
        merged_buffer)``: the timing pass charges the task's cycles, so
        the functional walk never re-times it.
        """
        if self.fault_site is not None:
            self.fault_site.on_task("little")
        if app is None:
            edge_bytes = 8 if partition.weights is None else 12
            return self._compute_timing(partition.src, edge_bytes), None
        if src_props is None:
            raise ValueError("functional execution needs src_props")
        lo, hi, buffer = self._functional(partition, app, src_props)
        if self.fault_site is not None:
            buffer = self.fault_site.filter_buffer(buffer)
        return None, (lo, hi, buffer)

    # ------------------------------------------------------------------
    def _compute_timing(
        self, src: np.ndarray, edge_bytes: int = 8
    ) -> PartitionTiming:
        """Per-partition cycle count from the modelled datapath.

        ``edge_bytes`` sets the edge-stream rate (weighted records slow
        the Burst Read, exactly as in the Big pipeline).
        """
        store = self.config.store_cycles + merger_cycles(self.config.n_gpe)
        num_edges = int(src.size)
        if num_edges == 0:
            return PartitionTiming(
                compute_cycles=0.0,
                store_cycles=store,
                switch_cycles=self.config.switch_cycles,
                num_edges=0,
                num_sets=0,
            )
        ready_v, _stats = self.pingpong.access_ready_times(src)
        num_sets = ready_v.size
        set_cycles = self.config.edges_per_set * edge_bytes / 64.0
        ready_e = (
            np.arange(1, num_sets + 1, dtype=np.float64) * set_cycles
            + self.channel.base_latency()
        )
        service = np.full(
            num_sets,
            self.config.edges_per_set * self.config.proc_cycles_per_edge,
        )
        completion = running_release_times(
            np.maximum(ready_e, ready_v), service
        )
        return PartitionTiming(
            compute_cycles=float(completion[-1]),
            store_cycles=store,
            switch_cycles=self.config.switch_cycles,
            num_edges=num_edges,
            num_sets=num_sets,
        )

    # ------------------------------------------------------------------
    def _functional(self, partition: Partition, app, src_props):
        """Execute the UDFs through statically-dispatched Gather PEs."""
        gpes = GatherPeArray(
            self.config.n_gpe,
            self.config.partition_vertices,
            routed=False,
        )
        gpes.reset(app, partition.vertex_lo)
        if partition.num_edges:
            updates = self.scatter_pes.process(
                app, src_props[partition.src], partition.weights
            )
            gpes.absorb(app, partition.dst, updates)
        merged = merge_buffers(app, gpes.drain())
        return (
            partition.vertex_lo,
            partition.vertex_hi,
            merged[: partition.num_dst_vertices],
        )

    def pingpong_stats(self, partition: Partition):
        """Ping-Pong Buffer counters (jump-access ablation)."""
        _ready, stats = self.pingpong.access_ready_times(partition.src)
        return stats
