"""Cycle-level simulator of the Big pipeline (Fig. 3d).

Big pipelines handle *sparse* partitions: they tolerate the latency of
inevitable random vertex reads (Vertex Loader) instead of buffering, and
use the Data Router so one execution processes up to ``N_gpe`` partitions,
amortising the partition-switch overhead that would otherwise dominate the
many short sparse tasks.

``execute`` serves both passes over the same modelled datapath: without
an app it produces the cycle-accurate timing of one execution; with an
app and property array it produces the actual gathered results.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.arch.config import PipelineConfig
from repro.arch.pe import GatherPeArray, ScatterPeArray
from repro.arch.timing import PartitionTiming
from repro.arch.vertex_loader import VertexLoaderSim
from repro.graph.partition import Partition
from repro.hbm.channel import HbmChannelModel
from repro.utils.prefix import running_release_times


def _cumcount_sorted(values: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its run (sorted input)."""
    if values.size == 0:
        return values.copy()
    is_start = np.empty(values.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = values[1:] != values[:-1]
    run_starts = np.flatnonzero(is_start)
    run_id = np.cumsum(is_start) - 1
    return np.arange(values.size) - run_starts[run_id]


def merge_group_edges(partitions: List[Partition]):
    """Merge a group's edge lists back into ascending-source order.

    The host preprocessing *interleaves* the per-partition lists when
    writing a merged group: for a source shared by several partitions,
    edges alternate across partitions instead of forming long
    single-partition runs.  This keeps the Data Router's output lanes
    balanced at FIFO timescales — without it, a hot source's edges
    into one destination interval would serialise its Gather PE.

    Also returns each edge's Gather PE lane (the index of the
    partition owning its destination), which drives the router
    serialisation model.  Pure structure — no channel dependence — so
    the compiled simulation core calls it directly at lowering time.
    """
    src = np.concatenate([p.src for p in partitions])
    dst = np.concatenate([p.dst for p in partitions])
    lanes = np.concatenate(
        [np.full(p.num_edges, i, dtype=np.int64)
         for i, p in enumerate(partitions)]
    )
    rank = np.concatenate(
        [_cumcount_sorted(p.src) for p in partitions]
    )
    weights = None
    if partitions[0].weights is not None:
        weights = np.concatenate([p.weights for p in partitions])
    # Ascending src; ties interleave round-robin across partitions.
    order = np.lexsort((lanes, rank, src))
    return (
        src[order],
        dst[order],
        lanes[order],
        None if weights is None else weights[order],
    )


#: Router output FIFO depth in edge sets; short occupancy bursts are
#: absorbed, so sustained service tracks the windowed per-lane rate.
ROUTER_FIFO_SETS = 16


def gather_service_cycles(
    lanes: np.ndarray, num_lanes: int, config: PipelineConfig
) -> np.ndarray:
    """Per-set Gather stage service cycles under Data Router dispatch.

    Each Gather PE owns one partition of the group and absorbs one
    tuple per cycle (II = 1), so sustained throughput is bounded by
    the busiest lane's tuple rate.  The router's per-lane FIFOs absorb
    transient bursts, hence the rate is measured over a FIFO-deep
    window rather than per set.  Balanced sparse groups reach one set
    per cycle; a group dominated by one dense partition serialises on
    its PE — the micro-architectural reason Little pipelines win dense
    partitions (Fig. 9).  Channel-independent, so the compiled core
    evaluates it once per lowered node.
    """
    k = config.edges_per_set
    num_sets = -(-lanes.size // k)
    floor = config.edges_per_set * config.proc_cycles_per_edge
    if num_sets == 0:
        return np.zeros(0)
    window = min(ROUTER_FIFO_SETS, num_sets)
    # One bincount over flattened (set, lane) pairs replaces the old
    # per-lane masking loop: counts[s, l] = edges of lane l in set s.
    # The old code's -1 padding never matched a lane, so simply not
    # counting the pad is equivalent.
    set_idx = np.arange(lanes.size, dtype=np.int64) // k
    counts = np.bincount(
        set_idx * num_lanes + lanes,
        minlength=num_sets * num_lanes,
    ).reshape(num_sets, num_lanes).astype(np.float64)
    csum = np.vstack(
        [np.zeros((1, num_lanes)), np.cumsum(counts, axis=0)]
    )
    rate = np.empty((num_sets, num_lanes))
    rate[window - 1:] = (csum[window:] - csum[:-window]) / window
    # Head of stream: average over what has arrived so far.
    head = np.arange(1, window, dtype=np.float64)[:, None]
    rate[: window - 1] = csum[1:window] / head
    busiest = rate.max(axis=1)
    return np.maximum(busiest, floor)


class BigPipelineSim:
    """One Big pipeline: Burst Read + Vertex Loader + Router + PEs."""

    def __init__(self, config: PipelineConfig, channel: HbmChannelModel):
        self.config = config
        self.channel = channel
        self.loader = VertexLoaderSim(config, channel)
        self.scatter_pes = ScatterPeArray(config.n_spe)
        #: Fault-injection hook (:mod:`repro.faults`); None = fault-free.
        self.fault_site = None

    _cumcount_sorted = staticmethod(_cumcount_sorted)

    def _merge_edges(self, partitions: List[Partition]):
        """See :func:`merge_group_edges` (kept as a method for callers)."""
        return merge_group_edges(partitions)

    def execute(
        self,
        partitions: List[Partition],
        app=None,
        src_props: Optional[np.ndarray] = None,
    ) -> Tuple[Optional[PartitionTiming], Optional[list]]:
        """Run one execution over up to ``N_gpe`` partitions.

        Timing-only (no ``app``) returns ``(timing, None)``.  With an
        ``app`` the call is one functional step and returns ``(None,
        outputs)``, a list of ``(vertex_lo, vertex_hi, gathered_buffer)``
        per partition: the timing pass charges the execution's cycles,
        so the functional walk never re-times it.
        """
        if not partitions:
            raise ValueError("execute needs at least one partition")
        if len(partitions) > self.config.n_gpe:
            raise ValueError(
                f"data routing covers at most {self.config.n_gpe} "
                f"partitions per execution, got {len(partitions)}"
            )
        if not self.config.data_routing and len(partitions) > 1:
            raise ValueError(
                "data routing is disabled; schedule one partition per "
                "execution"
            )

        if self.fault_site is not None:
            self.fault_site.on_task("big")
        src, dst, lanes, weights = self._merge_edges(partitions)
        if app is None:
            edge_bytes = 8 if weights is None else 12
            timing = self._compute_timing(
                src, lanes, len(partitions), edge_bytes
            )
            return timing, None
        if src_props is None:
            raise ValueError("functional execution needs src_props")
        outputs = self._functional(partitions, src, dst, weights, app, src_props)
        if self.fault_site is not None:
            outputs = [
                (lo, hi, self.fault_site.filter_buffer(buffer))
                for lo, hi, buffer in outputs
            ]
        return None, outputs

    #: Router output FIFO depth in edge sets (module constant mirrored
    #: for existing callers/tests).
    ROUTER_FIFO_SETS = ROUTER_FIFO_SETS

    def _gather_service(self, lanes: np.ndarray, num_lanes: int) -> np.ndarray:
        """See :func:`gather_service_cycles` (kept as a method)."""
        return gather_service_cycles(lanes, num_lanes, self.config)

    def _gather_service_reference(
        self, lanes: np.ndarray, num_lanes: int
    ) -> np.ndarray:
        """Original per-lane loop formulation of :meth:`_gather_service`.

        Kept as the oracle for the vectorisation-equivalence regression
        test (tests/test_arch_pipelines.py); not called on any hot path.
        """
        k = self.config.edges_per_set
        num_sets = -(-lanes.size // k)
        padded = np.full(num_sets * k, -1, dtype=np.int64)
        padded[: lanes.size] = lanes
        per_set = padded.reshape(num_sets, k)
        window = min(self.ROUTER_FIFO_SETS, num_sets)
        busiest = np.zeros(num_sets)
        for lane in range(num_lanes):
            counts = (per_set == lane).sum(axis=1).astype(np.float64)
            csum = np.concatenate(([0.0], np.cumsum(counts)))
            rate = np.empty(num_sets)
            rate[window - 1:] = (csum[window:] - csum[:-window]) / window
            head = np.arange(1, window, dtype=np.float64)
            rate[: window - 1] = csum[1:window] / head
            busiest = np.maximum(busiest, rate)
        floor = self.config.edges_per_set * self.config.proc_cycles_per_edge
        return np.maximum(busiest, floor)

    def _compute_timing(
        self,
        src: np.ndarray,
        lanes: np.ndarray,
        num_lanes: int,
        edge_bytes: int = 8,
    ) -> PartitionTiming:
        """Per-execution cycle count from the modelled datapath.

        ``edge_bytes`` sets the sequential edge-stream rate: one 512-bit
        block per cycle carries ``64 / edge_bytes`` edges, so weighted
        records (12 B) slow the Burst Read to 2/3 speed.
        """
        num_edges = int(src.size)
        if num_edges == 0:
            return PartitionTiming(
                compute_cycles=0.0,
                store_cycles=self.config.store_cycles,
                switch_cycles=self.config.switch_cycles,
                num_edges=0,
                num_sets=0,
            )
        ready_v, _stats = self.loader.access_ready_times(src)
        num_sets = ready_v.size
        # Edge sets stream at the block rate after the burst opens.
        set_cycles = (
            self.config.edges_per_set * edge_bytes / 64.0
        )
        ready_e = (
            np.arange(1, num_sets + 1, dtype=np.float64) * set_cycles
            + self.channel.base_latency()
        )
        service = self._gather_service(lanes, num_lanes)
        completion = running_release_times(
            np.maximum(ready_e, ready_v), service
        )
        return PartitionTiming(
            compute_cycles=float(completion[-1]),
            store_cycles=self.config.store_cycles,
            switch_cycles=self.config.switch_cycles,
            num_edges=num_edges,
            num_sets=num_sets,
        )

    # ------------------------------------------------------------------
    def _functional(self, partitions, src, dst, weights, app, src_props):
        """Execute the UDFs through the routed Gather PE array."""
        gpes = GatherPeArray(
            self.config.n_gpe,
            self.config.partition_vertices,
            routed=True,
        )
        gpes.reset(app, [p.vertex_lo for p in partitions])
        if src.size:
            updates = self.scatter_pes.process(app, src_props[src], weights)
            gpes.absorb(app, dst, updates)
        buffers = gpes.drain()
        return [
            (p.vertex_lo, p.vertex_hi, buffers[i][: p.num_dst_vertices])
            for i, p in enumerate(partitions)
        ]

    def loader_stats(self, partitions: List[Partition]):
        """Vertex Loader counters for a group (ablation instrumentation)."""
        src, _dst, _lanes, _w = self._merge_edges(partitions)
        _ready, stats = self.loader.access_ready_times(src)
        return stats
