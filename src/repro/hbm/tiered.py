"""SSD-tiered storage extension (Sec. VIII future work).

The paper: *"current HBM restricts graph sizes to smaller than 8 GB.  As
a future work, we plan to introduce SSDs as storage while using HBM as
buffers to process billion-scale graphs."*  This module builds that
extension: a two-tier memory model where partitions' edge lists live on
NVMe SSD and stream through HBM staging buffers, overlapped with pipeline
execution via double buffering.

The scheduler question it answers: with per-partition execution cycles
``C_p`` (from the performance model) and per-partition transfer times
(from SSD bandwidth), how much does tiering slow each iteration down?
A partition's visible time is ``max(exec, transfer)`` when prefetch works
(the next partition streams while the current one executes) plus a cold
first-transfer — so tiering is near-free exactly when the pipelines are
compute-bound, i.e. for dense partitions on Little pipelines, and costs
the most on Big clusters chewing through sparse tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.hbm.capacity import fits_hbm


#: Hypothetical billion-scale graphs motivating the extension:
#: name -> (vertices, edges).
BILLION_SCALE = {
    "rmat-27-32": (2**27, 2**27 * 32),
    "webgraph-1B": (400_000_000, 1_000_000_000),
    "rmat-30-16": (2**30, 2**30 * 16),
}


@dataclass(frozen=True)
class SsdTierConfig:
    """NVMe tier parameters (datacenter-class drive defaults)."""

    #: sustained sequential read bandwidth, bytes/second.
    read_bytes_per_second: float = 3.2e9
    #: per-request latency, seconds (queue + flash read).
    request_latency_seconds: float = 90e-6
    #: staging buffers per pipeline (2 = double buffering).
    staging_buffers: int = 2
    #: bytes of one staging buffer in HBM.
    staging_bytes: int = 16 * 1024 * 1024

    def transfer_seconds(self, num_bytes: int) -> float:
        """Time to stream ``num_bytes`` from SSD into a staging buffer."""
        if num_bytes <= 0:
            return 0.0
        chunks = -(-num_bytes // self.staging_bytes)
        return (
            chunks * self.request_latency_seconds
            + num_bytes / self.read_bytes_per_second
        )


@dataclass(frozen=True)
class TieredIterationEstimate:
    """Per-iteration cost breakdown of one pipeline's tiered execution."""

    execute_seconds: float
    transfer_seconds: float
    overlapped_seconds: float

    @property
    def slowdown(self) -> float:
        """Tiered time over pure-HBM time (1.0 = tiering is free)."""
        if self.execute_seconds == 0:
            return float("inf") if self.overlapped_seconds > 0 else 1.0
        return self.overlapped_seconds / self.execute_seconds

    @property
    def transfer_bound(self) -> bool:
        """Whether the SSD, not the pipelines, limits the iteration."""
        return self.transfer_seconds > self.execute_seconds


def graph_needs_tiering(
    num_edges: int,
    edge_bytes: int,
    num_vertices: int,
    num_channels: int = 32,
) -> bool:
    """Whether a graph exceeds the device's HBM (the 8 GB limit)."""
    return not fits_hbm(num_vertices, num_edges, edge_bytes, num_channels)


def estimate_tiered_iteration(
    task_exec_seconds: Sequence[float],
    task_bytes: Sequence[int],
    config: SsdTierConfig = SsdTierConfig(),
) -> TieredIterationEstimate:
    """Overlap-aware iteration estimate for one pipeline's task list.

    With double buffering the transfer overlaps execution *within* a
    task: the pipeline starts once the first staging buffer fills and
    thereafter consumes one buffer while the next streams in, so a task's
    visible time is ``first_chunk + max(exec, remaining_transfer)``.
    Single buffering (``staging_buffers == 1``) serialises transfer and
    execution entirely.
    """
    if len(task_exec_seconds) != len(task_bytes):
        raise ValueError("task lists must align")
    exec_total = float(sum(task_exec_seconds))
    transfers = [config.transfer_seconds(b) for b in task_bytes]
    transfer_total = float(sum(transfers))
    if not task_exec_seconds:
        return TieredIterationEstimate(0.0, 0.0, 0.0)

    if config.staging_buffers < 2:
        overlapped = exec_total + transfer_total
    else:
        overlapped = 0.0
        for exec_s, xfer_s, nbytes in zip(
            task_exec_seconds, transfers, task_bytes
        ):
            first_chunk = config.transfer_seconds(
                min(nbytes, config.staging_bytes)
            )
            overlapped += first_chunk + max(exec_s, xfer_s - first_chunk)
    return TieredIterationEstimate(
        execute_seconds=exec_total,
        transfer_seconds=transfer_total,
        overlapped_seconds=overlapped,
    )


def estimate_tiered_plan(
    plan,
    frequency_mhz: float,
    edge_bytes: int = 8,
    config: SsdTierConfig = SsdTierConfig(),
) -> List[TieredIterationEstimate]:
    """Tiered estimates for every pipeline of a scheduling plan.

    Uses the plan's modelled task cycles (already computed during
    scheduling) and each task's edge-list footprint.
    """
    hz = frequency_mhz * 1e6
    estimates = []
    for tasks in list(plan.little_tasks) + list(plan.big_tasks):
        exec_s = [t.estimated_cycles / hz for t in tasks]
        nbytes = [t.num_edges * edge_bytes for t in tasks]
        estimates.append(estimate_tiered_iteration(exec_s, nbytes, config))
    return estimates
