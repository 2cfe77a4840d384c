"""Per-channel HBM timing model.

The simulator charges memory time in units of kernel-clock cycles at 512-bit
block granularity (Sec. III-A: "all accesses to the global memory are in
granularity of a block (with 512-bit)").  Two behaviours matter:

* **Sequential bursts** stream one block per cycle — an AXI master running
  at kernel frequency saturates one pseudo-channel.
* **Strided/random reads** pay a latency that grows with the stride between
  consecutive addresses, because larger strides cross DRAM rows and banks.
  Shuhai [18] measured this on real silicon; the paper fits a bounded linear
  function to it (Eq. 4) and so do we.

Latency is partially hidden by the outstanding-request window of the AXI
read master: with ``max_outstanding`` in-flight requests, a stream of
requests with per-request latency ``L`` sustains one response every
``max(1, L / max_outstanding)`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes per 512-bit global-memory block.
BLOCK_BYTES = 64


@dataclass(frozen=True)
class HbmTimingParams:
    """Timing constants of one HBM pseudo-channel (kernel-clock cycles)."""

    #: Best-case read latency (row-buffer hit), cycles.
    min_latency: float = 24.0
    #: Worst-case read latency (row miss + bank conflict), cycles.
    max_latency: float = 56.0
    #: Extra cycles of latency per byte of stride between requests.
    latency_per_stride_byte: float = 0.004
    #: In-flight read requests the AXI master supports.
    max_outstanding: int = 16
    #: Blocks deliverable per cycle on a sequential burst.
    burst_blocks_per_cycle: float = 1.0


class HbmChannelModel:
    """Timing oracle for one pseudo-channel.

    ``fault_site`` is the injection hook of :mod:`repro.faults`: when set
    (on every simulator's private channel copy), every latency figure the
    channel charges is passed through ``fault_site.scale_latency`` so
    latency-spike faults inflate it while their window is active; outside
    a window the figure passes through unchanged.  The default ``None``
    (calibration, probes, standalone pipeline simulators) charges the
    figures as they are.
    """

    def __init__(
        self,
        params: HbmTimingParams = HbmTimingParams(),
        fault_site=None,
    ):
        if params.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if params.max_latency < params.min_latency:
            raise ValueError("max_latency must be >= min_latency")
        self.params = params
        self.fault_site = fault_site

    def request_latency(self, stride_bytes) -> np.ndarray:
        """Latency (cycles) of a read whose address is ``stride_bytes``
        past the previous request, clamped to the [min, max] band.

        This is the ground truth the Shuhai-style benchmark samples and
        the bounded linear function of Eq. 4 approximates.
        """
        stride = np.abs(np.asarray(stride_bytes, dtype=np.float64))
        p = self.params
        lat = p.min_latency + p.latency_per_stride_byte * stride
        lat = np.clip(lat, p.min_latency, p.max_latency)
        if self.fault_site is not None:
            lat = self.fault_site.scale_latency(lat)
        return lat

    def base_latency(self) -> float:
        """Best-case latency as currently observed at the channel.

        Equals ``params.min_latency`` on a healthy channel; an active
        latency-spike fault inflates it like every other latency figure.
        The component simulators charge their fixed fill/drain latencies
        through this accessor so faults reach them uniformly.
        """
        lat = self.params.min_latency
        if self.fault_site is not None:
            lat = float(self.fault_site.scale_latency(lat))
        return lat

    def effective_request_cycles(self, stride_bytes) -> np.ndarray:
        """Steady-state cycles per request once the outstanding window
        pipelines the latency: ``max(1, latency / max_outstanding)``."""
        lat = self.request_latency(stride_bytes)
        return np.maximum(1.0, lat / self.params.max_outstanding)

    def burst_cycles(self, num_blocks: int) -> float:
        """Cycles for a sequential burst of ``num_blocks`` blocks,
        including one initial full latency to open the stream."""
        if num_blocks <= 0:
            return 0.0
        p = self.params
        cycles = p.min_latency + num_blocks / p.burst_blocks_per_cycle
        if self.fault_site is not None:
            cycles = float(self.fault_site.scale_latency(cycles))
        return cycles

    def bandwidth_bytes_per_cycle(self) -> float:
        """Peak sequential bandwidth in bytes per kernel cycle."""
        return BLOCK_BYTES * self.params.burst_blocks_per_cycle

    def min_cycles_for_bytes(self, num_bytes: float) -> float:
        """Lower bound on the cycles one channel needs to move
        ``num_bytes`` — the physical ceiling no simulated task may beat.
        """
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.bandwidth_bytes_per_cycle()
