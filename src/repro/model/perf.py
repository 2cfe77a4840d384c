"""The Eq. 1-4 cycle-level performance model.

For a partition ``p`` with ``E_p`` edges:

    C_p = sum_i max(C_acs_v^i, C_acs_e, C_proc) + C_store + C_const    (1)

* ``C_acs_e = S_e / S_mem`` — sequential edge fetch (constant).
* ``C_proc = 1 / max(N_spe / II_spe, N_gpe / II_gpe)``               (3)
* ``C_acs_v^i`` — source-vertex access cost of edge ``i``:
  - **Big**: 0 when the edge hits the Vertex Loader's last-block cache,
    otherwise the bounded linear latency model ``clip(a * dist + b)`` of
    Eq. 4, with (a, b) fitted from the strided memory benchmark;
  - **Little**: ``(vid_i - vid_{i-1}) * S_vprop / S_mem`` — the burst
    cycles to stream the gap (Eq. 4, second case).
* ``C_store`` (Eq. 2) and ``C_const`` are folded into one measured
  per-execution constant, obtained by timing dummy partitions exactly as
  Sec. IV-A prescribes.

Estimation is O(E_p) with NumPy. The scheduler enumerates each partition
once per pipeline type (plus the merged sparse groups and the cut
slices), so the preprocessing cost it adds stays the paper's "little
extra overhead" on top of partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.arch.config import PipelineConfig
from repro.graph.coo import EDGE_BYTES, VERTEX_WORD_BYTES
from repro.graph.partition import Partition
from repro.hbm.channel import BLOCK_BYTES
from repro.hbm.latency import LatencyFit
from repro.utils.prefix import balanced_chunk_bounds


@dataclass(frozen=True)
class PerformanceModel:
    """Calibrated analytic model for one pipeline configuration."""

    config: PipelineConfig
    #: Eq. 4 fit of the Big pipeline's effective per-request cycles.
    big_fit: LatencyFit
    #: Measured constant per Big execution (C_store + C_const + fill).
    const_big: float
    #: Measured constant per Little execution.
    const_little: float

    # ------------------------------------------------------------------
    # Per-edge enumeration (the sum term of Eq. 1)
    # ------------------------------------------------------------------
    def edge_costs_big(
        self, src: np.ndarray, edge_bytes: int = EDGE_BYTES
    ) -> np.ndarray:
        """Per-edge cycles on the Big pipeline (the Eq. 1 max term).

        ``edge_bytes`` is ``S_e`` of Eq. 1: 8 for (src, dst) records, 12
        when a weight word rides along (SSSP/SpMV), which slows the
        sequential edge stream accordingly.

        Only block-change edges pay the Eq. 4 latency (the stride is the
        distance from the previous edge's source); every other edge hits
        the last-block cache and costs the floor.
        """
        src = np.asarray(src, dtype=np.int64)
        floor = self._floor(edge_bytes)
        costs = np.full(src.size, floor)
        if src.size == 0:
            return costs
        blocks = src // self.config.vertices_per_block
        changes = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        stride = (src[changes] - src[changes - 1]) * VERTEX_WORD_BYTES
        costs[changes] = np.maximum(self.big_fit.latency(stride), floor)
        # The first edge always misses, at stride 0.
        costs[0] = max(float(self.big_fit.latency(0.0)), floor)
        return costs

    def edge_costs_little(
        self, src: np.ndarray, edge_bytes: int = EDGE_BYTES
    ) -> np.ndarray:
        """Per-edge cycles on the Little pipeline (the Eq. 1 max term)."""
        src = np.asarray(src, dtype=np.int64)
        costs = np.zeros(src.size)
        # Gap in vertices -> bytes -> blocks: the scale is a power of two,
        # so scaling the exact float gap is exact.
        np.subtract(src[1:], src[:-1], out=costs[1:])
        costs *= VERTEX_WORD_BYTES / BLOCK_BYTES
        return np.maximum(costs, self._floor(edge_bytes), out=costs)

    def _floor(self, edge_bytes: int = EDGE_BYTES) -> float:
        """Per-edge cycles no edge beats: edge fetch or processing."""
        return max(self._acs_e(edge_bytes), self.config.proc_cycles_per_edge)

    def _acs_e(self, edge_bytes: int = EDGE_BYTES) -> float:
        """``C_acs_e = S_e / S_mem`` — constant sequential edge cost."""
        return edge_bytes / BLOCK_BYTES

    # ------------------------------------------------------------------
    # Partition-level estimates
    # ------------------------------------------------------------------
    def estimate_big_group(self, lane_srcs) -> float:
        """Cycles of one Big execution covering a partition group.

        Two bounds compose (both derive from Eq. 1's max structure):

        * the *supply* bound — the sum of per-edge access costs over the
          merged ascending-source stream;
        * the *gather* bound — each Gather PE owns one partition and
          absorbs one tuple per cycle (II_gpe), so the execution cannot
          finish before the busiest lane drains.

        Each lane's sources must ascend (the partition invariant).
        """
        lane_srcs = [np.asarray(s, dtype=np.int64) for s in lane_srcs]
        if not lane_srcs:
            raise ValueError("group needs at least one partition")
        supply = float(self.edge_costs_big(merge_sources(lane_srcs)).sum())
        gather_bound = max(s.size for s in lane_srcs) * self.config.ii_gpe
        return max(supply, float(gather_bound)) + self.const_big

    def estimate_little_execution(self, src: np.ndarray) -> float:
        """Cycles of one Little execution over one (sub-)partition."""
        return float(self.edge_costs_little(src).sum()) + self.const_little

    def estimate_little_windows(
        self, src: np.ndarray, window_edges: int
    ) -> Tuple[float, np.ndarray]:
        """``estimate_little_execution(src)`` together with
        ``window_weights(src, "little", window_edges)``, from one
        enumeration of the edges."""
        costs = self.edge_costs_little(src)
        total = float(costs.sum()) + self.const_little
        return total, _window_sums(costs, window_edges)

    def estimate_partition(self, partition: Partition, kind: str) -> float:
        """Estimated cycles of a single partition on a pipeline type.

        For the Big pipeline the per-execution constant is amortised over
        the ``N_gpe`` partitions one execution covers (Sec. III-B), which
        is what makes Big pipelines win on sparse partitions; conversely
        the partition's own Gather PE bounds it from below at one edge
        per cycle, which is what makes Big lose on dense partitions.
        """
        if kind == "little":
            return self.estimate_little_execution(partition.src)
        if kind == "big":
            supply = float(self.edge_costs_big(partition.src).sum())
            # Classification assumes the partition joins a *balanced*
            # group (sparse partitions are merged N_gpe at a time), so
            # its share of the group's gather bound is E_p / N_gpe; a
            # partition heavy enough to dominate its group is caught by
            # the supply term and the Fig. 9 group estimates instead.
            gather_bound = (
                partition.num_edges * self.config.ii_gpe / self.config.n_gpe
            )
            return (
                max(supply, gather_bound)
                + self.const_big / self.config.n_gpe
            )
        raise ValueError(f"kind must be 'big' or 'little', got {kind!r}")

    # ------------------------------------------------------------------
    # Window support for the intra-cluster scheduler
    # ------------------------------------------------------------------
    def window_weights(
        self, src: np.ndarray, kind: str, window_edges: int
    ) -> np.ndarray:
        """Estimated cycles of consecutive ``window_edges``-sized windows.

        The intra-cluster scheduler (Sec. IV-B) cuts partitions at window
        granularity so sub-partition boundaries can be found in one scan.
        """
        costs = (
            self.edge_costs_big(src)
            if kind == "big"
            else self.edge_costs_little(src)
        )
        return _window_sums(costs, window_edges)

    def cut_points(
        self,
        src: np.ndarray,
        kind: str,
        num_chunks: int,
        window_edges: int = 1024,
    ) -> np.ndarray:
        """Edge indices cutting ``src`` into ``num_chunks`` equal-time
        sub-partitions at window granularity."""
        weights = self.window_weights(src, kind, window_edges)
        bounds = balanced_chunk_bounds(weights, num_chunks)
        return np.minimum(bounds * window_edges, src.size)


def merge_sources(lane_srcs: Sequence[np.ndarray]) -> np.ndarray:
    """One ascending source stream from per-lane ascending sources.

    A single lane already is that stream and is returned as is.
    """
    if len(lane_srcs) == 1:
        return lane_srcs[0]
    merged = np.concatenate(lane_srcs)
    merged.sort()
    return merged


def _window_sums(costs: np.ndarray, window_edges: int) -> np.ndarray:
    """Sums of consecutive ``window_edges``-sized runs of ``costs``, the
    last run zero-padded."""
    if costs.size == 0:
        return np.zeros(0)
    num_windows = -(-costs.size // window_edges)
    padded = np.zeros(num_windows * window_edges)
    padded[: costs.size] = costs
    return padded.reshape(num_windows, window_edges).sum(axis=1)
