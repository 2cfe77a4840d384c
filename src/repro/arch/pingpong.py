"""Cycle-level simulator of the Little pipeline's Ping-Pong Buffer (Fig. 6).

Dense partitions touch most source vertices, so the Little pipeline simply
streams the partition's source-property range into on-chip buffers in burst
mode (one 512-bit block per cycle) while the Scatter PEs consume properties
from the other buffer — overlapping fetch and process.  The simulator
models:

* **burst filling** at one block per cycle, buffer side by buffer side;
* **read/write index synchronisation** — an edge set stalls until the block
  it needs has been filled;
* **jump access** — when the next block the pipeline needs lies beyond the
  current buffer segment, the write index jumps forward, skipping whole
  unneeded segments (avoids redundant fetches on partial-range partitions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import PipelineConfig
from repro.hbm.channel import HbmChannelModel


@dataclass(frozen=True)
class PingPongStats:
    """Counters exposed for the jump-access ablation."""

    num_edges: int
    num_sets: int
    blocks_fetched: int
    blocks_skipped: int
    span_blocks: int

    @property
    def span_fraction_fetched(self) -> float:
        """Fraction of the source span actually streamed (jump access
        skips the rest)."""
        return self.blocks_fetched / max(self.span_blocks, 1)


class PingPongBufferSim:
    """Timing model of vertex-property access in the Little pipeline."""

    def __init__(self, config: PipelineConfig, channel: HbmChannelModel):
        self.config = config
        self.channel = channel

    def access_ready_times(self, src: np.ndarray):
        """Per-set cycle at which source properties become available.

        ``src`` must be ascending (COO invariant).  Returns ``(ready,
        stats)`` in the same shape as the Vertex Loader simulator, so the
        Big/Little pipeline simulators share their outer loop.
        """
        fill_at_set, stats = self.access_structure(src)
        if fill_at_set.size == 0:
            return fill_at_set, stats
        # Adding the channel latency after the per-set gather is bitwise
        # equal to adding it before (same float64 operands either way) —
        # the split is what lets the compiled core reuse the structure
        # across channel-parameter changes.
        return fill_at_set + self.channel.base_latency(), stats

    def access_structure(self, src: np.ndarray):
        """Channel-independent part of :meth:`access_ready_times`.

        Returns ``(fill_at_set, stats)`` where ``fill_at_set[i]`` is the
        burst-relative cycle at which the last block edge set ``i`` needs
        finishes filling.  Adding the channel's base latency yields the
        ready times; everything computed here depends only on the edge
        content and the frozen :class:`PipelineConfig`, so the compiled
        simulation core extracts it once and re-evaluates cheaply under
        new channel parameters.
        """
        if src.size == 0:
            return np.zeros(0), PingPongStats(0, 0, 0, 0, 0)

        k = self.config.edges_per_set
        src = np.asarray(src, dtype=np.int64)
        num_sets = -(-src.size // k)
        # Only the last (largest) source of each set is ever read, so
        # every per-block quantity below is evaluated at set boundaries.
        last_of_set = np.minimum(
            np.arange(1, num_sets + 1) * k - 1, src.size - 1
        )
        vpb = self.config.vertices_per_block
        base = int(src[0]) // vpb
        rel = src[last_of_set] // vpb - base
        span = int(rel[-1] + 1)

        seg_blocks = self.config.pingpong_blocks_per_side
        segments = rel // seg_blocks
        # seg_rank = position of a set's segment among the streamed ones.
        # With jump access only touched segments stream, so the rank is
        # the number of touched segments below it; without it every
        # segment streams and the rank is the segment.
        if self.config.jump_access:
            num_segs = int(segments[-1]) + 1
            if num_segs <= src.size:
                # ``src`` ascends: segment s is touched iff some source
                # lies at or beyond its first vertex and below the next's.
                firsts = (base + seg_blocks * np.arange(num_segs + 1)) * vpb
                touched = np.flatnonzero(np.diff(np.searchsorted(src, firsts)))
            else:
                # Sources sparser than segments: bound the work by E.
                touched = np.unique((src // vpb - base) // seg_blocks)
            seg_rank = np.searchsorted(touched, segments)
        else:
            seg_rank = segments
        num_needed = int(seg_rank[-1]) + 1

        # Fill-completion cycle (from burst start) of each set's last
        # block: needed segments stream back-to-back at 1 block/cycle.
        fill_at_set = (
            seg_rank * seg_blocks + (rel - segments * seg_blocks) + 1.0
        )

        fetched = num_needed * seg_blocks
        # The final segment is only streamed up to the last needed block.
        tail_waste = seg_blocks - (int(rel[-1]) % seg_blocks + 1)
        fetched -= tail_waste
        fetched = min(fetched, span)
        stats = PingPongStats(
            num_edges=int(src.size),
            num_sets=num_sets,
            blocks_fetched=fetched,
            blocks_skipped=max(span - fetched, 0),
            span_blocks=span,
        )
        return fill_at_set, stats
