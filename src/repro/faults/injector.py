"""Seeded fault injector wired into the simulator's hardware boundaries.

One :class:`FaultInjector` instance accompanies a resilient run.  It is
installed at two boundaries:

* the **HBM channel boundary** — :class:`~repro.hbm.channel.HbmChannelModel`
  consults it (``scale_latency``) so latency-spike faults inflate every
  latency the channel charges while a spike window is active; the
  compiled timing pass reads the same rule per pipeline
  (``latency_scales``);
* the **pipeline boundary** — ``on_task`` runs once per task of every
  timing pass (dead channels and stalls raise here) and ``draw_flip``
  once per drained gather buffer of every functional pass (bit-flips
  raise or pick their victim bit here).  The compiled functional pass
  replays the draws in drain order; the interpreted pipeline walk calls
  ``filter_buffer``, the same draw plus the XOR.

The injector owns a ``numpy`` generator seeded from the plan, a simulated
clock ``now`` (advanced by the executor as cycles accumulate, including
wasted retry/backoff cycles), and the current execution context (which
pipeline is running, which pass).  Because the simulator's task order is
deterministic, the draw sequence — and therefore the whole fault history —
is a pure function of ``(seed, FaultPlan)``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import (
    ChannelFaultError,
    DataCorruptionError,
    PipelineStallError,
)
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the running simulation."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        #: Simulated kernel-clock time, set by the executor each attempt.
        self.now = 0.0
        #: "timing" or "functional" — which simulator pass is running.
        self.pass_kind = "timing"
        self._context: Optional[Tuple[str, int]] = None
        self._num_little = 0
        self._num_big = 0
        self._retired_channels = set()
        self._retired_pipelines = set()  # global pipeline indices

    # ------------------------------------------------------------------
    # Topology mapping (host-runtime channel layout)
    # ------------------------------------------------------------------
    def bind_topology(self, num_little: int, num_big: int) -> None:
        """Record the current accelerator shape (re-bound after re-plans)."""
        self._num_little = num_little
        self._num_big = num_big

    def _pipeline_of_channel(self, channel: int) -> Optional[Tuple[str, int]]:
        """Map a pseudo-channel id onto ``(kind, index)``, or ``None``."""
        g = channel // 2
        if g < self._num_little:
            return ("little", g)
        g -= self._num_little
        if g < self._num_big:
            return ("big", g)
        return None

    def _global_index(self, kind: str, index: int) -> int:
        return index if kind == "little" else self._num_little + index

    # ------------------------------------------------------------------
    # Execution context (set by the system simulator)
    # ------------------------------------------------------------------
    def enter_pipeline(self, kind: str, index: int) -> None:
        """Mark which pipeline's tasks are about to execute."""
        self._context = (kind, index)

    def exit_pipeline(self) -> None:
        """Leave pipeline context (Apply/Writer stages are unscoped)."""
        self._context = None

    # ------------------------------------------------------------------
    # Fault activity queries (drive cache invalidation and degradation)
    # ------------------------------------------------------------------
    def timing_faults_active(self) -> bool:
        """True while any fault can alter or abort the timing pass.

        While this is False the system simulator reuses its cached
        fault-free iteration timing, which is what makes a zero-fault
        plan reproduce the fault-free cycle counts exactly.  While it is
        True each timing pass replays the ``on_task`` hooks and scales
        the spiked pipelines (:meth:`latency_scales`) on the compiled
        engine.
        """
        for f in self.plan.dead_channels:
            if (
                f.channel not in self._retired_channels
                and self.now >= f.onset_cycle
                and self._pipeline_of_channel(f.channel) is not None
            ):
                return True
        for f in self.plan.stalls:
            if f.probability <= 0 or self.now < f.onset_cycle:
                continue
            if f.pipeline is not None and f.pipeline in self._retired_pipelines:
                continue
            return True
        return self.spike_victim() is not None

    def _open_flips(self):
        """Bit-flip models whose window is open (the one window rule)."""
        return [
            f for f in self.plan.bit_flips
            if f.probability > 0 and self.now >= f.onset_cycle
        ]

    def functional_faults_active(self) -> bool:
        """True while any fault can perturb the functional pass.

        Only bit-flips touch functional results, and ``draw_flip`` draws
        injector randomness exactly for flips whose window is open.
        While this is False a functional pass draws nothing and corrupts
        nothing.
        """
        return bool(self._open_flips())

    def _active_spikes(self):
        """``(fault, victim pipeline)`` of every spike whose window is
        open on a live channel of the current topology."""
        for f in self.plan.latency_spikes:
            if f.channel in self._retired_channels:
                continue
            if f.onset_cycle <= self.now < f.onset_cycle + f.duration_cycles:
                victim = self._pipeline_of_channel(f.channel)
                if victim is not None:
                    yield f, victim

    def spike_victim(self) -> Optional[Tuple[str, int]]:
        """The pipeline hit by a currently-active latency spike, if any."""
        for _f, victim in self._active_spikes():
            return victim
        return None

    def latency_scales(self) -> Dict[Tuple[str, int], float]:
        """Latency multiplier per spiked pipeline; absent means 1.0.

        Overlapping spikes on one pipeline do not compound: the largest
        multiplier wins, and a scale never drops below 1.0.
        """
        scales: Dict[Tuple[str, int], float] = {}
        for f, victim in self._active_spikes():
            scales[victim] = max(scales.get(victim, 1.0), f.multiplier)
        return {v: s for v, s in scales.items() if s != 1.0}

    # ------------------------------------------------------------------
    # Degradation bookkeeping
    # ------------------------------------------------------------------
    def retire_pipeline(self, kind: str, index: int) -> None:
        """Retire a degraded pipeline: its channels stop hosting faults.

        Called *before* the topology is re-bound to the shrunk
        accelerator, while ``(kind, index)`` still names the victim in
        the old shape.
        """
        g = self._global_index(kind, index)
        self._retired_pipelines.add(g)
        self._retired_channels.update((2 * g, 2 * g + 1))

    # ------------------------------------------------------------------
    # HBM channel boundary hook
    # ------------------------------------------------------------------
    def scale_latency(self, latency):
        """Inflate a latency figure while a spike targets the current
        pipeline; identity otherwise."""
        if self._context is None:
            return latency
        scale = self.latency_scales().get(self._context, 1.0)
        if scale == 1.0:
            return latency
        return latency * scale

    # ------------------------------------------------------------------
    # Pipeline boundary hooks
    # ------------------------------------------------------------------
    def on_task(self, kind: str) -> None:
        """Called before each task execution; raises modelled faults.

        Only the timing pass raises here: it runs first every iteration,
        so a fault aborts the iteration before any functional work.
        """
        if self.pass_kind != "timing":
            return
        ctx = self._context if self._context is not None else (kind, 0)
        for f in self.plan.dead_channels:
            if f.channel in self._retired_channels or self.now < f.onset_cycle:
                continue
            if self._pipeline_of_channel(f.channel) == ctx:
                raise ChannelFaultError(f.channel, victim=ctx)
        for f in self.plan.stalls:
            if f.probability <= 0 or self.now < f.onset_cycle:
                continue
            g = self._global_index(*ctx)
            if f.pipeline is not None:
                if f.pipeline in self._retired_pipelines or f.pipeline != g:
                    continue
            if self.rng.random() < f.probability:
                raise PipelineStallError(
                    f"pipeline {ctx[0]}{ctx[1]} stalled mid-partition",
                    victim=ctx if f.pipeline is not None else None,
                )

    def draw_flip(self, nbytes: int) -> Optional[Tuple[int, int]]:
        """Draw the bit-flip faults of one drained gather buffer.

        ``nbytes`` is the buffer's size; an empty buffer draws nothing.
        Each open flip draws once: a detectable hit raises
        :class:`DataCorruptionError` (the parity check caught it), a
        silent hit draws and returns the ``(byte, bit)`` to XOR and ends
        the buffer's draws.  No draw depends on the buffer's contents.
        """
        if nbytes == 0:
            return None
        for f in self._open_flips():
            if self.rng.random() >= f.probability:
                continue
            ctx = self._context
            if f.detectable:
                raise DataCorruptionError(
                    "parity check detected a flipped bit in a gathered "
                    f"block (pipeline {ctx[0]}{ctx[1] if ctx else '?'})"
                    if ctx
                    else "parity check detected a flipped bit",
                )
            byte = int(self.rng.integers(0, nbytes))
            bit = int(self.rng.integers(0, 8))
            return byte, bit
        return None

    def filter_buffer(self, buffer: np.ndarray) -> np.ndarray:
        """Apply bit-flip faults to one drained gather buffer.

        The interpreted walk's hook: :meth:`draw_flip`, then a silent hit
        hands back a corrupted copy (the input is left untouched).
        """
        hit = self.draw_flip(buffer.nbytes)
        if hit is None:
            return buffer
        corrupted = buffer.copy()
        flip_bit(corrupted, *hit)
        return corrupted


def flip_bit(buffer: np.ndarray, byte: int, bit: int) -> None:
    """XOR bit ``bit`` of raw byte ``byte`` of a contiguous buffer."""
    buffer.view(np.uint8)[byte] ^= np.uint8(1 << bit)
