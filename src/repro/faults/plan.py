"""Deterministic, seedable fault models (the ``FaultPlan``).

A :class:`FaultPlan` describes *what can go wrong* during one simulated
run: dead HBM pseudo-channels, latency-spike bursts on a channel,
transient bit-flips in gathered vertex blocks, and mid-partition pipeline
stalls.  Every fault model is a frozen dataclass, and the plan carries its
own RNG seed, so ``(seed, FaultPlan)`` fully determines the fault
sequence a run observes — two runs with identical configuration produce
identical :class:`~repro.faults.resilience.RunHealthReport`\\ s.

Channel ids use the host-runtime layout (:mod:`repro.runtime.host`):
pipeline ``g`` of the current topology owns pseudo-channels ``2g`` and
``2g + 1``, each holding its share of the edges and both property
arrays (Fig. 4), with Little pipelines numbered before Big ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import UserInputError
from repro.utils.wire import Wire


def _check_channel(fault) -> None:
    """Shared checks of the channel-addressed faults."""
    if fault.channel < 0:
        raise UserInputError(
            f"channel must be >= 0, got {fault.channel}"
        )
    _check_onset(fault)


def _check_onset(fault) -> None:
    onset = fault.onset_cycle
    try:
        valid = math.isfinite(onset) and onset >= 0
    except TypeError:
        valid = False
    if not valid:
        raise UserInputError(
            f"onset_cycle must be finite and >= 0, got {onset}"
        )


def _check_probability(fault) -> None:
    if not 0.0 <= fault.probability <= 1.0:
        raise UserInputError(
            f"probability must be in [0, 1], got {fault.probability}"
        )


@dataclass(frozen=True)
class DeadChannelFault:
    """A pseudo-channel stops answering from ``onset_cycle`` onwards.

    Permanent: retrying cannot help, the owning pipeline must be retired
    and the remaining partitions re-planned onto the survivors.
    """

    channel: int
    onset_cycle: float = 0.0

    def __post_init__(self):
        _check_channel(self)


@dataclass(frozen=True)
class LatencySpikeFault:
    """A bounded burst of inflated access latency on one channel.

    While ``onset_cycle <= now < onset_cycle + duration_cycles`` every
    latency the channel charges is multiplied by ``multiplier`` —
    modelling refresh storms / thermal throttling.  Backoff between
    retries advances simulated time, so a bounded spike is eventually
    waited out.
    """

    channel: int
    onset_cycle: float = 0.0
    duration_cycles: float = 100_000.0
    multiplier: float = 8.0

    def __post_init__(self):
        _check_channel(self)
        if not self.duration_cycles > 0:
            raise UserInputError(
                f"duration_cycles must be > 0, got {self.duration_cycles}"
            )
        if not math.isfinite(self.multiplier) or self.multiplier < 1:
            raise UserInputError(
                f"multiplier must be finite and >= 1, got {self.multiplier}"
            )


@dataclass(frozen=True)
class BitFlipFault:
    """Transient bit-flips in gathered edge/vertex blocks.

    ``probability`` is drawn once per gather-buffer drain (one Little
    task, or one partition of a Big group).  ``detectable=True`` models a
    parity/ECC check at block ingest: the flip surfaces as a
    :class:`~repro.errors.DataCorruptionError` and the iteration is
    retried from its checkpoint.  ``detectable=False`` silently flips one
    bit of the drained buffer — the pathological case iterative apps must
    damp out on their own.
    """

    probability: float
    detectable: bool = True
    onset_cycle: float = 0.0

    def __post_init__(self):
        _check_probability(self)
        _check_onset(self)


@dataclass(frozen=True)
class PipelineStallFault:
    """A pipeline hangs mid-partition with some per-task probability.

    ``pipeline`` pins the fault to one global pipeline index (Little
    pipelines first, then Big); ``None`` lets any task of any pipeline
    draw the stall.  Only pinned stalls are degradable — a global stall
    rate follows the workload wherever it is re-planned.
    """

    probability: float
    pipeline: Optional[int] = None
    onset_cycle: float = 0.0

    def __post_init__(self):
        _check_probability(self)
        _check_onset(self)
        if self.pipeline is not None and self.pipeline < 0:
            raise UserInputError(
                f"pipeline must be None or >= 0, got {self.pipeline}"
            )


#: Ways a journal/store file can be damaged by real storage.
STORAGE_FAULT_KINDS = ("torn-write", "partial-fsync", "bit-flip")

#: Files a storage fault may hit: the fleet journal, a result store
#: (the fleet's, or the serving job store) and the traffic bundle.
STORAGE_FAULT_TARGETS = ("journal", "store", "traffic")


@dataclass(frozen=True)
class StorageFault:
    """Durable-state damage: what a crash or bit rot does to a WAL file.

    Unlike the accelerator faults above, a storage fault is applied to a
    :mod:`repro.durable` record-log *file* (by
    :func:`repro.durable.apply_storage_fault`) between a hard kill
    and the subsequent recovery — it never touches the simulator.

    ``record`` selects the victim line for ``bit-flip`` (negative counts
    from the end of the file); torn writes and partial fsyncs always hit
    the tail, where real ones do.  ``target`` picks the victim file
    (:data:`STORAGE_FAULT_TARGETS`): the fleet's write-ahead journal,
    the store (the fleet's result store in a kill-restart cell, the
    serving job store in a serve-kill cell) or the serving facade's
    traffic bundle.
    """

    kind: str
    record: int = -1
    target: str = "journal"

    def __post_init__(self):
        if self.kind not in STORAGE_FAULT_KINDS:
            raise UserInputError(
                f"storage fault kind must be one of {STORAGE_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.target not in STORAGE_FAULT_TARGETS:
            raise UserInputError(
                f"storage fault target must be one of "
                f"{STORAGE_FAULT_TARGETS}, got {self.target!r}"
            )


@dataclass(frozen=True)
class FaultPlan(Wire):
    """The full fault configuration of one run (deterministic via seed)."""

    seed: int = 0
    dead_channels: Tuple[DeadChannelFault, ...] = ()
    latency_spikes: Tuple[LatencySpikeFault, ...] = ()
    bit_flips: Tuple[BitFlipFault, ...] = ()
    stalls: Tuple[PipelineStallFault, ...] = ()
    storage: Tuple[StorageFault, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise UserInputError(
                f"fault plan seed must be >= 0, got {self.seed}"
            )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing *into the simulator*
        (resilience stays idle).  Storage faults are deliberately not
        counted: they damage files between runs, never the run itself,
        so a storage-only plan still counts as empty."""
        return not (
            self.dead_channels
            or self.latency_spikes
            or self.bit_flips
            or self.stalls
        )

    def check_topology(self, num_pipelines: int) -> None:
        """Refuse fault ids a ``num_pipelines`` topology does not have.

        Pipeline ``g`` owns channels ``2g`` and ``2g + 1``, so a channel
        at or above ``2 * num_pipelines``, or a stall pipeline at or
        above ``num_pipelines``, names hardware that does not exist and
        the fault would never fire.  Raises
        :class:`~repro.errors.UserInputError`.
        """
        channels = 2 * num_pipelines
        for fault in self.dead_channels + self.latency_spikes:
            if fault.channel >= channels:
                raise UserInputError(
                    f"{type(fault).__name__} channel {fault.channel} is "
                    f"not in the pool: {num_pipelines} pipelines own "
                    f"channels 0..{channels - 1}"
                )
        for stall in self.stalls:
            if stall.pipeline is not None and stall.pipeline >= num_pipelines:
                raise UserInputError(
                    f"stall pipeline {stall.pipeline} is not in the pool: "
                    f"expected 0 <= pipeline < {num_pipelines}"
                )

    def to_dict(self) -> dict:
        data = super().to_dict()
        if not self.storage:
            # Emitted only when present, so pre-durability plan dicts
            # stay byte-identical (chaos bundle digests include them).
            del data["storage"]
        return data
