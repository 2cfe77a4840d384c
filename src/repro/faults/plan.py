"""Deterministic, seedable fault models (the ``FaultPlan``).

A :class:`FaultPlan` describes *what can go wrong* during one simulated
run: dead HBM pseudo-channels, latency-spike bursts on a channel,
transient bit-flips in gathered vertex blocks, and mid-partition pipeline
stalls.  Every fault model is a frozen dataclass, and the plan carries its
own RNG seed, so ``(seed, FaultPlan)`` fully determines the fault
sequence a run observes — two runs with identical configuration produce
identical :class:`~repro.faults.resilience.RunHealthReport`\\ s.

Channel ids use the host-runtime layout (:mod:`repro.runtime.host`):
pipeline ``g`` of the current topology owns pseudo-channels ``2g``
(edges) and ``2g + 1`` (properties), with Little pipelines numbered
before Big ones.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Tuple

from repro.errors import UserInputError


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
    pipeline: int = None
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

#: Files a storage fault may hit: the fleet's JSONL pair and the
#: serving facade's traffic bundle and SQLite write-ahead log.
STORAGE_FAULT_TARGETS = ("journal", "store", "traffic", "store-wal")


@dataclass(frozen=True)
class StorageFault:
    """Durable-state damage: what a crash or bit rot does to a WAL file.

    Unlike the accelerator faults above, a storage fault is applied to a
    fleet journal or result store *file* (by
    :func:`repro.durable.apply_storage_fault`) between a hard kill
    and the subsequent recovery — it never touches the simulator.

    ``record`` selects the victim line for ``bit-flip`` (negative counts
    from the end of the file); torn writes and partial fsyncs always hit
    the tail, where real ones do.  ``target`` picks the victim file
    (:data:`STORAGE_FAULT_TARGETS`): the fleet's write-ahead journal or
    result store, the serving facade's traffic bundle, the SQLite
    job store's WAL (``store-wal``, where ``kind`` is moot — the tail
    is truncated and SQLite's frame checksums absorb it).
    """

    kind: str
    record: int = -1
    target: str = "journal"

    def __post_init__(self):
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ValueError(
                f"storage fault kind must be one of {STORAGE_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.target not in STORAGE_FAULT_TARGETS:
            raise ValueError(
                f"storage fault target must be one of "
                f"{STORAGE_FAULT_TARGETS}, got {self.target!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """The full fault configuration of one run (deterministic via seed)."""

    seed: int = 0
    dead_channels: Tuple[DeadChannelFault, ...] = ()
    latency_spikes: Tuple[LatencySpikeFault, ...] = ()
    bit_flips: Tuple[BitFlipFault, ...] = ()
    stalls: Tuple[PipelineStallFault, ...] = ()
    storage: Tuple[StorageFault, ...] = ()

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

    def to_dict(self) -> dict:
        """JSON-serialisable description of the plan."""
        data = {
            "seed": self.seed,
            "dead_channels": [asdict(f) for f in self.dead_channels],
            "latency_spikes": [asdict(f) for f in self.latency_spikes],
            "bit_flips": [asdict(f) for f in self.bit_flips],
            "stalls": [asdict(f) for f in self.stalls],
        }
        if self.storage:
            # Emitted only when present, so pre-durability plan dicts
            # stay byte-identical (chaos bundle digests include them).
            data["storage"] = [asdict(f) for f in self.storage]
        return data

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return FaultPlan(
            seed=int(data.get("seed", 0)),
            dead_channels=tuple(
                DeadChannelFault(**f) for f in data.get("dead_channels", [])
            ),
            latency_spikes=tuple(
                LatencySpikeFault(**f) for f in data.get("latency_spikes", [])
            ),
            bit_flips=tuple(
                BitFlipFault(**f) for f in data.get("bit_flips", [])
            ),
            stalls=tuple(
                PipelineStallFault(**f) for f in data.get("stalls", [])
            ),
            storage=tuple(
                StorageFault(**f) for f in data.get("storage", [])
            ),
        )
