"""One accelerator replica and its serving-lifecycle state machine.

::

    SERVING --consecutive failures--> DRAINING --in-flight done--> QUARANTINED
       ^                                                               |
       |  canary passed (repair)                                       |
       +------------------------------<--------------------------------+
                                                   canary failed / killed
                                                        |
                                                        v
                                                     RETIRED

A replica wraps one :class:`~repro.runtime.host.AcceleratorHandle`
(mixed U280/U50 pools are just replicas with different platforms).  The
handle outlives individual jobs, so its per-channel circuit-breaker bank
and last health report are *live* placement signals: a replica whose
card keeps blacklisting channels looks slower and eventually drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.config import PipelineConfig
from repro.errors import UserInputError
from repro.runtime.host import (
    AcceleratorHandle,
    HostTimingConfig,
    init_accelerator,
)

#: Lifecycle states (REPAIRED is the SERVING re-entry after a canary
#: pass; it is recorded in ``repairs`` rather than as a distinct state).
SERVING = "SERVING"
DRAINING = "DRAINING"
QUARANTINED = "QUARANTINED"
RETIRED = "RETIRED"

REPLICA_STATES = (SERVING, DRAINING, QUARANTINED, RETIRED)


@dataclass
class Replica:
    """A pool member: handle + lifecycle + health counters."""

    replica_id: str
    device: str
    handle: AcceleratorHandle
    state: str = SERVING
    #: Virtual time this replica finishes its current work.
    busy_until: float = 0.0
    consecutive_failures: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    #: Virtual time the replica entered quarantine (canary due after
    #: the policy cooldown).
    quarantined_at: Optional[float] = None
    canaries_run: int = 0
    repairs: int = 0
    killed: bool = False
    #: In-flight attempt count (the runtime maintains this; a draining
    #: replica quarantines once it reaches zero).
    inflight: int = 0
    retired_reason: str = ""

    # -- queries --------------------------------------------------------
    @property
    def is_serving(self) -> bool:
        return self.state == SERVING

    def available_at(self, now: float) -> float:
        """Earliest virtual time this replica can start new work."""
        return max(self.busy_until, now)

    def open_breakers(self) -> int:
        """Live health signal: channels the handle has blacklisted."""
        return self.handle.open_breaker_count()

    def degraded_pipelines(self) -> int:
        """Pipelines the most recent run ended without."""
        health = self.handle.last_health
        if health is None:
            return 0
        return len(health.degraded_pipelines)

    # -- lifecycle transitions -----------------------------------------
    def record_success(self) -> None:
        self.jobs_completed += 1
        self.consecutive_failures = 0

    def record_failure(self, threshold: int) -> bool:
        """Charge one failure; True when the replica must start draining."""
        self.jobs_failed += 1
        self.consecutive_failures += 1
        return self.is_serving and self.consecutive_failures >= threshold

    def begin_drain(self, now: float) -> None:
        if self.state != SERVING:
            return
        self.state = DRAINING
        self.handle.drain()
        if self.inflight == 0:
            self.enter_quarantine(now)

    def enter_quarantine(self, now: float) -> None:
        if self.state == RETIRED:
            return
        self.state = QUARANTINED
        self.quarantined_at = now

    def repair(self) -> None:
        """Canary passed: rejoin the pool (REPAIRED -> SERVING)."""
        if self.state == RETIRED:
            raise UserInputError(
                f"replica {self.replica_id} is retired and cannot rejoin"
            )
        self.state = SERVING
        self.quarantined_at = None
        self.consecutive_failures = 0
        self.repairs += 1
        self.handle.resume()

    def retire(self, reason: str) -> None:
        """Permanently remove the replica (canary failed, or killed)."""
        self.state = RETIRED
        self.retired_reason = reason
        self.quarantined_at = None
        if self.handle.programmed:
            self.handle.release()

    def kill(self, reason: str = "killed") -> None:
        """Crash the card: immediate, permanent retirement."""
        self.killed = True
        self.retire(reason)

    # -- report ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "device": self.device,
            "state": self.state,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "consecutive_failures": self.consecutive_failures,
            "canaries_run": self.canaries_run,
            "repairs": self.repairs,
            "killed": self.killed,
            "retired_reason": self.retired_reason,
            "open_breakers": (
                0 if not self.handle.programmed else self.open_breakers()
            ),
        }


def make_replica(
    replica_id: str,
    device: str,
    buffer_vertices: int = 256,
    num_pipelines: int = 4,
    timing: Optional[HostTimingConfig] = None,
) -> Replica:
    """Initialise one pool member (devices validated by the host API)."""
    handle = init_accelerator(
        device,
        pipeline=PipelineConfig(gather_buffer_vertices=buffer_vertices),
        num_pipelines=num_pipelines,
        timing=timing or HostTimingConfig.instant(),
    )
    return Replica(replica_id=replica_id, device=device, handle=handle)
