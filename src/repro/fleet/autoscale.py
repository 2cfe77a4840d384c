"""Autoscaling of the fleet's replica pool.

The :class:`Autoscaler` watches the telemetry the
:class:`~repro.fleet.admission.AdmissionController` and the run loop
already produce — queue depth, shed rate, p99 *virtual* job latency —
and decides when the pool should grow or shrink.  The mechanism stays
in :class:`~repro.fleet.runtime.FleetRuntime` (it owns the pool, the
journal and the clock); this module owns only the *policy*:

* **Hysteresis** — one bad observation never scales.  The pool grows
  only after ``breach_streak`` consecutive breached observations and
  shrinks only after ``idle_streak`` consecutive idle ones, so a
  circuit-breaker flap (one replica drains, queue briefly spikes, the
  canary repairs it) doesn't thrash the pool.
* **Cooldown** — after any action the autoscaler holds still for
  ``cooldown_seconds`` of virtual time, long enough for the previous
  decision's effect to show up in the telemetry it watches.

Everything is driven by the fleet's deterministic virtual clock: the
same job stream against the same policy produces the same decision
trace, which is why decisions can be asserted in tests and surfaced in
reports.  Decisions and counters are a **side-channel** (like
``recovery_stats``), deliberately outside the digest-bearing
:class:`~repro.fleet.report.FleetReport` payload.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, TypedDict

from repro.errors import UserInputError
from repro.utils.wire import Wire

#: Decision labels recorded in the trace.
SCALE_UP = "scale-up"
SCALE_DOWN = "scale-down"


@dataclass(frozen=True)
class AutoscalePolicy(Wire):
    """Tunables of the autoscaler (validated on construction)."""

    #: Pool size bounds (serving + draining + quarantined, i.e. every
    #: replica that could still return to service).
    min_replicas: int = 1
    max_replicas: int = 8
    #: Scale-up trigger: queued jobs per serving replica above this is a
    #: breach.
    queue_depth_per_replica: float = 4.0
    #: Scale-up trigger: fraction of submissions shed since the last
    #: observation above this is a breach (breaker for admission
    #: pressure the queue depth alone can hide).
    shed_rate_trigger: float = 0.05
    #: Scale-up trigger: p99 virtual job latency (submit -> finish)
    #: above this is a breach.  ``None`` disables the latency trigger.
    p99_latency_target_seconds: Optional[float] = None
    #: Consecutive breached observations before the pool grows.
    breach_streak: int = 2
    #: Consecutive idle observations before the pool shrinks.
    idle_streak: int = 4
    #: Virtual seconds the autoscaler holds still after any action.
    cooldown_seconds: float = 0.5
    #: Completed-job latencies kept for the p99 estimate.
    latency_window: int = 64

    def __post_init__(self):
        if self.min_replicas < 1:
            raise UserInputError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise UserInputError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if (
            not math.isfinite(self.queue_depth_per_replica)
            or self.queue_depth_per_replica <= 0
        ):
            raise UserInputError(
                "queue_depth_per_replica must be positive, got "
                f"{self.queue_depth_per_replica}"
            )
        if not 0.0 <= self.shed_rate_trigger <= 1.0:
            raise UserInputError(
                f"shed_rate_trigger must be in [0, 1], got "
                f"{self.shed_rate_trigger}"
            )
        if self.p99_latency_target_seconds is not None and (
            not math.isfinite(self.p99_latency_target_seconds)
            or self.p99_latency_target_seconds <= 0
        ):
            raise UserInputError(
                "p99_latency_target_seconds must be positive, got "
                f"{self.p99_latency_target_seconds}"
            )
        if self.breach_streak < 1 or self.idle_streak < 1:
            raise UserInputError(
                "breach_streak and idle_streak must be >= 1, got "
                f"{self.breach_streak}/{self.idle_streak}"
            )
        if (
            not math.isfinite(self.cooldown_seconds)
            or self.cooldown_seconds < 0
        ):
            raise UserInputError(
                f"cooldown_seconds must be non-negative, got "
                f"{self.cooldown_seconds}"
            )
        if self.latency_window < 1:
            raise UserInputError(
                f"latency_window must be >= 1, got {self.latency_window}"
            )


class AutoscaleDecision(TypedDict):
    """One scale-up / scale-down of the decision trace."""

    action: str
    replica_id: str
    time: float


class AutoscaleStats(TypedDict):
    """:meth:`Autoscaler.stats`, as a soak report file carries it."""

    policy: dict
    spawned: int
    retired: int
    p99_latency_seconds: Optional[float]
    breach_streak: int
    idle_streak: int
    draining_down: List[str]
    decisions: List[AutoscaleDecision]


class Autoscaler:
    """Decision engine: telemetry in, ``scale-up``/``scale-down`` out.

    The runtime calls :meth:`observe` after every event, applies the
    returned action (spawning/draining replicas through the normal
    lifecycle), and reports back via :meth:`note_spawned` /
    :meth:`note_retired`.
    """

    def __init__(self, policy: Optional[AutoscalePolicy] = None):
        self.policy = policy or AutoscalePolicy()
        #: Chronological decision trace (plain dicts, virtual-time
        #: stamped) — a side-channel, never part of the report digest.
        self.decisions: List[dict] = []
        self.spawned = 0
        self.retired = 0
        self._spawn_seq = 0
        self._breach_streak = 0
        self._idle_streak = 0
        self._last_action_at = -math.inf
        self._last_submitted = 0
        self._last_shed = 0
        self._latencies: deque = deque(maxlen=self.policy.latency_window)
        #: Replica ids this autoscaler is draining *down* (as opposed to
        #: draining toward quarantine): the runtime retires these once
        #: idle instead of probing them with canaries.
        self._draining_down: Dict[str, float] = {}

    # -- telemetry in ---------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        """Feed one completed job's virtual latency (submit -> finish)."""
        self._latencies.append(float(seconds))

    def p99_latency(self) -> Optional[float]:
        """Windowed p99 virtual latency, or ``None`` before any data."""
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        index = max(int(math.ceil(0.99 * len(ordered))) - 1, 0)
        return ordered[index]

    # -- the decision ---------------------------------------------------
    def observe(
        self,
        now: float,
        queue_depth: int,
        serving: int,
        pool_size: int,
        admission_stats,
    ) -> Optional[str]:
        """One observation of the fleet; returns the action due, if any.

        ``serving`` counts SERVING replicas, ``pool_size`` everything
        not RETIRED (the bound :attr:`AutoscalePolicy.max_replicas`
        applies to).  ``admission_stats`` is the live
        :class:`~repro.fleet.admission.AdmissionStats`.
        """
        submitted = admission_stats.submitted
        shed = (
            admission_stats.shed_queue_depth
            + admission_stats.shed_rate_limit
            + admission_stats.shed_tenant_quota
        )
        new_submitted = submitted - self._last_submitted
        new_shed = shed - self._last_shed
        self._last_submitted = submitted
        self._last_shed = shed
        shed_rate = new_shed / new_submitted if new_submitted > 0 else 0.0

        p99 = self.p99_latency()
        target = self.policy.p99_latency_target_seconds
        breached = (
            queue_depth > self.policy.queue_depth_per_replica * max(serving, 1)
            or shed_rate > self.policy.shed_rate_trigger
            or (target is not None and p99 is not None and p99 > target)
        )
        idle = (
            queue_depth == 0
            and new_shed == 0
            and not breached
        )
        if breached:
            self._breach_streak += 1
            self._idle_streak = 0
        elif idle:
            self._idle_streak += 1
            self._breach_streak = 0
        else:
            self._breach_streak = 0
            self._idle_streak = 0

        if now - self._last_action_at < self.policy.cooldown_seconds:
            return None
        if (
            self._breach_streak >= self.policy.breach_streak
            and pool_size < self.policy.max_replicas
        ):
            return SCALE_UP
        if (
            self._idle_streak >= self.policy.idle_streak
            and serving > self.policy.min_replicas
        ):
            return SCALE_DOWN
        return None

    # -- actions back from the runtime ----------------------------------
    def next_replica_id(self, taken) -> str:
        """A fresh ``as<n>`` id not colliding with the current pool."""
        taken = set(taken)
        while True:
            self._spawn_seq += 1
            candidate = f"as{self._spawn_seq}"
            if candidate not in taken:
                return candidate

    def note_spawned(self, replica_id: str, now: float) -> None:
        self.spawned += 1
        self._breach_streak = 0
        self._last_action_at = now
        self.decisions.append({
            "action": SCALE_UP,
            "replica_id": replica_id,
            "time": now,
        })

    def begin_scale_down(self, replica_id: str, now: float) -> None:
        """Mark a drain as a scale-down (runtime retires it once idle)."""
        self._idle_streak = 0
        self._last_action_at = now
        self._draining_down[replica_id] = now
        self.decisions.append({
            "action": SCALE_DOWN,
            "replica_id": replica_id,
            "time": now,
        })

    def owns_drain(self, replica_id: str) -> bool:
        """Whether this drain is a scale-down (retire when idle) rather
        than a health drain (quarantine + canary when idle)."""
        return replica_id in self._draining_down

    def note_retired(self, replica_id: str, now: float) -> None:
        self._draining_down.pop(replica_id, None)
        self.retired += 1

    # -- reporting ------------------------------------------------------
    def stats(self) -> AutoscaleStats:
        """Side-channel snapshot for CLI / health surfaces."""
        return {
            "policy": self.policy.to_dict(),
            "spawned": self.spawned,
            "retired": self.retired,
            "p99_latency_seconds": self.p99_latency(),
            "breach_streak": self._breach_streak,
            "idle_streak": self._idle_streak,
            "draining_down": sorted(self._draining_down),
            "decisions": [dict(d) for d in self.decisions],
        }
