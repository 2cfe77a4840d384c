"""Admission control: bounded queue depth + token-bucket rate limiting.

Load shedding is *typed*: every rejection raises (and is recorded as)
:class:`~repro.errors.FleetOverloadError` with a machine-readable reason,
so an overloaded fleet degrades into explicit rejections, never into
silently dropped jobs.  The token bucket refills against the fleet's
deterministic virtual clock, which keeps admission decisions — like
everything else in the runtime — bit-reproducible from the seed.

On top of the fleet-wide bucket the controller can carry **per-tenant**
buckets (:meth:`AdmissionController.register_tenant`): the serving
facade maps API keys to tenants and each tenant burns its own tokens
before touching the shared ones.  A tenant over quota is shed with
:class:`~repro.errors.TenantQuotaExceededError` (a 429-style subclass of
the overload error) and never consumes fleet-wide capacity — checks are
peek-then-take across both buckets, so a rejection charges nothing.
The controller is clock-agnostic: the fleet feeds it virtual time, the
wall-clock gateway feeds it ``time.monotonic()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import (
    FleetOverloadError,
    TenantQuotaExceededError,
    UserInputError,
)
from repro.utils.wire import Wire


class TokenBucket:
    """Deterministic token bucket refilled by virtual time."""

    def __init__(self, rate_per_second: float, burst: int):
        if not math.isfinite(rate_per_second) or rate_per_second <= 0:
            raise UserInputError(
                f"token rate must be positive and finite, got "
                f"{rate_per_second}"
            )
        if burst < 1:
            raise UserInputError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate_per_second)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._last_refill) * self.rate,
            )
            self._last_refill = now

    def try_take(self, now: float) -> bool:
        """Consume one token at virtual time ``now`` if one is available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def tokens_at(self, now: float) -> float:
        """Tokens that would be available at ``now`` (inspection only)."""
        self._refill(now)
        return self._tokens

    def take(self, now: float) -> None:
        """Unconditionally consume one token (caller peeked first)."""
        self._refill(now)
        self._tokens -= 1.0


@dataclass
class AdmissionStats(Wire):
    """Counters the admission controller accumulates for the report."""

    submitted: int = 0
    admitted: int = 0
    shed_queue_depth: int = 0
    shed_rate_limit: int = 0
    shed_tenant_quota: int = 0


class AdmissionController:
    """Gate between the outside world and the fleet's job queue."""

    def __init__(
        self,
        max_queue_depth: int,
        rate_limit_jobs_per_second: Optional[float] = None,
        rate_limit_burst: int = 8,
    ):
        if max_queue_depth < 1:
            raise UserInputError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.max_queue_depth = int(max_queue_depth)
        self.bucket = (
            TokenBucket(rate_limit_jobs_per_second, rate_limit_burst)
            if rate_limit_jobs_per_second is not None
            else None
        )
        self.tenant_buckets: Dict[str, TokenBucket] = {}
        self.stats = AdmissionStats()

    def register_tenant(
        self,
        tenant: str,
        rate_per_second: Optional[float],
        burst: int = 8,
    ) -> None:
        """Attach a per-tenant bucket (``None`` rate = unmetered tenant)."""
        if not tenant:
            raise UserInputError("tenant name must be non-empty")
        if rate_per_second is None:
            self.tenant_buckets.pop(tenant, None)
            return
        self.tenant_buckets[tenant] = TokenBucket(rate_per_second, burst)

    def admit(
        self,
        job,
        queue_depth: int,
        now: float,
        tenant: Optional[str] = None,
    ) -> None:
        """Accept ``job`` or raise a typed :class:`FleetOverloadError`.

        ``queue_depth`` is the number of jobs already waiting; ``now``
        is the admission clock (virtual time in the fleet, wall clock in
        the serving gateway).  When ``tenant`` names a registered
        bucket, the tenant's tokens and the fleet-wide tokens are
        checked peek-first and only charged together on acceptance — a
        rejection at either level consumes nothing anywhere.
        """
        self.stats.submitted += 1
        if queue_depth >= self.max_queue_depth:
            self.stats.shed_queue_depth += 1
            raise FleetOverloadError(
                f"job {job.job_id} shed: queue depth {queue_depth} at "
                f"limit {self.max_queue_depth}",
                reason="queue-depth",
            )
        tenant_bucket = (
            self.tenant_buckets.get(tenant) if tenant is not None else None
        )
        if tenant_bucket is not None and tenant_bucket.tokens_at(now) < 1.0:
            self.stats.shed_tenant_quota += 1
            raise TenantQuotaExceededError(
                f"job {job.job_id} shed: tenant {tenant!r} over quota "
                f"({tenant_bucket.rate:g} jobs/s, "
                f"burst {tenant_bucket.burst})",
                tenant=tenant or "",
                reason="tenant-rate",
            )
        if self.bucket is not None and self.bucket.tokens_at(now) < 1.0:
            self.stats.shed_rate_limit += 1
            raise FleetOverloadError(
                f"job {job.job_id} shed: admission rate limit exceeded "
                f"({self.bucket.rate:g} jobs/s, burst {self.bucket.burst})",
                reason="rate-limit",
            )
        if tenant_bucket is not None:
            tenant_bucket.take(now)
        if self.bucket is not None:
            self.bucket.take(now)
        self.stats.admitted += 1
