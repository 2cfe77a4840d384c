"""Serving-facade configuration: tenants, API keys, gateway knobs.

A :class:`TenantSpec` is one paying customer of the gateway: an API
key, an optional per-tenant admission rate (token bucket, enforced by
:class:`~repro.fleet.admission.AdmissionController`), and a bound on
how many of the tenant's jobs may sit unfinished at once.  The
:class:`TenantRegistry` maps keys to tenants — authentication failures
and quota rejections are *typed*
(:class:`~repro.errors.TenantAuthError`,
:class:`~repro.errors.TenantQuotaExceededError`), mirroring the fleet's
no-silent-drops posture at the HTTP boundary (401/429, never a hang).

:class:`ServingConfig` pins everything else one gateway needs: the
replica pool recipe (devices, buffer size, pipeline count — the same
recipe the fleet journal stores in ``run-begin``), the fleet policy,
the drain budget, and where the durable job store and traffic bundle
live.  ``session_spec()`` is the canonical dict of the *kernel-visible*
subset: it is persisted in the job store and the traffic header, and
resume/replay rebuild the virtual-clock session from it — which is why
a recovered or replayed run can reproduce the live run's
:class:`~repro.fleet.report.FleetReport` digest bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import TenantAuthError, UserInputError
from repro.fleet.runtime import FleetPolicy
from repro.utils.wire import Wire


@dataclass(frozen=True)
class TenantSpec(Wire):
    """One tenant of the serving gateway."""

    name: str
    api_key: str
    #: Per-tenant admission rate (jobs per wall-clock second);
    #: ``None`` = unmetered.
    rate_jobs_per_second: Optional[float] = None
    rate_burst: int = 8
    #: Jobs the tenant may have accepted-but-unfinished at once.
    max_pending: int = 64

    def __post_init__(self):
        if not self.name:
            raise UserInputError("tenant name must be non-empty")
        if not self.api_key:
            raise UserInputError(
                f"tenant {self.name!r} needs a non-empty API key"
            )
        if self.rate_jobs_per_second is not None and (
            not math.isfinite(self.rate_jobs_per_second)
            or self.rate_jobs_per_second <= 0
        ):
            raise UserInputError(
                f"tenant {self.name!r}: rate must be positive and finite, "
                f"got {self.rate_jobs_per_second}"
            )
        if self.rate_burst < 1:
            raise UserInputError(
                f"tenant {self.name!r}: burst must be >= 1, "
                f"got {self.rate_burst}"
            )
        if self.max_pending < 1:
            raise UserInputError(
                f"tenant {self.name!r}: max_pending must be >= 1, "
                f"got {self.max_pending}"
            )

    @staticmethod
    def parse(spec: str) -> "TenantSpec":
        """``NAME:KEY[:RATE[:BURST]]`` (the ``--tenant`` CLI syntax)."""
        parts = spec.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise UserInputError(
                f"bad --tenant spec {spec!r} "
                "(expected NAME:KEY[:RATE[:BURST]], e.g. acme:s3cret:50:8)"
            )
        try:
            rate = float(parts[2]) if len(parts) >= 3 and parts[2] else None
            burst = int(parts[3]) if len(parts) == 4 else 8
        except ValueError as exc:
            raise UserInputError(
                f"bad --tenant spec {spec!r}: {exc}"
            ) from exc
        return TenantSpec(
            name=parts[0],
            api_key=parts[1],
            rate_jobs_per_second=rate,
            rate_burst=burst,
        )


class TenantRegistry:
    """API-key -> tenant lookup with typed auth failures."""

    def __init__(self, tenants: Tuple[TenantSpec, ...]):
        if not tenants:
            raise UserInputError("the gateway needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise UserInputError(f"duplicate tenant names: {sorted(names)}")
        keys = [t.api_key for t in tenants]
        if len(set(keys)) != len(keys):
            raise UserInputError(
                "two tenants share an API key; keys must be unique"
            )
        self.tenants: Tuple[TenantSpec, ...] = tuple(tenants)
        self._by_key: Dict[str, TenantSpec] = {
            t.api_key: t for t in tenants
        }
        self._by_name: Dict[str, TenantSpec] = {t.name: t for t in tenants}

    def authenticate(self, api_key: Optional[str]) -> TenantSpec:
        """The tenant owning ``api_key``, or a typed 401."""
        if not api_key:
            raise TenantAuthError(
                "missing API key (send 'Authorization: Bearer <key>' "
                "or 'X-Api-Key: <key>')"
            )
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise TenantAuthError("unknown API key")
        return tenant

    def get(self, name: str) -> Optional[TenantSpec]:
        return self._by_name.get(name)

    def __iter__(self):
        return iter(self.tenants)

    def __len__(self) -> int:
        return len(self.tenants)


#: The out-of-the-box tenant (`repro serve` without --tenant).
DEFAULT_TENANTS = (TenantSpec(name="demo", api_key="demo-key"),)


@dataclass(frozen=True)
class ServingConfig:
    """Everything one gateway instance needs."""

    #: Replica pool recipe: device per pool slot.
    devices: Tuple[str, ...] = ("U280", "U50")
    buffer_vertices: int = 256
    num_pipelines: int = 4
    policy: FleetPolicy = field(default_factory=FleetPolicy)
    tenants: Tuple[TenantSpec, ...] = DEFAULT_TENANTS
    #: Gateway-wide admission rate (jobs per wall second); ``None`` =
    #: unlimited (tenants may still be metered individually).
    rate_jobs_per_second: Optional[float] = None
    rate_burst: int = 16
    #: Jobs allowed to wait across all tenants.
    max_pending: int = 256
    #: Wall-clock seconds a graceful drain may take before the gateway
    #: journals the rest and reports itself resumable (exit code 3).
    drain_budget_seconds: float = 30.0
    #: Durable job/result store (a ``regraph-jobstore/v2`` record log);
    #: ``None`` = in-memory (tests).
    store_path: Optional[str] = None
    #: ``regraph-traffic/v1`` bundle to record; ``None`` = no recording.
    traffic_path: Optional[str] = None
    fsync: bool = True

    def __post_init__(self):
        if not self.devices:
            raise UserInputError("serving needs at least one replica")
        if self.max_pending < 1:
            raise UserInputError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if (
            not math.isfinite(self.drain_budget_seconds)
            or self.drain_budget_seconds <= 0
        ):
            raise UserInputError(
                "drain_budget_seconds must be positive and finite, got "
                f"{self.drain_budget_seconds}"
            )
        TenantRegistry(self.tenants)  # validates names/keys

    def registry(self) -> TenantRegistry:
        return TenantRegistry(self.tenants)

    def session_spec(self) -> dict:
        """The kernel-visible subset that determines the virtual-clock
        session — persisted in the store and the traffic header, and
        the whole input of resume/replay."""
        return {
            "devices": list(self.devices),
            "buffer_vertices": self.buffer_vertices,
            "num_pipelines": self.num_pipelines,
            "policy": self.policy.to_dict(),
        }
