"""Wall-clock serving facade over the deterministic fleet kernel.

``repro.serving`` is where real time enters the system — and where it
is stopped.  The :class:`~repro.serving.gateway.ServingGateway` takes
concurrent wall-clock traffic (API keys, quotas, deadlines, SIGTERM)
and reduces it to the one thing the kernel sees: an ordered acceptance
sequence, executed micro-batch-by-micro-batch on a persistent
virtual-clock :class:`~repro.serving.session.KernelSession`.  Live
serving, crash recovery (``repro serve --resume``) and traffic replay
(``repro traffic replay``) all feed that same class the same sequence,
so their :class:`~repro.fleet.report.FleetReport` digests agree
bit-for-bit by construction.

Durability is dual: every acknowledged job is appended to the
``regraph-jobstore/v2`` :class:`~repro.serving.jobstore.JobStore` *and*
the ``regraph-traffic/v1`` bundle before the ack leaves the process.
Both are :mod:`repro.durable` record logs with the same accept and
result records, and recovery merges the two — an acked job survives as
long as either file does.  See ``docs/SERVING.md``.
"""

from repro.serving.config import (
    DEFAULT_TENANTS,
    ServingConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.serving.gateway import ServingGateway, default_gateway
from repro.serving.http import HttpServer
from repro.serving.jobstore import JOBSTORE_SCHEMA, JobStore
from repro.serving.session import KernelSession, build_pool
from repro.serving.signals import (
    EXIT_RESUMABLE,
    graceful_interrupts,
    install_async_drain,
)
from repro.serving.traffic import (
    TRAFFIC_SCHEMA,
    TrafficBundle,
    TrafficRecorder,
    read_traffic,
    replay_traffic,
)

__all__ = [
    "DEFAULT_TENANTS",
    "EXIT_RESUMABLE",
    "HttpServer",
    "JOBSTORE_SCHEMA",
    "JobStore",
    "KernelSession",
    "ServingConfig",
    "ServingGateway",
    "TRAFFIC_SCHEMA",
    "TenantRegistry",
    "TenantSpec",
    "TrafficBundle",
    "TrafficRecorder",
    "build_pool",
    "default_gateway",
    "graceful_interrupts",
    "install_async_drain",
    "read_traffic",
    "replay_traffic",
]
