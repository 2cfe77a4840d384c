"""Fault injection and resilient execution.

Public surface:

* :class:`~repro.faults.plan.FaultPlan` and the individual fault models
  (dead channel, latency spike, bit flip, pipeline stall);
* :class:`~repro.faults.injector.FaultInjector` — seeded evaluator wired
  into the HBM-channel and pipeline boundaries;
* :class:`~repro.faults.resilience.ResilientExecutor`,
  :class:`~repro.faults.resilience.ResiliencePolicy` and
  :class:`~repro.faults.resilience.RunHealthReport` — the resilient
  execution layer every :meth:`repro.core.framework.ReGraph.run`
  iterates in.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    STORAGE_FAULT_KINDS,
    BitFlipFault,
    DeadChannelFault,
    FaultPlan,
    LatencySpikeFault,
    PipelineStallFault,
    StorageFault,
)
from repro.faults.resilience import (
    ChannelBreakerState,
    CircuitBreakerBank,
    FaultRecord,
    ResiliencePolicy,
    ResilientExecutor,
    RunHealthReport,
)

__all__ = [
    "BitFlipFault",
    "ChannelBreakerState",
    "CircuitBreakerBank",
    "DeadChannelFault",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "LatencySpikeFault",
    "PipelineStallFault",
    "ResiliencePolicy",
    "ResilientExecutor",
    "RunHealthReport",
    "STORAGE_FAULT_KINDS",
    "StorageFault",
]
