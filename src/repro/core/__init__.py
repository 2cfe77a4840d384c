"""ReGraph core: accelerator generation and the end-to-end framework.

Ties every substrate together, following the workflow of Fig. 8: UDFs ->
accelerator generation -> graph preprocessing (DBG + partitioning) ->
model-guided scheduling -> deployment on the simulated heterogeneous
pipeline system.
"""

from repro.core.accelerator import (
    enumerate_accelerators,
    feasible_accelerators,
)
from repro.core.system import IterationReport, RunReport, SystemSimulator
from repro.core.framework import PreparedGraph, PreprocessResult, ReGraph

__all__ = [
    "enumerate_accelerators",
    "feasible_accelerators",
    "IterationReport",
    "RunReport",
    "SystemSimulator",
    "PreparedGraph",
    "PreprocessResult",
    "ReGraph",
]
