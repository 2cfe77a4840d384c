"""Conformance subsystem: differential oracles + trace invariants.

Cross-checks the three independent descriptions of the machine — the
cycle-level simulators, the Eq. 1-4 analytic model, and the NumPy
reference algorithms — and audits execution traces against the physical
invariants of the modelled hardware.  Exposed to users as the ``repro
check`` CLI subcommand and to tests via
:mod:`repro.check.pytest_helpers`.
"""

from repro.check.invariants import (
    Violation,
    assert_trace_invariants,
    check_channel_bandwidth,
    check_coverage,
    check_monotone_cycles,
    check_no_overlap,
    check_resource_feasibility,
    check_trace,
)
from repro.check.oracles import (
    ORACLE_APPS,
    OracleResult,
    functional_oracle,
    model_oracle,
)
from repro.check.pytest_helpers import ConformanceChecker
from repro.check.runner import (
    ConformanceReport,
    run_conformance,
    seed_graphs,
    with_random_weights,
)
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands

__all__ = [
    "ConformanceChecker",
    "ConformanceReport",
    "DEFAULT_BANDS",
    "ORACLE_APPS",
    "OracleResult",
    "ToleranceBands",
    "Violation",
    "assert_trace_invariants",
    "check_channel_bandwidth",
    "check_coverage",
    "check_monotone_cycles",
    "check_no_overlap",
    "check_resource_feasibility",
    "check_trace",
    "functional_oracle",
    "model_oracle",
    "run_conformance",
    "seed_graphs",
    "with_random_weights",
]
