"""Chaos campaigns: randomized fault soak testing with oracles.

The subsystem that drives PR 1 (fault injection + resilient execution)
and PR 2 (conformance oracles + trace invariants) *together* at scale:

* :mod:`repro.chaos.spec`     — cell/graph value objects (JSON round-trip);
* :mod:`repro.chaos.generate` — seeded randomized cell matrices;
* :mod:`repro.chaos.campaign` — the execution engine + failure digests;
* :mod:`repro.chaos.oracles`  — correctness checks on surviving runs;
* :mod:`repro.chaos.shrink`   — ddmin fault-plan minimisation;
* :mod:`repro.chaos.bundle`   — replayable repro bundles;
* :mod:`repro.chaos.fleet_soak` — seeded job streams against the fleet;
* :mod:`repro.chaos.kill_restart` — hard-kill the fleet mid-soak,
  recover from the write-ahead journal, assert recovery equivalence;
* :mod:`repro.chaos.serve_kill` — crash the wall-clock serving gateway
  mid-load, recover from its job store + traffic bundle.
"""

from repro.chaos.bundle import (
    BUNDLE_SCHEMA,
    ReplayResult,
    load_bundle,
    make_bundle,
    replay_bundle,
    write_bundle,
)
from repro.chaos.campaign import (
    DEFAULT_CHAOS_POLICY,
    CampaignReport,
    CellResult,
    failure_digest,
    result_digest,
    run_campaign,
    run_cell,
)
from repro.chaos.generate import (
    CAMPAIGN_APPS,
    INTENSITIES,
    CampaignConfig,
    generate_cells,
)

from repro.chaos.shrink import (
    ShrinkResult,
    ddmin,
    flatten_plan,
    rebuild_plan,
    shrink_cell,
)
from repro.chaos.spec import GRAPH_KINDS, CellSpec, GraphSpec

#: Lazy (PEP 562) exports: kill_restart pulls in the fleet package,
#: which itself imports repro.chaos.generate — an eager import here
#: would close that cycle during package init.  fleet_soak stays out of
#: the eager list for the same reason.
_LAZY_EXPORTS = {
    "KillRestartConfig": "repro.chaos.kill_restart",
    "KillRestartResult": "repro.chaos.kill_restart",
    "plan_crash_points": "repro.chaos.kill_restart",
    "run_kill_restart": "repro.chaos.kill_restart",
    "ServeKillConfig": "repro.chaos.serve_kill",
    "ServeKillResult": "repro.chaos.serve_kill",
    "run_serve_kill": "repro.chaos.serve_kill",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.chaos' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module), name)

__all__ = [
    "BUNDLE_SCHEMA",
    "CAMPAIGN_APPS",
    "CampaignConfig",
    "CampaignReport",
    "CellResult",
    "CellSpec",
    "DEFAULT_CHAOS_POLICY",
    "GRAPH_KINDS",
    "GraphSpec",
    "INTENSITIES",
    "KillRestartConfig",
    "KillRestartResult",
    "ReplayResult",
    "ServeKillConfig",
    "ServeKillResult",
    "ShrinkResult",
    "ddmin",
    "failure_digest",
    "flatten_plan",
    "generate_cells",
    "load_bundle",
    "make_bundle",
    "plan_crash_points",
    "rebuild_plan",
    "replay_bundle",
    "result_digest",
    "run_campaign",
    "run_cell",
    "run_serve_kill",
    "shrink_cell",
    "write_bundle",
]
