"""A serving runtime over a pool of accelerator replicas.

``repro.fleet`` turns the single-card host runtime into a small
*fleet*: a pool of :class:`~repro.fleet.replica.Replica` handles (mixed
U280/U50) serving a queue of graph-analytics :class:`Job`\\ s under
faults.  The pieces:

* :mod:`~repro.fleet.job` — the job / result model (deadlines,
  priorities, fault plans);
* :mod:`~repro.fleet.admission` — bounded queue + token-bucket rate
  limiting with *typed* load shedding;
* :mod:`~repro.fleet.placement` — health-aware scoring (open circuit
  breakers, degradation state, HBM fit, Eq. 1-4 predicted makespan);
* :mod:`~repro.fleet.replica` — the SERVING → DRAINING → QUARANTINED →
  REPAIRED/RETIRED lifecycle machine;
* :mod:`~repro.fleet.runtime` — the deterministic discrete-event loop
  (failover with backoff, hedged execution, canary re-probes);
* :mod:`~repro.fleet.autoscale` — the autoscaler (hysteresis +
  cooldown over admission telemetry);
* :mod:`~repro.fleet.report` — the bit-reproducible run report;
* :mod:`~repro.fleet.journal` — the write-ahead job journal (append-
  only, checksummed, fsync'd) behind crash recovery;
* :mod:`~repro.fleet.store` — the durable result store and the
  first-write-wins result index it shares with the serving job store.

Both durable files use the one record codec in :mod:`repro.durable`.

See ``docs/FLEET.md`` for the architecture walkthrough and
``docs/DURABILITY.md`` for the journal format and recovery contract.
"""

from repro.fleet.admission import AdmissionController, TokenBucket
from repro.fleet.autoscale import AutoscalePolicy, Autoscaler
from repro.fleet.job import FLEET_APPS, Job, JobResult
from repro.durable import QUARANTINE_SCHEMA, RepairReport, apply_storage_fault
from repro.fleet.journal import (
    JOURNAL_SCHEMA,
    RECORD_TYPES,
    JobJournal,
    JournalProjection,
    JournalRecord,
    project_journal,
    read_journal,
    repair_journal,
)
from repro.fleet.placement import PlacementEngine
from repro.fleet.replica import (
    DRAINING,
    QUARANTINED,
    REPLICA_STATES,
    RETIRED,
    SERVING,
    Replica,
    make_replica,
)
from repro.fleet.report import AssignmentRecord, FleetReport
from repro.fleet.runtime import (
    FleetPolicy,
    FleetRuntime,
    RecoveredFleet,
    ReplicaKill,
)
from repro.fleet.store import STORE_SCHEMA, ResultStore

__all__ = [
    "AdmissionController",
    "AssignmentRecord",
    "AutoscalePolicy",
    "Autoscaler",
    "DRAINING",
    "FLEET_APPS",
    "FleetPolicy",
    "FleetReport",
    "FleetRuntime",
    "JOURNAL_SCHEMA",
    "Job",
    "JobJournal",
    "JobResult",
    "JournalProjection",
    "JournalRecord",
    "PlacementEngine",
    "QUARANTINED",
    "QUARANTINE_SCHEMA",
    "RECORD_TYPES",
    "REPLICA_STATES",
    "RETIRED",
    "RecoveredFleet",
    "RepairReport",
    "Replica",
    "ReplicaKill",
    "ResultStore",
    "STORE_SCHEMA",
    "SERVING",
    "TokenBucket",
    "apply_storage_fault",
    "make_replica",
    "project_journal",
    "read_journal",
    "repair_journal",
]
