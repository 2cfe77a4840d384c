"""Write-ahead job journal: the fleet's durable intent log.

Every externally visible fleet transition — the run's full input batch,
each admission decision, each dispatch, each attempt outcome, each
replica lifecycle change, each terminal result — is appended here
*before* it takes effect in memory, so a hard-killed runtime can always
be reconstructed from disk.  The format is deliberately boring:

* **append-only JSONL** — one record per line, never rewritten;
* **per-record checksums** — each line carries a CRC32 over the
  canonical JSON of ``{seq, type, payload}``, so torn writes and
  bit-flips are *detected*, never silently replayed;
* **monotone sequence numbers** — gaps and regressions mark records
  that were damaged (quarantined) rather than never written;
* **fsync per append** (the WAL contract; ``fsync=False`` trades the
  crash guarantee for throughput, for benchmarks and tests).

The line codec, the verified scan, the append handle and repair are
:mod:`repro.durable`'s; this module keeps the journal's vocabulary
(:data:`RECORD_TYPES`), its append handle and the state projection.

Recovery is *replay-based*: because the fleet runtime is a pure
function of its inputs (deterministic virtual-clock event loop), the
``run-begin`` record — policy, pool recipe, the full job batch, the
kill schedule — is sufficient to re-derive every later state exactly.
The remaining records serve observability (the :class:`JournalProjection`
state view of the moment of death), cross-checking (journaled result
digests must match what replay recomputes), and corruption containment:
a record that fails its checksum mid-file is quarantined into a
``regraph-fleet-quarantine/v1`` bundle and replay continues; a damaged
*tail* (torn write, partial fsync) is truncated back to the last intact
record, exactly like a database WAL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

# QUARANTINE_SCHEMA and apply_storage_fault are re-exported for callers
# that know them as journal names.
from repro.durable import (  # noqa: F401
    QUARANTINE_SCHEMA,
    RepairReport,
    ScanResult,
    SequencedLog,
    apply_storage_fault,
    read_log,
    repair,
)
from repro.durable import Record as JournalRecord
from repro.errors import UserInputError
from repro.utils.wire import decode

#: Journal line-format identifier; bump on incompatible layout changes.
JOURNAL_SCHEMA = "regraph-fleet-journal/v1"

#: Record types the runtime appends (documented in docs/DURABILITY.md).
RECORD_TYPES = (
    "run-begin",      # the full input batch: policy, pool, jobs, kills
    "recover",        # a recovered runtime resumed serving this journal
    "submit",         # a job reached the admission controller
    "admit",          # admission accepted the job into the queue
    "reject",         # admission shed the job (terminal, typed)
    "dispatch",       # an attempt was placed onto a replica
    "attempt-end",    # an in-flight attempt finished (ok or failed)
    "kill",           # a replica-kill chaos event fired
    "replica-state",  # a replica lifecycle transition (+ breaker bank)
    "result",         # a job reached a terminal JobResult
    "run-end",        # the event loop went idle (report digest)
)


def read_journal(path: Union[str, Path]) -> ScanResult:
    """Scan ``path`` with :func:`repro.durable.read_log`; never modifies
    the file.  A missing journal is a typed error."""
    path = Path(path)
    if not path.exists():
        raise UserInputError(
            f"fleet journal not found: {path} (run `repro fleet run "
            f"--journal {path}` to create one)"
        )
    return read_log(path)


def repair_journal(
    path: Union[str, Path],
    quarantine_dir: Optional[Union[str, Path]] = None,
) -> Tuple[List[JournalRecord], RepairReport]:
    """Make ``path`` replayable again: truncate a torn tail, quarantine
    everything else that is damaged, and return the intact records.

    Corruption never raises here — the whole point of recovery is that a
    half-written or bit-flipped journal still yields every record that
    *was* durably written.  Only a missing file (nothing to recover) is
    a :class:`~repro.errors.UserInputError`.
    """
    scan = read_journal(path)
    return scan.records, repair(path, scan, quarantine_dir)


class JobJournal(SequencedLog):
    """Append-side handle: write-ahead logging for one fleet runtime.

    Appends are synchronous and (by default) fsync'd — a record is
    *durable before the transition it describes takes effect*.  Opening
    an existing journal continues its sequence, which is how a recovered
    runtime keeps journaling into the same file across restarts.
    """

    RECORD_TYPES = RECORD_TYPES
    NOUN = "journal"

# ----------------------------------------------------------------------
# State projection: what the journal says the world looked like
# ----------------------------------------------------------------------
@dataclass
class JournalProjection:
    """A fold of the journal into the runtime state at its last record.

    This is the observability half of recovery: the *authoritative*
    rebuild is deterministic replay from ``run-begin`` (see
    ``FleetRuntime.recover``), but the projection answers "what was the
    fleet doing when it died" without re-executing anything — the
    admission queue, the in-flight job set, replica lifecycle states and
    their circuit-breaker banks, and which jobs already had terminal
    results.
    """

    #: job_ids admitted since the last ``recover`` marker, in admit
    #: order (``admit`` records carry only the id, its seq and the time).
    queued: List[str] = field(default_factory=list)
    #: Jobs with an attempt in flight at the last record: job_id ->
    #: {replica_id, attempt, kind, time}.
    inflight: Dict[str, dict] = field(default_factory=dict)
    #: Replica lifecycle: replica_id -> {state, reason, breakers}.
    replicas: Dict[str, dict] = field(default_factory=dict)
    #: Terminal results seen in the journal: job_id -> JobResult payload.
    results: Dict[str, dict] = field(default_factory=dict)
    #: job_ids shed by admission control.
    rejected: Dict[str, dict] = field(default_factory=dict)
    #: Number of ``recover`` markers (restarts this journal survived).
    recoveries: int = 0
    #: Payload of the ``run-begin`` record (None when it was damaged).
    run_begin: Optional[dict] = None
    #: Payload of the final ``run-end`` (None for an interrupted run).
    run_end: Optional[dict] = None

    @property
    def outstanding(self) -> List[str]:
        """Admitted jobs with no terminal result yet, in admit order."""
        return [j for j in self.queued if j not in self.results]

    def to_dict(self) -> dict:
        return {
            "queued": sorted(self.outstanding),
            "inflight": dict(self.inflight),
            "replicas": dict(self.replicas),
            "results": len(self.results),
            "rejected": len(self.rejected),
            "recoveries": self.recoveries,
            "completed_run": self.run_end is not None,
        }


def _read(record: JournalRecord, key: str, tp, default=None, node=None):
    """Field ``key`` of a record's payload (or of ``node`` inside it),
    decoded as ``tp``; ``default`` stands in for an absent key."""
    node = record.payload if node is None else node
    return decode(
        tp, node.get(key, default),
        f"journal record {record.seq} ({record.type}) {key}",
    )


def project_journal(records: List[JournalRecord]) -> JournalProjection:
    """Fold intact records into the last-known runtime state.

    Tolerant by design: quarantined (missing) records merely leave the
    projection slightly stale, which is acceptable because replay — not
    the projection — is what rebuilds authoritative state.  A verified
    record whose fields have the wrong JSON types is a typed error.
    """
    view = JournalProjection()
    for record in records:
        payload = record.payload
        rtype = record.type
        if rtype in ("reject", "result"):
            result = _read(record, "result", dict, {})
            job_id = _read(record, "job_id", str, "", result)
        if rtype == "run-begin":
            if view.run_begin is None:
                view.run_begin = payload
        elif rtype == "recover":
            view.recoveries += 1
            # A resumed run replays from t=0: transient state resets,
            # durable results (store-backed) survive.
            view.queued.clear()
            view.inflight.clear()
            view.replicas.clear()
        elif rtype == "admit":
            view.queued.append(_read(record, "job_id", str))
        elif rtype == "reject":
            view.rejected[job_id] = result
        elif rtype == "dispatch":
            view.inflight[_read(record, "job_id", str)] = {
                "replica_id": _read(record, "replica_id", str, ""),
                "attempt": _read(record, "attempt", int, 0),
                "kind": _read(record, "kind", str, ""),
                "time": _read(record, "time", float, 0.0),
            }
        elif rtype == "attempt-end":
            view.inflight.pop(_read(record, "job_id", str, ""), None)
        elif rtype == "kill":
            entry = view.replicas.setdefault(
                _read(record, "replica_id", str, ""), {}
            )
            entry["state"] = "RETIRED"
            entry["reason"] = _read(record, "reason", str, "killed")
        elif rtype == "replica-state":
            entry = view.replicas.setdefault(
                _read(record, "replica_id", str, ""), {}
            )
            entry["state"] = _read(record, "state", str, "")
            entry["reason"] = _read(record, "reason", str, "")
            if "breakers" in payload:
                entry["breakers"] = _read(record, "breakers", dict)
        elif rtype == "result":
            view.results[job_id] = result
            view.inflight.pop(job_id, None)
        elif rtype == "run-end":
            view.run_end = payload
    return view
