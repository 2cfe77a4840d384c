"""Live-traffic recording and deterministic replay.

A traffic bundle (``regraph-traffic/v1``) is the serving gateway's
flight recorder: an append-only JSONL file, one CRC-checksummed record
per line in the fleet journal's wire format (:mod:`repro.durable`),
capturing

* ``traffic-begin`` — the schema tag and the kernel session spec
  (pool recipe + policy) the gateway was started with;
* ``accept``       — one record per *acknowledged* job, carrying the
  acceptance sequence number, the tenant, the full job payload and the
  wall-clock arrival time.  The ordered accept stream **is** the
  session input: feeding it back through a fresh
  :class:`~repro.serving.session.KernelSession` reproduces the live
  run's :class:`~repro.fleet.report.FleetReport` digest bit-for-bit;
* ``reject``       — typed turn-aways (401/429/503) for observability;
* ``result``       — terminal results as they were streamed back;
* ``resume``       — a recovered gateway reopened this bundle;
* ``traffic-end``  — counts + the session report digest at drain.

Because accepts are written *before* the acknowledgement leaves the
gateway, the bundle doubles as a second write-ahead log of the
acceptance sequence.  The job store (:mod:`repro.serving.jobstore`)
writes the same ``accept`` and ``result`` records and loads through
the same reader (:func:`fold_records`), so recovery merges accepts
from both files and an acked job survives as long as either file does.
Reading is damage-tolerant by the same machinery the fleet journal
uses — corrupt lines are skipped and counted, a torn tail never blocks
replay, and a reopened bundle drops an unterminated final fragment
before its ``resume`` marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TypedDict, Union

from repro.durable import ScanResult, SequencedLog, read_log
from repro.errors import UserInputError
from repro.fleet.job import JobResult
from repro.fleet.store import ResultIndex
from repro.utils.wire import decode

#: Traffic-bundle schema identifier; bump on incompatible changes.
TRAFFIC_SCHEMA = "regraph-traffic/v1"

#: Record types a bundle may contain.
TRAFFIC_RECORD_TYPES = (
    "traffic-begin",  # schema + the kernel session spec
    "accept",         # one acknowledged job (seq, tenant, payload, wall)
    "reject",         # a typed turn-away (auth / quota / draining)
    "result",         # a terminal JobResult as streamed to the client
    "resume",         # a recovered gateway reopened this bundle
    "traffic-end",    # drain summary: counts + session report digest
)

#: Record types carrying the schema tag and/or the session spec: the
#: bundle's and the job store's first record, and the bundle's resume
#: marker (which covers for a damaged ``traffic-begin``).
_BEGIN_RECORD_TYPES = ("traffic-begin", "resume", "jobstore-begin")


class AcceptRecord(TypedDict):
    """The payload of an ``accept`` record."""

    accept_seq: int
    tenant: str
    job: dict
    wall: float


class AcceptLog(SequencedLog):
    """A sequenced log of acknowledged jobs and their terminal results.

    The ``accept`` and ``result`` shapes are shared by the traffic
    bundle and the job store, so one reader (:func:`fold_records`)
    loads both.
    """

    def record_accept(
        self, accept_seq: int, tenant: str, job_payload: dict, wall: float
    ) -> None:
        """Durably log an acknowledged job (call *before* the ack)."""
        self.append("accept", {
            "accept_seq": accept_seq,
            "tenant": tenant,
            "job": dict(job_payload),
            "wall": wall,
        })

    def record_result(self, result: JobResult, wall: float) -> None:
        self.append("result", {
            "result": result.to_dict(),
            "wall": wall,
        })


class TrafficRecorder(AcceptLog):
    """Append-side handle: records one gateway's request stream.

    A :class:`~repro.durable.SequencedLog` like the fleet journal —
    synchronous, fsync'd (by default) appends with per-record CRCs and
    a monotone sequence — with the same reopen semantics: opening an
    existing bundle continues its sequence with a ``resume`` marker, so
    one file spans every restart of the same session.
    """

    RECORD_TYPES = TRAFFIC_RECORD_TYPES
    NOUN = "traffic"

    def __init__(self, path: Union[str, Path], spec: dict, fsync: bool = True):
        super().__init__(path, fsync)
        if self.reopened:
            self.append("resume", {"session": dict(spec)})
        else:
            self.append("traffic-begin", {
                "schema": TRAFFIC_SCHEMA,
                "session": dict(spec),
            })

    def record_reject(
        self, tenant: str, job_id: str, error_type: str,
        detail: str, wall: float,
    ) -> None:
        self.append("reject", {
            "tenant": tenant,
            "job_id": job_id,
            "error_type": error_type,
            "detail": detail,
            "wall": wall,
        })

    def record_end(self, digest: str, counts: dict) -> None:
        self.append("traffic-end", {
            "report_digest": digest,
            "counts": dict(counts),
        })


@dataclass
class TrafficBundle:
    """Everything an intact-enough traffic bundle (or job store)
    contains."""

    path: str
    #: Schema tag of the first intact begin record (``None`` if lost).
    schema: Optional[str] = None
    #: Session spec from the first intact begin or ``resume`` record;
    #: ``None`` when every copy of it was damaged.
    spec: Optional[dict] = None
    #: Acknowledged jobs ordered by acceptance sequence:
    #: ``(accept_seq, tenant, job_payload)``.
    accepts: List[tuple] = field(default_factory=list)
    rejects: List[dict] = field(default_factory=list)
    #: Terminal results as recorded, first copy per job id.
    results: ResultIndex = field(default_factory=ResultIndex)
    #: ``traffic-end`` payload; ``None`` for a crashed (undrained) run.
    end: Optional[dict] = None
    #: Lines that failed parsing or their checksum (skipped, counted).
    corrupt_lines: int = 0

    @property
    def drained(self) -> bool:
        return self.end is not None

    def job_payloads(self) -> List[dict]:
        """The replay input: accepted jobs in acceptance order."""
        return [payload for _, _, payload in self.accepts]

    def summary(self) -> dict:
        return {
            "schema": TRAFFIC_SCHEMA,
            "accepts": len(self.accepts),
            "rejects": len(self.rejects),
            "results": len(self.results),
            "drained": self.drained,
            "corrupt_lines": self.corrupt_lines,
            "recorded_digest": (
                self.end.get("report_digest", "") if self.end else ""
            ),
        }


def fold_records(scan: ScanResult, path: Union[str, Path]) -> TrafficBundle:
    """Fold a verified scan into a :class:`TrafficBundle`.

    First copy wins everywhere: the schema and spec, each accept (by
    acceptance sequence — replays after a resume repeat earlier
    accepts) and each result (by job id).  That keeps the sequence and
    the result stream exactly-once however often a file was reopened.

    A verified ``accept`` that does not decode refuses the file with a
    :class:`UserInputError`: skipping it would silently drop an
    acknowledged job.  A malformed ``result`` is counted corrupt and
    skipped, since its job is simply executed again.
    """
    bundle = TrafficBundle(path=str(path), corrupt_lines=len(scan.corrupt))
    accepts: Dict[int, tuple] = {}
    for record in scan.records:
        payload = record.payload
        if record.type in _BEGIN_RECORD_TYPES:
            if bundle.schema is None:
                bundle.schema = payload.get("schema")
            if bundle.spec is None:
                bundle.spec = payload.get("session")
        elif record.type == "accept":
            accept = decode(
                AcceptRecord, payload, f"{path} record {record.seq}"
            )
            seq = accept["accept_seq"]
            accepts.setdefault(seq, (seq, accept["tenant"], accept["job"]))
        elif record.type == "reject":
            bundle.rejects.append(dict(payload))
        elif record.type == "result":
            try:
                bundle.results.load(payload)
            except UserInputError:
                bundle.corrupt_lines += 1
        elif record.type == "traffic-end":
            bundle.end = dict(payload)
    bundle.accepts = [accepts[s] for s in sorted(accepts)]
    return bundle


def read_traffic(path: Union[str, Path]) -> TrafficBundle:
    """Scan a traffic bundle, skipping (and counting) damaged lines.

    Never raises on corruption — a torn or bit-flipped bundle still
    yields every record that was durably written, which is exactly the
    property the dual-durability recovery path relies on.  Only a
    missing file and a verified accept that does not decode are typed
    errors.
    """
    path = Path(path)
    if not path.exists():
        raise UserInputError(
            f"traffic bundle not found: {path} (record one with "
            "`repro serve --record <path>`)"
        )
    return fold_records(read_log(path), path)


def replay_traffic(
    path: Union[str, Path],
    spec_override: Optional[dict] = None,
):
    """Re-serve a recorded bundle through a fresh virtual-clock session.

    Returns ``(session, bundle)``: the session has served every
    acknowledged job in the recorded order, so ``session.digest()``
    must equal the live run's report digest (and, for a drained
    bundle, the digest stored in ``traffic-end``).  ``spec_override``
    substitutes for a bundle whose spec records were all damaged.
    """
    from repro.serving.session import KernelSession

    bundle = read_traffic(path)
    spec = spec_override if spec_override is not None else bundle.spec
    if spec is None:
        raise UserInputError(
            f"traffic bundle {path} has no intact session spec and no "
            "override was given; replay cannot rebuild the kernel pool"
        )
    session = KernelSession(spec)
    session.replay(bundle.job_payloads())
    return session, bundle
