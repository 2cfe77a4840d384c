"""Durable job/result store for the serving facade.

The gateway's write-ahead log: one :mod:`repro.durable` record log
(the codec of the fleet journal, the fleet result store and the
traffic bundle) holding

* ``jobstore-begin`` — the first record: the schema tag
  (``regraph-jobstore/v2``) and the canonical session spec (pool
  recipe + policy).  Reopening with a different spec is a typed error;
* ``accept`` — every *acknowledged* submission, the traffic bundle's
  shape (``accept_seq``, tenant, job, wall).  It is appended before the
  client sees the ack, so an acknowledged job is durable;
* ``result`` — terminal :class:`~repro.fleet.job.JobResult`\\ s, the
  fleet result store's record, under the same index
  (:class:`~repro.fleet.store.ResultIndex`): first write wins per job
  id, every later ``put_result`` for the same key is suppressed, counted
  and cross-checked — which keeps the client-visible result stream
  exactly-once across crash/resume replays.

The store loads through the traffic bundle's reader
(:func:`~repro.serving.traffic.fold_records`, which folds ``result``
records into that index), so corrupt lines are
skipped and counted and a torn tail is dropped on reopen.  Records lost
that way are re-derived by deterministic replay (and, for acknowledged
jobs, merged back from the traffic bundle — each file covers for the
other).  In memory the store keeps only the job id -> acceptance
sequence map, the results and the outstanding jobs; the accept
payloads the file held at open are handed to recovery once.

A store with no path keeps the same indexes and writes nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.durable import ScanResult
from repro.errors import UserInputError
from repro.fleet.job import JobResult
from repro.serving.traffic import AcceptLog, fold_records
from repro.utils.wire import decode

#: Store schema identifier; bump on incompatible layout changes.
JOBSTORE_SCHEMA = "regraph-jobstore/v2"

#: Record types a job store may contain.
JOBSTORE_RECORD_TYPES = ("jobstore-begin", "accept", "result")

#: The first bytes of every SQLite database (the v1 store format).
_SQLITE_MAGIC = b"SQLite format 3\x00"


def _refuse_sqlite(path: Path) -> None:
    """A v1 store is a SQLite database; scanning it as a record log
    would truncate it as an "unterminated fragment", so check first."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_SQLITE_MAGIC))
    except FileNotFoundError:
        return
    if head == _SQLITE_MAGIC:
        raise UserInputError(
            f"job store {path} is a regraph-jobstore/v1 SQLite database; "
            f"this build reads {JOBSTORE_SCHEMA} record logs (the file is "
            "left untouched: drain it with the release that wrote it, or "
            "pick another --store path)"
        )


class JobStore(AcceptLog):
    """Crash-safe acknowledged-job + exactly-once result persistence."""

    RECORD_TYPES = JOBSTORE_RECORD_TYPES
    NOUN = "job store"

    def __init__(
        self,
        path: Optional[Union[str, Path]],
        spec: dict,
        fsync: bool = True,
    ):
        if path is None:
            self.path = None
            self.fsync = False
            self.reopened = False
            self._fh = None
            self._load(ScanResult())
        else:
            _refuse_sqlite(Path(path))
            super().__init__(path, fsync)
        if self._spec is None:
            self.append("jobstore-begin", {
                "schema": JOBSTORE_SCHEMA,
                "session": dict(spec),
            })
        elif self._spec != spec:
            # A resumed store must be served with the pool/policy it
            # was created for — anything else silently changes the
            # virtual-clock schedule and breaks digest equivalence.
            self.close()
            raise UserInputError(
                f"job store {self.path} was created for a different "
                "session (pool/policy mismatch); resume with the "
                "original configuration or start a fresh store"
            )

    def _load(self, scan: ScanResult) -> None:
        loaded = fold_records(scan, self.path)
        if loaded.schema not in (None, JOBSTORE_SCHEMA) or any(
            r.type not in self.RECORD_TYPES for r in scan.records
        ):
            raise UserInputError(
                f"{self.path} is not a {JOBSTORE_SCHEMA} job store "
                f"(schema {loaded.schema!r}); pick another --store path"
            )
        super()._load(scan)
        self._spec = loaded.spec
        self._seqs: Dict[str, int] = {}
        self._last_seq = 0
        #: Exactly-once results (the fleet result store's index).
        self.results = loaded.results
        self._outstanding: Dict[str, None] = {}
        for seq, _, payload in loaded.accepts:
            self._index(
                decode(str, payload.get("job_id"), f"accept {seq} job_id"),
                seq,
            )
        self._scanned = loaded.accepts

    def _index(self, job_id: str, seq: int) -> None:
        self._seqs[job_id] = seq
        self._last_seq = max(self._last_seq, seq)
        if job_id not in self.results:
            self._outstanding[job_id] = None

    def write(self, record) -> None:
        if self._fh is not None:
            super().write(record)

    def take_scanned_accepts(self) -> List[tuple]:
        """The accepts the file held at open, as ``(seq, tenant,
        payload)`` in acceptance order — the replay input.  Handed out
        once: the store keeps no payloads."""
        scanned, self._scanned = self._scanned, []
        return scanned

    # -- acknowledged jobs ----------------------------------------------
    def append_job(
        self,
        tenant: str,
        job_payload: dict,
        accepted_wall: float = 0.0,
        seq: Optional[int] = None,
    ) -> int:
        """Durably record an accepted job; returns its sequence number.

        Must be called *before* the ack leaves the gateway — this record
        is what makes the acknowledgement mean something.  ``seq`` pins
        an explicit sequence number (recovery restoring an accept from
        the traffic bundle keeps the original numbering); new accepts
        leave it ``None`` and continue from the current maximum, so the
        first is 1.
        """
        job_id = str(job_payload["job_id"])
        if job_id in self._seqs:
            raise UserInputError(
                f"job {job_id!r} is already accepted in this store"
            )
        if seq is None:
            seq = self._last_seq + 1
        self.record_accept(seq, tenant, job_payload, accepted_wall)
        self._index(job_id, seq)
        return seq

    def has_job(self, job_id: str) -> bool:
        return job_id in self._seqs

    def job_seq(self, job_id: str) -> Optional[int]:
        return self._seqs.get(job_id)

    def job_count(self) -> int:
        return len(self._seqs)

    # -- exactly-once results -------------------------------------------
    def put_result(self, result: JobResult, wall: float = 0.0) -> bool:
        """Persist ``result`` under its idempotency key (the job id):
        first write wins, later calls are suppressed and cross-checked
        (:meth:`repro.fleet.store.ResultIndex.put`)."""
        written = self.results.put(
            result, lambda r: self.record_result(r, wall)
        )
        if written:
            self._outstanding.pop(result.job_id, None)
        return written

    def get_result(self, job_id: str) -> Optional[JobResult]:
        return self.results.get(job_id)

    def result_count(self) -> int:
        return len(self.results)

    def __len__(self) -> int:
        return self.result_count()

    def outstanding(self) -> List[str]:
        """Acknowledged jobs with no durable result yet (resume debt),
        in acceptance order."""
        return sorted(self._outstanding, key=self._seqs.__getitem__)

    def stats(self) -> dict:
        return {
            "jobs": self.job_count(),
            "results": self.result_count(),
            "outstanding": len(self._outstanding),
            "duplicates_suppressed": self.results.duplicates_suppressed,
        }

    def close(self) -> None:
        if self._fh is not None:
            super().close()
