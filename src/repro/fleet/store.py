"""Durable result store: exactly-once terminal outcomes across crashes.

The store is the *result* half of the durability pair (the journal logs
intent, the store holds outcomes).  It is a crash-safe JSONL file — one
checksummed record per terminal :class:`~repro.fleet.job.JobResult`,
appended with flush+fsync — keyed by an **idempotency key** (the job
id): the first write for a key wins, every later ``put`` for the same
key is suppressed and merely reported.  That is what gives resubmission
exactly-once semantics: a recovered runtime replays the whole job
stream, recomputes every result, and the store silently deduplicates
the ones that were already durable before the crash — a client reading
the store sees each job's result exactly once, whether the fleet
crashed zero times or twice.

The line format, the verified load and the append handle are
:mod:`repro.durable`'s.  Corrupt records (torn tail, bit rot) are
skipped and counted at load, never raised: losing the *last* result to
a torn write is recoverable (replay recomputes it), whereas refusing to
start is not.  Reopening drops an unterminated final fragment, so the
next ``put`` lands on a line of its own.  ``compact()`` rewrites the
file through :func:`repro.durable.atomic_write`, dropping any damaged
lines for good.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.durable import KeyedRecord, RecordLog, ScanResult, atomic_write
from repro.fleet.job import JobResult

#: Store line-format identifier; bump on incompatible layout changes.
STORE_SCHEMA = "regraph-fleet-store/v1"


class ResultStore(RecordLog):
    """Append-only, checksummed, idempotent JobResult persistence."""

    kind = KeyedRecord

    def _load(self, scan: ScanResult) -> None:
        self._results: Dict[str, JobResult] = {}
        #: Records skipped at load because they failed verification.
        self.discarded_at_load = len(scan.corrupt)
        #: ``put`` calls suppressed by the idempotency key.
        self.duplicates_suppressed = 0
        for record in scan.records:
            if record.key in self._results:
                # An append-only store should never hold two records
                # for one key (put suppresses them); tolerate it by
                # first-write-wins, the idempotency contract.
                self.duplicates_suppressed += 1
                continue
            self._results[record.key] = JobResult.from_dict(record.result)

    # -- the exactly-once write path -----------------------------------
    def put(self, result: JobResult) -> bool:
        """Persist ``result`` under its idempotency key (the job id).

        Returns True when this call made the result durable; False when
        the key already had a durable result (the write is suppressed —
        exactly-once on resubmission).
        """
        key = result.job_id
        if key in self._results:
            self.duplicates_suppressed += 1
            return False
        self.write(KeyedRecord(key, result.to_dict()))
        self._results[key] = result
        return True

    # -- reads ----------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobResult]:
        return self._results.get(job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._results

    def __len__(self) -> int:
        return len(self._results)

    def job_ids(self) -> List[str]:
        return sorted(self._results)

    def results(self) -> Dict[str, JobResult]:
        """A snapshot copy of every durable result, by job id."""
        return dict(self._results)

    def stats(self) -> dict:
        return {
            "results": len(self._results),
            "discarded_at_load": self.discarded_at_load,
            "duplicates_suppressed": self.duplicates_suppressed,
        }

    # -- maintenance -----------------------------------------------------
    def compact(self) -> None:
        """Rewrite the file from the in-memory view (drops bad lines),
        crash-safe through :func:`repro.durable.atomic_write`."""

        def rewrite(fh) -> None:
            for key in sorted(self._results):
                fh.write(KeyedRecord(key, self._results[key].to_dict()).line())

        atomic_write(self.path, rewrite)
        self._fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")
