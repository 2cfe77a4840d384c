"""Exactly-once terminal results: the first-write-wins index and the
fleet's durable result store.

The store is the *result* half of the durability pair (the journal logs
intent, the store holds outcomes).  It is a :mod:`repro.durable` record
log (``regraph-fleet-store/v2``) of sequenced ``result`` records — the
shape the serving job store and the traffic bundle write — one per
terminal :class:`~repro.fleet.job.JobResult`, appended with
flush+fsync.

:class:`ResultIndex` is the one exactly-once rule, shared by this store
and :class:`~repro.serving.jobstore.JobStore`: results are keyed by an
**idempotency key** (the job id), the first write for a key wins, and
every later ``put`` for the same key is suppressed, counted and
cross-checked against the durable copy (a recomputation that differs is
a replay divergence).  That is what gives resubmission exactly-once
semantics: a recovered runtime replays the whole job stream, recomputes
every result, and the index silently deduplicates the ones that were
already durable before the crash — a client reading the store sees each
job's result exactly once, whether the fleet crashed zero times or
twice.

Corrupt records (torn tail, bit rot) are skipped and counted at load,
never raised: losing the *last* result to a torn write is recoverable
(replay recomputes it), whereas refusing to start is not.  Reopening
drops an unterminated final fragment, so the next ``put`` lands on a
line of its own.  A file the store cannot read as its own — a v1 store
of ``{key, result}`` lines, or another log such as a journal — is a
typed error and keeps its bytes: scanned as-is, its lines would be
dropped as corrupt and replay would write every result a second time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.durable import ScanResult, SequencedLog
from repro.errors import UserInputError
from repro.fleet.job import JobResult

#: Store line-format identifier; bump on incompatible layout changes.
STORE_SCHEMA = "regraph-fleet-store/v2"

#: Record types a result store may contain.
STORE_RECORD_TYPES = ("result",)


class ResultIndex:
    """Terminal results by job id, first write wins."""

    def __init__(self):
        self._results: Dict[str, JobResult] = {}
        #: Distinct results folded in at open.
        self.restored = 0
        #: ``result`` records at open whose job id already had one.
        self.duplicates_on_disk = 0
        #: ``put`` calls suppressed by the idempotency key.
        self.duplicates_suppressed = 0
        #: Suppressed ``put`` calls whose result differed from the
        #: durable one (deterministic replay keeps this 0).
        self.replay_divergences = 0

    def load(self, payload: dict) -> None:
        """Fold in the payload of one ``result`` record read at open."""
        result = JobResult.from_dict(payload.get("result"), "result record")
        if result.job_id in self._results:
            self.duplicates_on_disk += 1
            return
        self._results[result.job_id] = result
        self.restored += 1

    def put(
        self, result: JobResult, write: Callable[[JobResult], None]
    ) -> bool:
        """Make ``result`` durable through ``write`` unless its job id
        already has a result.

        Returns True when this call wrote it; False when the write was
        suppressed (counted, and cross-checked against the durable
        result).
        """
        durable = self._results.get(result.job_id)
        if durable is not None:
            self.duplicates_suppressed += 1
            if durable.to_dict() != result.to_dict():
                self.replay_divergences += 1
            return False
        write(result)
        self._results[result.job_id] = result
        return True

    def get(self, job_id: str) -> Optional[JobResult]:
        return self._results.get(job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._results

    def __len__(self) -> int:
        return len(self._results)

    def job_ids(self) -> List[str]:
        return sorted(self._results)


def _refuse_v1(path: Path) -> None:
    """A v1 store's lines are ``{key, result}``; check the first line
    before the scan counts them all as corrupt."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
    except FileNotFoundError:
        return
    try:
        fields = json.loads(head)
    except ValueError:
        return
    if isinstance(fields, dict) and "key" in fields:
        raise UserInputError(
            f"result store {path} is a regraph-fleet-store/v1 file; this "
            f"build reads {STORE_SCHEMA} record logs (the file is left "
            "untouched: finish the run with the release that wrote it, "
            "or pick another --store path)"
        )


class ResultStore(SequencedLog):
    """Append-only, checksummed, idempotent JobResult persistence."""

    RECORD_TYPES = STORE_RECORD_TYPES
    NOUN = "result store"

    def __init__(self, path: Union[str, Path], fsync: bool = True):
        _refuse_v1(Path(path))
        super().__init__(path, fsync)

    def _load(self, scan: ScanResult) -> None:
        foreign = sorted(
            {r.type for r in scan.records} - set(self.RECORD_TYPES)
        )
        if foreign:
            raise UserInputError(
                f"{self.path} is not a {STORE_SCHEMA} result store "
                f"(it holds {foreign} records); pick another --store path"
            )
        super()._load(scan)
        #: Records skipped at load because they failed verification.
        self.discarded_at_load = len(scan.corrupt)
        self.results = ResultIndex()
        for record in scan.records:
            self.results.load(record.payload)

    def put(self, result: JobResult) -> bool:
        """Persist ``result`` under its idempotency key (the job id);
        see :meth:`ResultIndex.put`."""
        return self.results.put(result, self._append_result)

    def _append_result(self, result: JobResult) -> None:
        self.append("result", {"result": result.to_dict()})

    def get(self, job_id: str) -> Optional[JobResult]:
        return self.results.get(job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.results

    def __len__(self) -> int:
        return len(self.results)

    def job_ids(self) -> List[str]:
        return self.results.job_ids()
