"""The shared durable-record codec (docs/DURABILITY.md, "Record codec").

Golden lines pin the on-disk bytes of the record shapes; the
byte-truncation property tears each log at every offset and checks
that reopening, appending and rescanning never loses an intact record
or the new one; the ``atomic_write`` tests pin the staging rule.
"""

import os
from itertools import accumulate

import pytest

from repro.durable import Record, atomic_write, read_log
from repro.fleet.job import JobResult
from repro.fleet.journal import JobJournal, JournalRecord
from repro.fleet.store import ResultStore
from repro.serving.jobstore import JobStore
from repro.serving.traffic import TrafficRecorder


class TestGoldenLines:
    """Byte compatibility with every file written before: a schema tag
    stays put only while its golden line holds."""

    def test_journal_line(self):
        record = JournalRecord(3, "dispatch", {
            "job_id": "j1", "time": 0.5, "attempt": 2, "replica_id": "r0",
        })
        assert record.line() == (
            '{"crc":"f86b1b93","payload":{"attempt":2,"job_id":"j1",'
            '"replica_id":"r0","time":0.5},"seq":3,"type":"dispatch"}\n'
        )

    def test_store_line(self):
        # regraph-fleet-store/v2: the sequenced ``result`` record.
        record = Record(7, "result", {"result": {
            "job_id": "job-0007", "status": "completed",
            "cycles": 1234.5, "digest": "ab",
        }})
        assert record.line() == (
            '{"crc":"9d985608","payload":{"result":{"cycles":1234.5,'
            '"digest":"ab","job_id":"job-0007","status":"completed"}},'
            '"seq":7,"type":"result"}\n'
        )

    def test_traffic_line(self):
        record = Record(1, "accept", {
            "accept_seq": 0, "tenant": "acme",
            "job": {"job_id": "j0", "app": "bfs"}, "wall": 0.25,
        })
        assert record.line() == (
            '{"crc":"93a8749a","payload":{"accept_seq":0,"job":{"app":"bfs",'
            '"job_id":"j0"},"tenant":"acme","wall":0.25},"seq":1,'
            '"type":"accept"}\n'
        )


def _result(i):
    return JobResult(job_id=f"job-{i}", status="completed", replica_id="r0")


#: name -> (open the append handle, append record ``i``, the job id a
#: read-back record carries).
_LOGS = {
    "journal": (
        lambda path: JobJournal(path, fsync=False),
        lambda log, i: log.append("submit", {"job_id": f"job-{i}"}),
        lambda record: record.payload["job_id"],
    ),
    "jobstore": (
        lambda path: JobStore(path, {"devices": ["U50"]}, fsync=False),
        lambda log, i: log.append_job("acme", {"job_id": f"job-{i}"}),
        lambda record: record.payload["job"]["job_id"],
    ),
    "store": (
        lambda path: ResultStore(path, fsync=False),
        lambda log, i: log.put(_result(i)),
        lambda record: record.payload["result"]["job_id"],
    ),
    "traffic": (
        lambda path: TrafficRecorder(path, {"devices": ["U50"]}, fsync=False),
        lambda log, i: log.record_accept(i, "acme", {"job_id": f"job-{i}"},
                                         wall=0.5 * i),
        lambda record: record.payload["job"]["job_id"],
    ),
}


@pytest.mark.parametrize("name", sorted(_LOGS))
def test_every_byte_truncation_reopens_and_appends(tmp_path, name):
    """Tear the log at every byte offset, reopen it through its append
    handle, append one record, rescan: nothing raises, every record
    wholly before the tear comes back unchanged and in order, the new
    record is intact, and nothing corrupt remains."""
    open_log, append, job_id = _LOGS[name]
    path = tmp_path / name
    with open_log(path) as log:
        for i in range(4):
            append(log, i)
    data = path.read_bytes()
    full = read_log(path)
    assert full.clean
    ends = list(accumulate(len(line) for line in data.splitlines(True)))
    assert len(ends) == len(full.records)

    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        with open_log(path) as log:
            append(log, 99)
        scan = read_log(path)
        intact = [r for r, end in zip(full.records, ends) if end <= offset]
        assert scan.clean, (offset, scan.corrupt)
        assert scan.records[: len(intact)] == intact, offset
        assert job_id(scan.records[-1]) == "job-99", offset


class TestReopen:
    def test_complete_corrupt_line_stays_as_evidence(self, tmp_path):
        path = tmp_path / "j"
        path.write_text(
            Record(0, "run-begin", {}).line() + "not a record\n"
        )
        with JobJournal(path, fsync=False) as journal:
            assert journal.append("recover", {}) == 1
        scan = read_log(path)
        assert [r.type for r in scan.records] == ["run-begin", "recover"]
        assert [c.reason for c in scan.corrupt] == ["unparseable JSON"]

    def test_store_counts_the_dropped_fragment(self, tmp_path):
        path = tmp_path / "s"
        with ResultStore(path, fsync=False) as store:
            store.put(_result(0))
            store.put(_result(1))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with ResultStore(path, fsync=False) as store:
            assert store.discarded_at_load == 1
            assert store.job_ids() == ["job-0"]
            assert store.put(_result(1))
        with ResultStore(path, fsync=False) as store:
            assert store.discarded_at_load == 0
            assert store.job_ids() == ["job-0", "job-1"]


class TestAtomicWrite:
    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "f"
        atomic_write(path, lambda fh: fh.write("old"))
        inode = path.stat().st_ino
        atomic_write(path, lambda fh: fh.write("new"))
        assert path.read_text() == "new"
        # A new file took the name; the old one was never edited in place.
        assert path.stat().st_ino != inode

    def test_unique_staging_names_under_a_fixed_pid(self, tmp_path,
                                                    monkeypatch):
        # Pids recycle under a worker pool and one process may host
        # several writers, so the staging name must not rest on the pid.
        names = []
        real_replace = os.replace

        def spy(src, dst):
            names.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "getpid", lambda: 4242)
        monkeypatch.setattr(os, "replace", spy)
        for _ in range(3):
            atomic_write(tmp_path / "f", lambda fh: fh.write("x"))
        assert len(set(names)) == 3
        assert all(".tmp-4242-" in n for n in names)

    def test_no_staging_file_survives_a_raising_writer(self, tmp_path):
        path = tmp_path / "f"
        atomic_write(path, lambda fh: fh.write("intact"))

        def boom(fh):
            fh.write("half")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            atomic_write(path, boom)
        assert path.read_text() == "intact"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
