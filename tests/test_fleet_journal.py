"""Write-ahead journal unit coverage (docs/DURABILITY.md).

Record format, checksum detection, torn-tail truncation, quarantine
bundles, storage-fault injection, the state projection, and sequence
continuation across reopen — everything below acts on journal files
directly, without a fleet runtime.
"""

import json

import pytest

from repro.errors import UserInputError
from repro.faults.plan import STORAGE_FAULT_KINDS, StorageFault
from repro.fleet.journal import (
    JOURNAL_SCHEMA,
    QUARANTINE_SCHEMA,
    RECORD_TYPES,
    JobJournal,
    JournalRecord,
    apply_storage_fault,
    project_journal,
    read_journal,
    repair_journal,
)


def _write(path, *entries, fsync=False):
    """Append (type, payload) pairs through the real append path."""
    with JobJournal(path, fsync=fsync) as journal:
        for rtype, payload in entries:
            journal.append(rtype, payload)


class TestRecordFormat:
    def test_line_round_trips(self):
        record = JournalRecord(3, "dispatch", {"job_id": "j1", "time": 0.5})
        data = json.loads(record.line())
        assert data["seq"] == 3
        assert data["type"] == "dispatch"
        assert data["payload"] == {"job_id": "j1", "time": 0.5}
        assert len(data["crc"]) == 8

    def test_schemas_are_versioned(self):
        assert JOURNAL_SCHEMA.endswith("/v1")
        assert QUARANTINE_SCHEMA.endswith("/v1")

    def test_unknown_record_type_rejected(self, tmp_path):
        with JobJournal(tmp_path / "j") as journal:
            with pytest.raises(UserInputError, match="unknown journal"):
                journal.append("not-a-type", {})

    def test_all_record_types_appendable(self, tmp_path):
        path = tmp_path / "j"
        _write(path, *[(t, {"i": i}) for i, t in enumerate(RECORD_TYPES)])
        scan = read_journal(path)
        assert scan.clean
        assert [r.type for r in scan.records] == list(RECORD_TYPES)
        assert [r.seq for r in scan.records] == list(range(len(RECORD_TYPES)))


class TestReadJournal:
    def test_missing_file_is_typed_error(self, tmp_path):
        with pytest.raises(UserInputError, match="not found"):
            read_journal(tmp_path / "absent.journal")

    def test_clean_scan(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {"jobs": []}), ("run-end", {}))
        scan = read_journal(path)
        assert scan.clean and not scan.torn_tail
        assert scan.intact_bytes == path.stat().st_size

    def test_checksum_mismatch_detected(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {"job_id": "a"}),
               ("run-end", {}))
        apply_storage_fault(path, StorageFault(kind="bit-flip", record=1))
        scan = read_journal(path)
        assert len(scan.records) == 2
        assert len(scan.corrupt) == 1
        assert "checksum" in scan.corrupt[0].reason

    def test_unterminated_tail_detected(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {"job_id": "a"}))
        intact = read_journal(path).intact_bytes
        apply_storage_fault(path, StorageFault(kind="torn-write"))
        scan = read_journal(path)
        assert scan.torn_tail
        assert len(scan.records) == 1
        # The truncation point is the end of the surviving record.
        assert scan.intact_bytes < intact

    def test_sequence_regression_rejected(self, tmp_path):
        path = tmp_path / "j"
        lines = [
            JournalRecord(0, "run-begin", {}).line(),
            JournalRecord(5, "submit", {}).line(),
            JournalRecord(2, "submit", {}).line(),  # replayed stale seq
        ]
        path.write_text("".join(lines))
        scan = read_journal(path)
        assert [r.seq for r in scan.records] == [0, 5]
        assert "regression" in scan.corrupt[0].reason

    def test_never_modifies_the_file(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {}))
        apply_storage_fault(path, StorageFault(kind="torn-write"))
        before = path.read_bytes()
        read_journal(path)
        assert path.read_bytes() == before


class TestRepair:
    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {"job_id": "a"}),
               ("submit", {"job_id": "b"}))
        size = path.stat().st_size
        apply_storage_fault(path, StorageFault(kind="torn-write"))
        records, report = repair_journal(path)
        assert [r.payload.get("job_id") for r in records] == [None, "a"]
        assert report.truncated_bytes > 0
        assert path.stat().st_size < size
        # A repaired journal scans clean.
        assert read_journal(path).clean

    def test_partial_fsync_loses_two_records(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {"job_id": "a"}),
               ("submit", {"job_id": "b"}), ("submit", {"job_id": "c"}))
        apply_storage_fault(path, StorageFault(kind="partial-fsync"))
        records, report = repair_journal(path)
        assert [r.payload.get("job_id") for r in records] == [None, "a"]
        assert report.truncated_bytes > 0

    def test_midfile_corruption_quarantined_not_truncated(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {"job_id": "a"}),
               ("submit", {"job_id": "b"}), ("run-end", {}))
        apply_storage_fault(path, StorageFault(kind="bit-flip", record=1))
        records, report = repair_journal(path, tmp_path / "quarantine")
        # Later intact records survive; nothing is truncated.
        assert [r.type for r in records] == ["run-begin", "submit", "run-end"]
        assert report.truncated_bytes == 0
        assert report.quarantined == 1
        bundle = json.loads(open(report.quarantine_path).read())
        assert bundle["schema"] == QUARANTINE_SCHEMA
        assert len(bundle["corrupt_records"]) == 1
        assert bundle["torn_tail"] is False

    def test_repair_never_raises_on_damage(self, tmp_path):
        path = tmp_path / "j"
        path.write_text("complete garbage, not even json\n")
        records, report = repair_journal(path, tmp_path / "q")
        assert records == []
        assert report.quarantined == 1

    def test_clean_journal_untouched(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("run-end", {}))
        before = path.read_bytes()
        records, report = repair_journal(path)
        assert len(records) == 2
        assert report.quarantined == 0 and report.truncated_bytes == 0
        assert path.read_bytes() == before


class TestSequenceContinuation:
    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {}))
        _write(path, ("recover", {}), ("submit", {}))
        scan = read_journal(path)
        assert scan.clean
        assert [r.seq for r in scan.records] == [0, 1, 2, 3]

    def test_reopen_after_repair_continues_from_survivors(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {}), ("submit", {}))
        apply_storage_fault(path, StorageFault(kind="torn-write"))
        repair_journal(path)
        _write(path, ("recover", {}))
        scan = read_journal(path)
        assert scan.clean
        assert scan.records[-1].seq == 2


class TestStorageFaults:
    @pytest.mark.parametrize("kind", STORAGE_FAULT_KINDS)
    def test_every_kind_damages_the_file(self, tmp_path, kind):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {}), ("run-end", {}))
        before = path.read_bytes()
        description = apply_storage_fault(path, StorageFault(kind=kind))
        assert path.read_bytes() != before
        assert description
        # Every kind of damage is *detected* by the scan.
        assert not read_journal(path).clean

    def test_bit_flip_negative_index_counts_from_end(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}), ("submit", {}), ("run-end", {}))
        apply_storage_fault(path, StorageFault(kind="bit-flip", record=-1))
        scan = read_journal(path)
        assert [r.type for r in scan.records] == ["run-begin", "submit"]

    def test_empty_file_is_noop(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"")
        assert "no-op" in apply_storage_fault(
            path, StorageFault(kind="torn-write")
        )

    def test_invalid_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="kind"):
            StorageFault(kind="meteor-strike")

    def test_invalid_target_rejected_at_construction(self):
        with pytest.raises(ValueError, match="target"):
            StorageFault(kind="bit-flip", target="ramdisk")


class TestProjection:
    def test_folds_lifecycle(self, tmp_path):
        path = tmp_path / "j"
        _write(
            path,
            ("run-begin", {"jobs": []}),
            ("admit", {"job_id": "a", "job": {}}),
            ("admit", {"job_id": "b", "job": {}}),
            ("dispatch", {"job_id": "a", "replica_id": "r0",
                          "attempt": 1, "kind": "primary", "time": 0.1}),
            ("attempt-end", {"job_id": "a", "ok": True}),
            ("result", {"result": {"job_id": "a", "status": "completed"}}),
        )
        view = project_journal(read_journal(path).records)
        assert view.outstanding == ["b"]
        assert view.inflight == {}
        assert "a" in view.results
        assert view.run_end is None

    def test_recover_marker_resets_transient_state(self, tmp_path):
        path = tmp_path / "j"
        _write(
            path,
            ("run-begin", {"jobs": []}),
            ("admit", {"job_id": "a", "job": {}}),
            ("dispatch", {"job_id": "a", "replica_id": "r0"}),
            ("replica-state", {"replica_id": "r0", "state": "DRAINING"}),
            ("recover", {}),
        )
        view = project_journal(read_journal(path).records)
        assert view.recoveries == 1
        assert view.queued == [] and view.inflight == {} \
            and view.replicas == {}
        # The original run-begin is kept: it is the replay input.
        assert view.run_begin == {"jobs": []}

    def test_queued_keeps_admit_order_across_recover_markers(self, tmp_path):
        path = tmp_path / "j"
        _write(
            path,
            ("run-begin", {"jobs": []}),
            ("admit", {"job_id": "c", "seq": 1, "time": 0.0}),
            ("admit", {"job_id": "a", "seq": 2, "time": 0.1}),
            ("result", {"result": {"job_id": "c", "status": "completed"}}),
            ("recover", {}),
            ("admit", {"job_id": "c", "seq": 1, "time": 0.0}),
            ("admit", {"job_id": "b", "seq": 2, "time": 0.1}),
            ("admit", {"job_id": "a", "seq": 3, "time": 0.2}),
        )
        view = project_journal(read_journal(path).records)
        assert view.queued == ["c", "b", "a"]
        # Durable results survive the marker and stay out of outstanding.
        assert view.outstanding == ["b", "a"]
        assert view.to_dict()["queued"] == ["a", "b"]

    def test_kill_retires_replica(self, tmp_path):
        path = tmp_path / "j"
        _write(path, ("run-begin", {}),
               ("kill", {"replica_id": "r1", "reason": "killed"}))
        view = project_journal(read_journal(path).records)
        assert view.replicas["r1"]["state"] == "RETIRED"
