"""Crash recovery acceptance: kill, recover, replay, compare.

The durability contract (docs/DURABILITY.md): a hard-killed journaled
fleet, recovered from disk, finishes with zero lost jobs, exactly-once
results, and a report digest bit-identical to a run that was never
killed.  These tests drive `FleetRuntime.recover` directly; the chaos
cell that composes crashes with storage corruption lives in
`tests/test_chaos_kill_restart.py`.
"""

import dataclasses

import pytest

from repro.chaos.fleet_soak import (
    FleetSoakConfig,
    build_pool,
    generate_jobs,
    generate_kills,
)
from repro.errors import FleetKilledError, UserInputError
from repro.faults.plan import StorageFault
from repro.fleet import FleetPolicy, FleetRuntime, JobJournal, ResultStore
from repro.fleet.journal import (
    apply_storage_fault,
    project_journal,
    read_journal,
)

#: Small but real: two device types, one mid-campaign replica kill.
CFG = FleetSoakConfig(seed=3, jobs=6, replicas=("U280", "U50"),
                      random_kills=1)
CRASH_AT = 4


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted in-memory run: ground-truth digest + events."""
    runtime = FleetRuntime(build_pool(CFG), FleetPolicy())
    report = runtime.run(generate_jobs(CFG), generate_kills(CFG))
    return runtime, report


def _crashed_run(tmp_path, halt=CRASH_AT):
    """Serve journaled+stored and die hard after ``halt`` events."""
    journal_path = tmp_path / "fleet.journal"
    store_path = tmp_path / "results.jsonl"
    runtime = FleetRuntime(
        build_pool(CFG),
        FleetPolicy(),
        journal=JobJournal(journal_path, fsync=False),
        store=ResultStore(store_path, fsync=False),
    )
    with pytest.raises(FleetKilledError) as exc:
        runtime.run(generate_jobs(CFG), generate_kills(CFG),
                    halt_after_events=halt)
    assert exc.value.events_processed == halt
    return journal_path, store_path


class TestRecoverResume:
    def test_resumed_digest_equals_uninterrupted(self, tmp_path, reference):
        journal_path, store_path = _crashed_run(tmp_path)
        recovered = FleetRuntime.recover(journal_path, store_path)
        report = recovered.resume(fsync=False)
        assert report.digest() == reference[1].digest()
        assert report.passed

    def test_exactly_once_results(self, tmp_path, reference):
        journal_path, store_path = _crashed_run(tmp_path)
        recovered = FleetRuntime.recover(journal_path, store_path)
        recovered.resume(fsync=False)
        stats = recovered.runtime.recovery_stats
        # Everything durable at death was suppressed on replay, never
        # re-emitted; replayed copies agreed with the durable ones.
        assert stats["results_restored"] > 0
        assert stats["duplicates_suppressed"] == stats["results_restored"]
        assert stats["replay_divergences"] == 0
        with ResultStore(store_path, fsync=False) as store:
            assert store.results.duplicates_on_disk == 0
            assert sorted(store.job_ids()) == sorted(
                j.job_id for j in generate_jobs(CFG)
            )

    def test_projection_names_outstanding_work(self, tmp_path):
        journal_path, store_path = _crashed_run(tmp_path)
        recovered = FleetRuntime.recover(journal_path, store_path)
        view = recovered.projection
        all_jobs = {j.job_id for j in generate_jobs(CFG)}
        assert set(view.outstanding) <= all_jobs
        assert view.run_end is None
        # recover() itself must not replay anything.
        assert recovered.runtime is None

    def test_second_crash_then_final_recovery(self, tmp_path, reference):
        journal_path, store_path = _crashed_run(tmp_path)
        recovered = FleetRuntime.recover(journal_path, store_path)
        # Crash points are absolute event counts: the resumed replay
        # starts from event 0, so the second kill lands deeper in.
        with pytest.raises(FleetKilledError):
            recovered.resume(halt_after_events=CRASH_AT + 3, fsync=False)
        final = FleetRuntime.recover(journal_path, store_path)
        report = final.resume(fsync=False)
        assert report.digest() == reference[1].digest()
        assert final.projection.recoveries == 1  # marker of resume #1

    def test_resume_journals_into_the_same_file(self, tmp_path):
        journal_path, store_path = _crashed_run(tmp_path)
        seq_at_death = read_journal(journal_path).records[-1].seq
        recovered = FleetRuntime.recover(journal_path, store_path)
        recovered.resume(fsync=False)
        scan = read_journal(journal_path)
        assert scan.clean
        assert scan.records[-1].seq > seq_at_death
        types = [r.type for r in scan.records]
        assert types.count("run-begin") == 2  # original + replay
        assert types.count("recover") == 1
        assert types[-1] == "run-end"
        view = project_journal(scan.records)
        assert view.run_end is not None

    def test_recovery_survives_torn_tail(self, tmp_path, reference):
        journal_path, store_path = _crashed_run(tmp_path)
        apply_storage_fault(journal_path, StorageFault(kind="torn-write"))
        recovered = FleetRuntime.recover(
            journal_path, store_path, quarantine_dir=tmp_path / "q"
        )
        assert recovered.repair.truncated_bytes > 0
        report = recovered.resume(fsync=False)
        assert report.digest() == reference[1].digest()

    def test_recovery_survives_corrupt_store(self, tmp_path, reference):
        journal_path, store_path = _crashed_run(tmp_path)
        apply_storage_fault(
            store_path, StorageFault(kind="bit-flip", target="store")
        )
        recovered = FleetRuntime.recover(journal_path, store_path)
        report = recovered.resume(fsync=False)
        # The flipped result was dropped at load and recomputed.
        assert report.digest() == reference[1].digest()


class TestRecoverErrors:
    def test_missing_journal_is_typed(self, tmp_path):
        with pytest.raises(UserInputError, match="not found"):
            FleetRuntime.recover(tmp_path / "absent.journal")

    def test_corrupt_run_begin_is_typed(self, tmp_path):
        journal_path, store_path = _crashed_run(tmp_path)
        # Flip a bit in the run-begin record itself: the one piece of
        # state replay cannot live without.
        apply_storage_fault(
            journal_path, StorageFault(kind="bit-flip", record=0)
        )
        with pytest.raises(UserInputError, match="run-begin"):
            FleetRuntime.recover(journal_path, store_path)

    def test_halt_after_events_must_be_positive(self):
        runtime = FleetRuntime(build_pool(CFG), FleetPolicy())
        with pytest.raises(UserInputError, match="halt_after_events"):
            runtime.run(generate_jobs(CFG), halt_after_events=0)


class TestResultStore:
    def _result(self, runtime_reference, index=0):
        return runtime_reference[1].jobs[index]

    def test_round_trip(self, tmp_path, reference):
        path = tmp_path / "s.jsonl"
        result = self._result(reference)
        with ResultStore(path, fsync=False) as store:
            assert store.put(result)
        with ResultStore(path, fsync=False) as store:
            assert len(store) == 1
            loaded = store.get(result.job_id)
            assert loaded.to_dict() == result.to_dict()

    def test_first_write_wins(self, tmp_path, reference):
        path = tmp_path / "s.jsonl"
        first = self._result(reference, 0)
        shadow = dataclasses.replace(first, replica_id="imposter")
        with ResultStore(path, fsync=False) as store:
            assert store.put(first)
            assert not store.put(shadow)
            assert store.results.duplicates_suppressed == 1
            # The suppressed copy differs: a replay divergence.
            assert store.results.replay_divergences == 1
            assert store.get(first.job_id).replica_id == first.replica_id

    def test_v1_store_is_refused_untouched(self, tmp_path):
        path = tmp_path / "s.jsonl"
        # A regraph-fleet-store/v1 line ({key, result}), torn tail and all.
        data = (
            b'{"crc":"6e3505ed","key":"job-0007","result":{"cycles":1234.5,'
            b'"digest":"ab","job_id":"job-0007","status":"completed"}}\n'
            b'{"crc":"00'
        )
        path.write_bytes(data)
        with pytest.raises(UserInputError, match="regraph-fleet-store/v1"):
            ResultStore(path, fsync=False)
        assert path.read_bytes() == data

    def test_journal_as_store_is_refused_untouched(self, tmp_path):
        journal_path, _ = _crashed_run(tmp_path)
        data = journal_path.read_bytes()
        with pytest.raises(UserInputError, match="not a regraph-fleet-store"):
            ResultStore(journal_path, fsync=False)
        assert journal_path.read_bytes() == data
