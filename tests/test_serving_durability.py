"""Job store and traffic bundle: the serving durability pair.

Covers the contracts the gateway's crash-safety rests on: the store's
write-ahead role (acks are durable records; results are exactly-once
under their idempotency key; schema and session mismatches, and a v1
SQLite store, are typed), and
the traffic bundle's flight-recorder role (accepts in order, resume
markers, first-copy-wins dedup, damage tolerance, and bit-identical
replay of the recorded digest).
"""

import sqlite3

import pytest

from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs
from repro.durable import apply_storage_fault, read_log
from repro.errors import UserInputError
from repro.faults.plan import StorageFault
from repro.fleet.job import JobResult
from repro.serving.config import ServingConfig
from repro.serving.jobstore import JOBSTORE_SCHEMA, JobStore
from repro.serving.session import KernelSession
from repro.serving.traffic import (
    TRAFFIC_SCHEMA,
    TrafficRecorder,
    read_traffic,
    replay_traffic,
)

SOAK = FleetSoakConfig(jobs=4, seed=5, replicas=("U280", "U50"))
SERVING = ServingConfig(fsync=False)


@pytest.fixture(scope="module")
def payloads():
    return [job.to_dict() for job in generate_jobs(SOAK)]


def _result(job_id, status="completed"):
    return JobResult(job_id=job_id, status=status, replica_id="r0")


def _store(path, spec=None):
    return JobStore(path, spec or SERVING.session_spec(), fsync=False)


class TestJobStore:
    def test_jobs_round_trip_in_acceptance_order(self, tmp_path, payloads):
        path = tmp_path / "jobs.jsonl"
        with _store(path) as store:
            for i, payload in enumerate(payloads):
                seq = store.append_job("acme", payload, accepted_wall=0.5 * i)
                assert seq == i + 1
                assert store.job_seq(payload["job_id"]) == seq
            assert store.job_count() == len(payloads)
        with _store(path) as store:
            rows = store.take_scanned_accepts()
            assert [p for _, _, p in rows] == payloads
            assert [s for s, _, _ in rows] == list(range(1, len(payloads) + 1))
            assert all(tenant == "acme" for _, tenant, _ in rows)
            # Handed out once: the store keeps no payloads.
            assert store.take_scanned_accepts() == []

    def test_store_shares_the_traffic_bundle_reader(self, tmp_path,
                                                    payloads):
        path = tmp_path / "jobs.jsonl"
        with _store(path) as store:
            store.append_job("acme", payloads[0])
            store.put_result(_result(payloads[0]["job_id"]))
        loaded = read_traffic(path)
        assert loaded.schema == JOBSTORE_SCHEMA
        assert loaded.spec == SERVING.session_spec()
        assert loaded.job_payloads() == payloads[:1]
        assert payloads[0]["job_id"] in loaded.results

    def test_double_accept_is_typed(self, tmp_path, payloads):
        with _store(tmp_path / "jobs.jsonl") as store:
            store.append_job("acme", payloads[0])
            with pytest.raises(UserInputError):
                store.append_job("acme", payloads[0])

    def test_results_are_exactly_once(self, tmp_path, payloads):
        path = tmp_path / "jobs.jsonl"
        with _store(path) as store:
            store.append_job("acme", payloads[0])
            job_id = payloads[0]["job_id"]
            first = _result(job_id)
            assert store.put_result(first)
            # The second write is the replay duplicate: suppressed,
            # counted, and the durable copy stays the first one.
            second = _result(job_id, status="failed")
            assert not store.put_result(second)
            assert store.results.duplicates_suppressed == 1
            assert store.get_result(job_id).status == "completed"
            assert store.result_count() == 1
        results = [r for r in read_log(path).records if r.type == "result"]
        assert len(results) == 1

    def test_outstanding_is_the_resume_debt(self, tmp_path, payloads):
        with _store(tmp_path / "jobs.jsonl") as store:
            for payload in payloads[:3]:
                store.append_job("acme", payload)
            store.put_result(_result(payloads[0]["job_id"]))
            assert store.outstanding() == [
                payloads[1]["job_id"], payloads[2]["job_id"]
            ]
            assert store.stats()["outstanding"] == 2

    def test_rows_survive_reopen(self, tmp_path, payloads):
        path = tmp_path / "jobs.jsonl"
        with _store(path) as store:
            store.append_job("acme", payloads[0])
            store.append_job("acme", payloads[1])
            store.put_result(_result(payloads[0]["job_id"]))
        with _store(path) as store:
            assert store.has_job(payloads[0]["job_id"])
            assert store.get_result(payloads[0]["job_id"]) is not None
            assert store.outstanding() == [payloads[1]["job_id"]]
            # Numbering continues after the reopened maximum.
            assert store.append_job("acme", payloads[2]) == 3

    def test_no_path_keeps_the_indexes_and_writes_nothing(self, tmp_path,
                                                          payloads):
        with _store(None) as store:
            assert store.append_job("acme", payloads[0]) == 1
            assert store.put_result(_result(payloads[0]["job_id"]))
            assert store.stats() == {
                "jobs": 1, "results": 1, "outstanding": 0,
                "duplicates_suppressed": 0,
            }
        assert list(tmp_path.iterdir()) == []

    def test_session_spec_mismatch_is_typed(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        _store(path).close()
        _store(path).close()  # the same spec: fine
        other = ServingConfig(devices=("U280",), fsync=False)
        with pytest.raises(UserInputError, match="different"):
            _store(path, other.session_spec())

    def test_schema_mismatch_is_typed(self, tmp_path):
        # A record log of another schema (a traffic bundle) is refused.
        path = tmp_path / "traffic.jsonl"
        TrafficRecorder(path, SERVING.session_spec(), fsync=False).close()
        with pytest.raises(UserInputError, match=JOBSTORE_SCHEMA):
            _store(path)

    def test_v1_sqlite_store_is_typed_and_left_untouched(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        db = sqlite3.connect(path)
        db.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        db.execute(
            "INSERT INTO meta VALUES ('schema', 'regraph-jobstore/v1')"
        )
        db.commit()
        db.close()
        before = path.read_bytes()
        with pytest.raises(UserInputError, match="v1 SQLite") as info:
            _store(path)
        assert JOBSTORE_SCHEMA in str(info.value)
        assert path.read_bytes() == before

    def test_a_fresh_sqlite_named_path_is_a_record_log(self, tmp_path,
                                                       payloads):
        path = tmp_path / "jobs.sqlite"
        with _store(path) as store:
            store.append_job("acme", payloads[0])
        with _store(path) as store:
            assert store.has_job(payloads[0]["job_id"])

    @pytest.mark.parametrize("kind", ["torn-write", "partial-fsync"])
    def test_torn_tail_is_dropped_on_reopen(self, tmp_path, payloads,
                                            kind):
        path = tmp_path / "jobs.jsonl"
        with _store(path) as store:
            for payload in payloads[:3]:
                store.append_job("acme", payload)
        apply_storage_fault(path, StorageFault(kind=kind, target="store"))
        with _store(path) as store:
            assert store.has_job(payloads[0]["job_id"])
            assert not store.has_job(payloads[2]["job_id"])
            store.append_job("acme", payloads[2])
        assert read_log(path).clean


class TestTrafficBundle:
    def _record(self, path, payloads, digest="d" * 64):
        with TrafficRecorder(path, SERVING.session_spec(),
                             fsync=False) as rec:
            for i, payload in enumerate(payloads):
                rec.record_accept(i, "acme", payload, wall=0.1 * i)
            rec.record_reject("acme", "late-job", "FleetOverloadError",
                              "shed", wall=9.0)
            rec.record_result(_result(payloads[0]["job_id"]), wall=9.5)
            rec.record_end(digest, {"accepts": len(payloads)})

    def test_round_trip(self, tmp_path, payloads):
        path = tmp_path / "traffic.jsonl"
        self._record(path, payloads)
        bundle = read_traffic(path)
        assert bundle.spec == SERVING.session_spec()
        assert bundle.job_payloads() == payloads
        assert len(bundle.rejects) == 1
        assert payloads[0]["job_id"] in bundle.results
        assert bundle.drained
        assert bundle.corrupt_lines == 0
        summary = bundle.summary()
        assert summary["schema"] == TRAFFIC_SCHEMA
        assert summary["recorded_digest"] == "d" * 64

    def test_reopen_continues_with_a_resume_marker(self, tmp_path, payloads):
        path = tmp_path / "traffic.jsonl"
        self._record(path, payloads[:2])
        # A recovered gateway reopens the bundle and repeats the accepts
        # it restored; first copy wins, so the sequence stays
        # exactly-once even though the file now holds each twice.
        with TrafficRecorder(path, SERVING.session_spec(),
                             fsync=False) as rec:
            for i, payload in enumerate(payloads[:2]):
                rec.record_accept(i, "acme", payload, wall=5.0)
            rec.record_accept(2, "acme", payloads[2], wall=6.0)
        bundle = read_traffic(path)
        assert bundle.job_payloads() == payloads[:3]

    @pytest.mark.parametrize("kind", ["torn-write", "partial-fsync"])
    def test_reopen_over_a_torn_tail_keeps_its_resume_marker(
        self, tmp_path, payloads, kind
    ):
        path = tmp_path / "traffic.jsonl"
        self._record(path, payloads[:2])
        apply_storage_fault(path, StorageFault(kind=kind, target="traffic"))
        with TrafficRecorder(path, SERVING.session_spec(),
                             fsync=False) as rec:
            rec.record_accept(2, "acme", payloads[2], wall=6.0)
        # The unterminated fragment is dropped on reopen, so the resume
        # marker and the new accept land on lines of their own.
        types = [r.type for r in read_log(path).records]
        assert types[-2:] == ["resume", "accept"]
        bundle = read_traffic(path)
        assert bundle.corrupt_lines == 0
        assert bundle.job_payloads()[-1] == payloads[2]

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path, payloads):
        path = tmp_path / "traffic.jsonl"
        self._record(path, payloads)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not a journal line at all\n")
        bundle = read_traffic(path)
        assert bundle.corrupt_lines == 1
        assert bundle.job_payloads() == payloads  # damage never blocks

    def test_unknown_record_type_is_typed(self, tmp_path):
        rec = TrafficRecorder(tmp_path / "t.jsonl", SERVING.session_spec(),
                              fsync=False)
        with pytest.raises(UserInputError, match="unknown traffic record"):
            rec.append("checkpoint", {})
        rec.close()

    def test_missing_bundle_is_typed(self, tmp_path):
        with pytest.raises(UserInputError, match="not found"):
            read_traffic(tmp_path / "nope.jsonl")

    def test_replay_reproduces_the_live_digest(self, tmp_path, payloads):
        # Live: the pure kernel session, no transport at all.
        live = KernelSession(SERVING.session_spec())
        live.replay(payloads)
        path = tmp_path / "traffic.jsonl"
        self._record(path, payloads, digest=live.digest())
        session, bundle = replay_traffic(path)
        assert session.digest() == live.digest()
        assert session.digest() == bundle.summary()["recorded_digest"]

    def test_replay_without_a_spec_needs_an_override(self, tmp_path,
                                                     payloads):
        path = tmp_path / "traffic.jsonl"
        self._record(path, payloads)
        lines = path.read_text().splitlines(keepends=True)
        # Damage the only spec-bearing record (traffic-begin).
        path.write_text("x" + lines[0][1:] + "".join(lines[1:]))
        with pytest.raises(UserInputError, match="no intact session spec"):
            replay_traffic(path)
        session, _ = replay_traffic(
            path, spec_override=SERVING.session_spec()
        )
        assert len(session.served_jobs) == len(payloads)
