"""Serving kill-restart chaos cells in tier-1 size.

Small streams (fsync traded away for speed — the crash here is
``abandon()``, not a real SIGKILL, so the WAL contract isn't what is
under test): a clean crash, a crash with a torn traffic bundle, and a
crash with a partially fsync'd job store must all recover to the
uninterrupted reference digest with zero acknowledged jobs lost.
"""

import asyncio

import pytest

from repro.chaos.fleet_soak import FleetSoakConfig
from repro.chaos.serve_kill import (
    ServeKillConfig,
    _payloads,
    _serving_config,
    run_serve_kill,
)
from repro.durable import SequencedLog, apply_storage_fault
from repro.errors import UserInputError
from repro.faults.plan import STORAGE_FAULT_KINDS, StorageFault
from repro.serving.gateway import ServingGateway
from repro.serving.session import KernelSession

SOAK = FleetSoakConfig(jobs=5, seed=13, replicas=("U280", "U50"))


def _cell(**overrides):
    kwargs = dict(soak=SOAK, crash_after_results=2, fsync=False)
    kwargs.update(overrides)
    return ServeKillConfig(**kwargs)


def test_clean_crash_recovers_to_the_reference_digest(tmp_path):
    result = run_serve_kill(_cell(), tmp_path)
    assert result.acked == SOAK.jobs  # every job was acknowledged
    # The cell dies right after the second result lands, never later.
    assert result.results_at_crash == 2
    assert result.lost_acked == []
    assert result.replay_divergences == 0
    # Results durable at crash time are suppressed on replay, never
    # re-emitted — the visible exactly-once guarantee.
    assert result.duplicates_suppressed == result.results_at_crash
    assert result.equivalent
    assert result.drained
    assert result.passed


def test_torn_traffic_bundle_still_recovers(tmp_path):
    result = run_serve_kill(
        _cell(storage_fault=StorageFault("torn-write", target="traffic")),
        tmp_path,
    )
    assert "traffic" in result.storage_fault_log
    # The store covers the hole the torn bundle left.
    assert result.lost_acked == []
    assert result.passed


def test_a_torn_write_cell_reproduces_byte_for_byte(tmp_path):
    # The records carry the cell's fixed wall, so the durable files, the
    # torn record's length and every reported count repeat exactly.
    cell = _cell(storage_fault=StorageFault("torn-write", target="traffic"))
    first = run_serve_kill(cell, tmp_path / "first").to_dict()
    second = run_serve_kill(cell, tmp_path / "second").to_dict()
    assert first == second
    assert "torn write" in first["storage_fault_log"]
    for name in ("jobs.jsonl", "traffic.jsonl"):
        assert (tmp_path / "first" / name).read_bytes() == (
            tmp_path / "second" / name
        ).read_bytes(), name


def test_partial_fsync_of_the_store_is_covered_by_the_bundle(tmp_path):
    # Crashing before any result lands leaves accepts at the store's
    # tail, so the fault destroys the last two acknowledged jobs there;
    # the bundle restores them.
    result = run_serve_kill(
        _cell(
            crash_after_results=0,
            storage_fault=StorageFault("partial-fsync", target="store"),
        ),
        tmp_path,
    )
    assert result.storage_fault_log.startswith("store: partial fsync")
    assert result.accepts_merged_from_traffic >= 1
    assert result.lost_acked == []
    assert result.passed


def test_bit_flip_in_the_bundle_is_skipped_and_counted(tmp_path):
    result = run_serve_kill(
        _cell(storage_fault=StorageFault(
            "bit-flip", record=-1, target="traffic"
        )),
        tmp_path,
    )
    assert result.corrupt_traffic_lines >= 1
    assert result.passed


def test_config_guards_are_typed():
    with pytest.raises(UserInputError, match="unfinished"):
        ServeKillConfig(soak=SOAK, crash_after_results=SOAK.jobs)
    with pytest.raises(UserInputError, match=">= 0"):
        ServeKillConfig(soak=SOAK, crash_after_results=-1)
    with pytest.raises(UserInputError, match="target"):
        ServeKillConfig(
            soak=SOAK,
            crash_after_results=1,
            storage_fault=StorageFault("torn-write", target="journal"),
        )



def _resume(serving, acked):
    """Resume a gateway over ``serving``'s files; -> the oracle inputs
    ``(accepts restored, lost acked ids, divergences, digest, drained)``."""
    async def run():
        gateway = ServingGateway(serving, resume=True)
        try:
            stats = gateway.recovery_stats
            lost = [j for j in acked if gateway.store.get_result(j) is None]
            digest = (
                gateway.session.digest() if gateway.session.served_jobs
                else ""
            )
            summary = await gateway.drain()
            return (stats["accepts_restored"], lost,
                    stats["replay_divergences"], digest,
                    summary["drained"])
        finally:
            gateway.close()
    return asyncio.run(run())


#: Files the serve-kill cell writes, by storage-fault target.
_TARGET_FILES = {"store": "jobs.jsonl", "traffic": "traffic.jsonl"}


@pytest.mark.slow
def test_every_append_boundary_recovers(tmp_path, monkeypatch):
    """Crash serve at *every* durable append boundary, not at a sampled
    wall-clock point: resume from the store and bundle as they stood
    after each append, once more with half of the next (in-flight)
    record torn onto its file, and once per storage fault kind applied
    to the store alone and to the bundle alone.  Every ack returned
    before the boundary wrote both files, so none may be lost."""
    config = _cell()
    payloads = _payloads(config)
    live = _serving_config(config, tmp_path / "live")

    # One uninterrupted serve; note each append's (file, size) and the
    # boundary at which each ack returned.
    appends = []
    write = SequencedLog.write

    def recording_write(self, record):
        write(self, record)
        appends.append((self.path.name, self.path.stat().st_size))

    monkeypatch.setattr(SequencedLog, "write", recording_write)
    acked_at = []

    async def serve():
        gateway = ServingGateway(live)
        try:
            for payload in payloads:
                await gateway.submit("chaos-key", payload)
                acked_at.append(len(appends))
            await gateway.drain()
        finally:
            gateway.close()

    asyncio.run(serve())
    monkeypatch.undo()
    final = {
        name: (tmp_path / "live" / name).read_bytes()
        for name in {name for name, _ in appends}
    }
    assert set(final) == set(_TARGET_FILES.values())

    references = {}

    def reference(accepts):
        if accepts not in references:
            session = KernelSession(live.session_spec())
            session.replay(payloads[:accepts])
            references[accepts] = session.digest() if accepts else ""
        return references[accepts]

    faults = [
        StorageFault(kind, target=target)
        for kind in STORAGE_FAULT_KINDS
        for target in _TARGET_FILES
    ]
    failures = []
    cells = 0
    for boundary in range(len(appends) + 1):
        sizes = dict.fromkeys(final, 0)
        for name, size in appends[:boundary]:
            sizes[name] = size
        at_boundary = {
            name: final[name][:size] for name, size in sizes.items()
        }
        acked = [
            p["job_id"] for p, at in zip(payloads, acked_at)
            if at <= boundary
        ]
        damage = [None, *appends[boundary:boundary + 1], *faults]
        for index, harm in enumerate(damage):
            content = dict(at_boundary)
            if isinstance(harm, tuple):  # the next record, half-written
                name, end = harm
                record = final[name][sizes[name]:end]
                content[name] += record[:len(record) // 2]
            victim = (
                _TARGET_FILES[harm.target]
                if isinstance(harm, StorageFault) else None
            )
            if victim is not None and not content[victim]:
                continue  # nothing on disk to damage yet
            workdir = tmp_path / f"b{boundary}-{index}"
            workdir.mkdir()
            for name, data in content.items():
                if data:
                    (workdir / name).write_bytes(data)
            if victim is not None:
                apply_storage_fault(workdir / victim, harm)
            cells += 1
            restored, lost, divergences, digest, drained = _resume(
                _serving_config(config, workdir), acked
            )
            if (
                restored < len(acked)
                or lost
                or divergences
                or digest != reference(restored)
                or not drained
            ):
                failures.append((boundary, harm, restored, lost,
                                 divergences, digest))
    # Store: begin + an accept and a result per job; bundle: the same
    # plus its traffic-end.
    assert len(appends) == 4 * len(payloads) + 3
    assert cells > 6 * len(appends)
    assert failures == []
