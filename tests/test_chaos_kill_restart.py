"""Kill-restart chaos cells: the durability loop closed end to end.

One cell = reference run, journaled run hard-killed at seeded crash
points, optional storage corruption between death and rebirth, recovery
by replay, and the oracles: zero lost jobs, exactly-once results, zero
replay divergences, recovery equivalence (docs/DURABILITY.md).
"""

import pytest

from repro.chaos import kill_restart
from repro.chaos.fleet_soak import (
    FleetSoakConfig,
    build_pool,
    generate_jobs,
    generate_kills,
)
from repro.chaos.kill_restart import (
    KillRestartConfig,
    plan_crash_points,
    run_kill_restart,
)
from repro.errors import UserInputError
from repro.faults.plan import STORAGE_FAULT_KINDS, StorageFault
from repro.fleet.runtime import FleetPolicy, FleetRuntime

#: Small but complete: both device types, a replica kill *and* process
#: crashes in the same cell.  Seed 7's crash points land after the
#: first completions, so recovery genuinely restores durable results.
SOAK = FleetSoakConfig(seed=7, jobs=8, replicas=("U280", "U50"),
                       random_kills=1)


@pytest.fixture(scope="module")
def corrupted_cell(tmp_path_factory):
    """One full cell: 2 crashes, torn journal tail + store bit rot."""
    config = KillRestartConfig(
        soak=SOAK,
        crashes=2,
        storage_faults=(
            StorageFault(kind="torn-write", target="journal"),
            StorageFault(kind="bit-flip", record=-1, target="store"),
        ),
        fsync=False,
    )
    workdir = tmp_path_factory.mktemp("kill-restart")
    return run_kill_restart(config, workdir), workdir


class TestCell:
    def test_all_oracles_pass_under_corruption(self, corrupted_cell):
        result, _ = corrupted_cell
        assert result.equivalent
        assert result.lost_jobs == []
        assert result.duplicate_results == 0
        assert result.replay_divergences == 0
        assert result.journal_complete
        assert result.passed

    def test_crashes_actually_happened(self, corrupted_cell):
        result, _ = corrupted_cell
        assert result.restarts == 2
        assert len(result.crash_points) == 2
        assert result.crash_points[0] < result.crash_points[1]
        # Durable work was reused, not redone from nothing.
        assert result.results_restored > 0
        assert result.duplicates_suppressed > 0

    def test_corruption_was_contained_not_fatal(self, corrupted_cell):
        result, workdir = corrupted_cell
        assert len(result.storage_fault_log) == 2
        # The torn journal tail was truncated; the store bit-flip was
        # dropped at load (it never reaches the journal quarantine).
        assert result.truncated_bytes > 0
        assert (workdir / "fleet.journal").exists()

    def test_result_serialises(self, corrupted_cell):
        result, _ = corrupted_cell
        data = result.to_dict()
        assert data["passed"] is True
        assert data["equivalent"] is True
        assert data["crash_points"] == result.crash_points
        assert data["config"] == result.config.to_dict()


class TestReportDoesNotDependOnTheWorkdir:
    def test_one_seed_two_workdirs_write_equal_reports(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        reports, printed = [], []
        for workdir in ("relative", str(tmp_path / "absolute")):
            report = tmp_path / f"{len(reports)}.json"
            assert main([
                "chaos", "kill-restart", "--num-jobs", "8",
                "--fleet-seed", "7", "--replica", "U280",
                "--replica", "U50", "--kills", "1", "--crashes", "1",
                "--corrupt", "bit-flip:4", "--no-fsync",
                "--workdir", workdir, "--report-json", str(report),
            ]) == 0
            reports.append(json.loads(report.read_text()))
            out = capsys.readouterr().out
            printed.append(out.split("quarantined")[1].split(" -> ")[1]
                           .splitlines()[0])
        assert reports[0] == reports[1]
        assert reports[0]["quarantine_path"] == (
            "quarantine/fleet.journal.quarantine.json"
        )
        # The CLI line still names a bundle that opens.
        for path in printed:
            bundle = json.loads(open(path).read())
            assert bundle["corrupt_records"]


class TestCleanCell:
    def test_single_crash_no_corruption(self, tmp_path):
        config = KillRestartConfig(soak=SOAK, crashes=1, fsync=False)
        result = run_kill_restart(config, tmp_path)
        assert result.passed
        assert result.restarts == 1
        assert result.quarantined_records == 0


class TestTornStoreTail:
    """A store whose tail was torn must take the next ``put`` on a line
    of its own; glued onto the fragment, the result would be lost."""

    @pytest.mark.parametrize("kind", ["torn-write", "partial-fsync"])
    def test_no_acknowledged_result_is_lost(self, tmp_path, kind):
        config = KillRestartConfig(
            soak=SOAK,
            crashes=1,
            storage_faults=(StorageFault(kind=kind, target="store"),),
            fsync=False,
        )
        result = run_kill_restart(config, tmp_path)
        assert result.lost_jobs == []
        assert result.passed


#: Every storage condition a kill-restart cell can meet between death
#: and rebirth: none, or one fault kind on one of its two files.
_STORAGE_CONDITIONS = [None] + [
    StorageFault(kind=kind, target=target)
    for target in ("journal", "store")
    for kind in STORAGE_FAULT_KINDS
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "fault", _STORAGE_CONDITIONS,
    ids=lambda f: "clean" if f is None else f"{f.kind}@{f.target}",
)
def test_every_crash_point_passes_every_oracle(tmp_path, monkeypatch, fault):
    """Crash once at *every* event boundary of the soak, not at a
    seeded sample, under each storage condition."""
    reference = FleetRuntime(build_pool(SOAK), FleetPolicy())
    reference.run(generate_jobs(SOAK), generate_kills(SOAK))
    points = range(1, reference.events_processed)
    failures = []
    for point in points:
        monkeypatch.setattr(
            kill_restart, "plan_crash_points",
            lambda total, crashes, seed, point=point: [point],
        )
        config = KillRestartConfig(
            soak=SOAK,
            crashes=1,
            storage_faults=() if fault is None else (fault,),
            fsync=False,
        )
        result = run_kill_restart(config, tmp_path / f"p{point}")
        assert result.crash_points == [point]
        if not result.passed:
            failures.append((point, result.to_dict()))
    assert len(points) >= 10
    assert failures == []


class TestConfig:
    def test_needs_at_least_one_crash(self):
        with pytest.raises(UserInputError, match=">= 1 crash"):
            KillRestartConfig(crashes=0)

    @pytest.mark.parametrize("target", ["traffic"])
    def test_rejects_targets_the_cell_cannot_damage(self, target):
        # Only the journal and the result store exist in a kill-restart
        # cell, so any other target has no file to damage.
        with pytest.raises(UserInputError, match=target):
            KillRestartConfig(
                storage_faults=(StorageFault(kind="bit-flip", target=target),)
            )

    def test_the_sqlite_wal_target_is_gone(self):
        # Every durable file is a record log now; there is no WAL file
        # a fault could target.
        with pytest.raises(ValueError, match="store-wal"):
            StorageFault(kind="torn-write", target="store-wal")

    @pytest.mark.parametrize("target", ["journal", "store"])
    def test_accepts_journal_and_store(self, target):
        config = KillRestartConfig(
            storage_faults=(StorageFault(kind="bit-flip", target=target),)
        )
        assert config.storage_faults[0].target == target


class TestCrashPoints:
    def test_deterministic_in_seed(self):
        assert plan_crash_points(40, 3, seed=9) == \
            plan_crash_points(40, 3, seed=9)
        assert plan_crash_points(40, 3, seed=9) != \
            plan_crash_points(40, 3, seed=10)

    def test_strictly_increasing_inside_the_run(self):
        points = plan_crash_points(25, 4, seed=1)
        assert points == sorted(set(points))
        assert points[0] >= 1
        # At least one event remains after the last crash.
        assert points[-1] <= 24

    def test_capped_at_events_minus_one(self):
        assert len(plan_crash_points(3, 10, seed=0)) == 2

    def test_too_short_run_is_typed(self):
        with pytest.raises(UserInputError, match="too short"):
            plan_crash_points(1, 1, seed=0)
