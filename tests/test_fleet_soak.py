"""Fleet soak acceptance tests.

The headline scenario from the robustness roadmap: a fixed-seed soak
over three replicas with one permanently killed mid-campaign must end
with **every admitted job either completed conformance-clean on a
survivor or terminated with a typed error — zero jobs lost — and the
whole outcome bit-reproducible from the seed**.
"""

import pytest

from repro.chaos.fleet_soak import (
    FleetSoakConfig,
    FleetSoakResult,
    build_pool,
    generate_jobs,
    generate_kills,
    run_fleet_soak,
)
from repro.errors import UserInputError
from repro.fleet import RETIRED

SOAK_SEED = 7
SOAK_JOBS = 16

#: The acceptance configuration: 3 replicas (both device types), one
#: seeded permanent kill landing mid-campaign.
ACCEPTANCE = FleetSoakConfig(
    seed=SOAK_SEED,
    jobs=SOAK_JOBS,
    replicas=("U280", "U280", "U50"),
    random_kills=1,
)

TYPED_ERRORS = {
    "FleetOverloadError",
    "NoServingReplicaError",
    "JobFailoverExhaustedError",
}


@pytest.fixture(scope="module")
def soak_result():
    return run_fleet_soak(ACCEPTANCE)


class TestSoakAcceptance:
    def test_kill_lands_mid_campaign(self, soak_result):
        kills = soak_result.kills
        assert len(kills) == 1
        jobs = generate_jobs(ACCEPTANCE)
        first, last = jobs[0].submit_time, jobs[-1].submit_time
        assert first < kills[0].at_seconds < last

    def test_killed_replica_is_permanently_retired(self, soak_result):
        report = soak_result.report
        killed = [r for r in report.replicas if r["killed"]]
        assert len(killed) == 1
        assert killed[0]["state"] == RETIRED
        assert report.counters["kills"] == 1
        # No post-kill assignment ever targets the dead replica.
        kill = soak_result.kills[0]
        for record in report.assignments:
            if record.replica_id == kill.replica_id:
                assert record.time <= kill.at_seconds

    def test_zero_jobs_lost(self, soak_result):
        report = soak_result.report
        assert len(report.jobs) == SOAK_JOBS
        assert report.lost == 0
        assert report.admitted == report.completed + report.failed

    def test_every_outcome_is_clean_or_typed(self, soak_result):
        for result in soak_result.report.jobs:
            if result.status == "completed":
                assert not result.violations, result.job_id
                assert result.replica_id, result.job_id
            else:
                assert result.error_type in TYPED_ERRORS, (
                    result.job_id, result.error_type
                )
                assert result.detail, result.job_id

    def test_completions_ran_on_survivors(self, soak_result):
        report = soak_result.report
        kill = soak_result.kills[0]
        for result in report.jobs:
            if result.status != "completed":
                continue
            if result.replica_id == kill.replica_id:
                # Finished on the doomed card only before it died.
                assert result.finish_time <= kill.at_seconds

    def test_soak_passes_overall(self, soak_result):
        assert soak_result.report.passed

    def test_bit_reproducible_from_seed(self, soak_result):
        again = run_fleet_soak(ACCEPTANCE)
        assert again.report.digest() == soak_result.report.digest()
        assert (
            again.report.assignment_log()
            == soak_result.report.assignment_log()
        )

    def test_result_round_trip(self, soak_result):
        clone = FleetSoakResult.from_dict(soak_result.to_dict())
        assert clone.config == ACCEPTANCE
        assert clone.report.digest() == soak_result.report.digest()


class TestSoakGeneration:
    def test_job_stream_is_deterministic(self):
        assert generate_jobs(ACCEPTANCE) == generate_jobs(ACCEPTANCE)

    def test_different_seeds_differ(self):
        other = FleetSoakConfig(
            seed=SOAK_SEED + 1, jobs=SOAK_JOBS, random_kills=1
        )
        assert generate_jobs(other) != generate_jobs(ACCEPTANCE)

    def test_submit_times_are_ordered(self):
        jobs = generate_jobs(ACCEPTANCE)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)

    def test_sssp_jobs_get_weighted_graphs(self):
        jobs = generate_jobs(
            FleetSoakConfig(seed=2, jobs=40)
        )
        sssp = [j for j in jobs if j.app == "sssp"]
        assert sssp and all(j.graph.weighted for j in sssp)

    def test_random_kills_leave_a_survivor(self):
        config = FleetSoakConfig(seed=1, jobs=4, random_kills=10)
        kills = generate_kills(config)
        assert len(kills) == len(config.replicas) - 1
        assert len({k.replica_id for k in kills}) == len(kills)

    def test_explicit_kills_win_over_random(self):
        from repro.fleet import ReplicaKill

        config = FleetSoakConfig(
            seed=1, jobs=4, random_kills=2,
            kills=(ReplicaKill("r1", 0.001),),
        )
        kills = generate_kills(config)
        assert kills == [ReplicaKill("r1", 0.001)]

    def test_pool_matches_devices(self):
        pool = build_pool(ACCEPTANCE)
        assert [r.device for r in pool] == ["U280", "U280", "U50"]
        assert [r.replica_id for r in pool] == ["r0", "r1", "r2"]

    def test_config_round_trip(self):
        assert FleetSoakConfig.from_dict(ACCEPTANCE.to_dict()) == ACCEPTANCE

    def test_config_validation(self):
        with pytest.raises(UserInputError):
            FleetSoakConfig(jobs=0)
        with pytest.raises(UserInputError):
            FleetSoakConfig(replicas=())
        with pytest.raises(UserInputError):
            FleetSoakConfig(intensity="apocalyptic")
        with pytest.raises(UserInputError):
            FleetSoakConfig(fault_fraction=1.5)


class TestJournaledSoak:
    """Durability attachment (docs/DURABILITY.md): the journal/store
    change nothing about the served outcome and ride beside the report
    as a side-channel, like the perf counters."""

    def test_journaled_digest_matches_in_memory(self, soak_result,
                                                tmp_path):
        journaled = run_fleet_soak(
            ACCEPTANCE,
            journal_path=tmp_path / "fleet.journal",
            store_path=tmp_path / "results.jsonl",
            journal_fsync=False,
        )
        assert journaled.report.digest() == soak_result.report.digest()
        # A fresh, uninterrupted run restores/suppresses nothing.
        assert journaled.recovery == {
            "results_restored": 0,
            "duplicates_suppressed": 0,
            "replay_divergences": 0,
        }

    def test_recovery_side_channel_serialises(self, soak_result,
                                              tmp_path):
        journaled = run_fleet_soak(
            ACCEPTANCE,
            journal_path=tmp_path / "fleet.journal",
            journal_fsync=False,
        )
        data = journaled.to_dict()
        assert "recovery" in data
        # ... but never inside the digest-bearing report itself.
        assert "recovery" not in data["report"]
        restored = FleetSoakResult.from_dict(data)
        assert restored.recovery == journaled.recovery
        # In-memory soaks serialize without the key at all, keeping
        # pre-durability result files byte-identical.
        assert "recovery" not in soak_result.to_dict()


#: Three 60-job seed-0 soaks, their report digests, and bounds on the
#: schedules and lowerings they make: each job's one prepared graph
#: schedules once per schedule key, so replicas of equal configuration
#: (here every U280 and U50) and repeated re-plans share one plan.
PINNED_SOAKS = {
    "default-pool": (
        FleetSoakConfig(seed=0, jobs=60),
        "73ed97cd976d3458d3af9197c8348ebac2d3a93a5c66f95eec3b2f242f23371e",
        119, 109,
    ),
    "serving-pool": (
        FleetSoakConfig(seed=0, jobs=60, replicas=("U280", "U50")),
        "97b19660f80376cc882b397965c055efa9156ff882064a47bc006d897a78148b",
        145, 109,
    ),
    "four-replicas-two-kills": (
        FleetSoakConfig(
            seed=0, jobs=60, replicas=("U280", "U280", "U50", "U50"),
            random_kills=2,
        ),
        "aeded21e7a8f43e2fa2a5a0fdd3d26fba10e6d78e3926e303b9cca54e00f6a8e",
        114, 104,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOAKS))
def test_pinned_soak_digest_and_schedule_counts(name, monkeypatch):
    import repro.compiled.evaluate as evaluate
    import repro.core.framework as framework

    config, digest, max_schedules, max_lowerings = PINNED_SOAKS[name]
    calls = {"build_schedule": 0, "compile_plan": 0}
    for module, attr in (
        (framework, "build_schedule"), (evaluate, "compile_plan")
    ):
        original = getattr(module, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    assert run_fleet_soak(config).report.digest() == digest
    assert calls["build_schedule"] <= max_schedules
    assert calls["compile_plan"] <= max_lowerings
