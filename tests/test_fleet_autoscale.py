"""Autoscaling: policy, hysteresis, and digest purity.

The load-bearing property: the autoscaler changes *capacity*, never
*answers* — a soak served by an autoscaled pool produces bit-identical
per-job result digests to the same soak on a fixed pool.  Around that:
hysteresis (one bad observation never scales), cooldown (no thrash
after an action), and scale-down drains retire instead of entering the
quarantine/canary loop.
"""

import pytest

from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak
from repro.errors import UserInputError
from repro.fleet import RETIRED, SERVING
from repro.fleet.admission import AdmissionStats
from repro.fleet.autoscale import (
    SCALE_DOWN,
    SCALE_UP,
    AutoscalePolicy,
    Autoscaler,
)

#: Trigger-happy policy: every knob at its most reactive, so short unit
#: scenarios can exercise both directions.
EAGER = AutoscalePolicy(
    min_replicas=1, max_replicas=4, queue_depth_per_replica=1.0,
    breach_streak=1, idle_streak=1, cooldown_seconds=0.0,
)


def _stats(submitted=0, shed=0):
    return AdmissionStats(submitted=submitted, shed_queue_depth=shed)


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"min_replicas": 0},
        {"min_replicas": 3, "max_replicas": 2},
        {"queue_depth_per_replica": 0.0},
        {"shed_rate_trigger": 1.5},
        {"p99_latency_target_seconds": -1.0},
        {"breach_streak": 0},
        {"idle_streak": 0},
        {"cooldown_seconds": -0.1},
        {"latency_window": 0},
    ])
    def test_bad_knobs_raise_typed_errors(self, kwargs):
        with pytest.raises(UserInputError):
            AutoscalePolicy(**kwargs)


class TestDecisionEngine:
    def test_hysteresis_needs_consecutive_breaches(self):
        scaler = Autoscaler(AutoscalePolicy(
            breach_streak=2, cooldown_seconds=0.0,
            queue_depth_per_replica=1.0,
        ))
        assert scaler.observe(0.0, 9, 1, 1, _stats(1)) is None
        # An intervening healthy observation resets the streak.
        assert scaler.observe(0.1, 0, 1, 1, _stats(2)) is None
        assert scaler.observe(0.2, 9, 1, 1, _stats(3)) is None
        assert scaler.observe(0.3, 9, 1, 1, _stats(4)) == SCALE_UP

    def test_cooldown_blocks_back_to_back_actions(self):
        scaler = Autoscaler(AutoscalePolicy(
            breach_streak=1, cooldown_seconds=1.0,
            queue_depth_per_replica=1.0,
        ))
        assert scaler.observe(0.0, 9, 1, 1, _stats(1)) == SCALE_UP
        scaler.note_spawned("as1", 0.0)
        # Still breached, but inside the cooldown window: hold.
        assert scaler.observe(0.5, 9, 2, 2, _stats(2)) is None
        assert scaler.observe(1.5, 9, 2, 2, _stats(3)) == SCALE_UP

    def test_shed_rate_breaches_even_with_shallow_queue(self):
        scaler = Autoscaler(AutoscalePolicy(
            breach_streak=1, cooldown_seconds=0.0,
            shed_rate_trigger=0.1,
        ))
        assert scaler.observe(
            0.0, 0, 1, 1, _stats(submitted=10, shed=5)
        ) == SCALE_UP

    def test_p99_latency_breaches_when_targeted(self):
        scaler = Autoscaler(AutoscalePolicy(
            breach_streak=1, cooldown_seconds=0.0,
            p99_latency_target_seconds=0.01,
        ))
        scaler.record_latency(0.5)
        assert scaler.observe(0.0, 0, 1, 1, _stats(1)) == SCALE_UP

    def test_scale_down_waits_for_idle_streak_and_floor(self):
        scaler = Autoscaler(AutoscalePolicy(
            min_replicas=1, idle_streak=2, cooldown_seconds=0.0,
        ))
        assert scaler.observe(0.0, 0, 2, 2, _stats()) is None
        assert scaler.observe(0.1, 0, 2, 2, _stats()) == SCALE_DOWN
        scaler.begin_scale_down("as1", 0.1)
        # At the floor: idle forever never shrinks below min_replicas.
        assert scaler.observe(0.2, 0, 1, 1, _stats()) is None
        assert scaler.observe(0.3, 0, 1, 1, _stats()) is None

    def test_max_replicas_caps_growth(self):
        scaler = Autoscaler(AutoscalePolicy(
            max_replicas=2, breach_streak=1, cooldown_seconds=0.0,
            queue_depth_per_replica=1.0,
        ))
        assert scaler.observe(0.0, 9, 2, 2, _stats(1)) is None

    def test_spawn_ids_avoid_collisions(self):
        scaler = Autoscaler(EAGER)
        assert scaler.next_replica_id(["r0", "as1"]) == "as2"
        assert scaler.next_replica_id(["r0"]) == "as3"


#: Single-replica soak under load: enough jobs to breach an eager
#: queue-depth trigger, then go idle and shrink back.
SOAK = FleetSoakConfig(
    seed=7, jobs=24, replicas=("U50",), intensity="light",
    max_iterations=8,
)


@pytest.fixture(scope="module")
def autoscaled():
    return run_fleet_soak(SOAK, autoscale=EAGER)


class TestSoakIntegration:
    def test_pool_actually_scaled(self, autoscaled):
        stats = autoscaled.autoscale
        assert stats["spawned"] >= 1
        actions = [d["action"] for d in stats["decisions"]]
        assert SCALE_UP in actions

    def test_scale_down_retires_instead_of_canarying(self, autoscaled):
        stats = autoscaled.autoscale
        downs = [
            d["replica_id"] for d in stats["decisions"]
            if d["action"] == SCALE_DOWN
        ]
        if not downs:
            pytest.skip("this stream never went idle long enough")
        by_id = {r["replica_id"]: r for r in autoscaled.report.replicas}
        for replica_id in downs:
            replica = by_id[replica_id]
            assert replica["state"] == RETIRED
            assert "scale-down" in (replica["retired_reason"] or "")

    def test_spawned_replicas_did_real_work(self, autoscaled):
        spawned = [
            r for r in autoscaled.report.replicas
            if r["replica_id"].startswith("as")
        ]
        assert spawned
        assert any(r["jobs_completed"] > 0 for r in spawned)

    def test_zero_jobs_lost_under_autoscaling(self, autoscaled):
        report = autoscaled.report
        assert report.lost == 0
        assert report.admitted == report.completed + report.failed

    def test_digest_purity_against_fixed_pool(self, autoscaled):
        """Capacity changes, answers don't: per-job result digests are
        bit-identical to the same stream on a never-scaled pool."""
        fixed = run_fleet_soak(SOAK)
        scaled_digests = {
            j.job_id: j.result_digest
            for j in autoscaled.report.jobs if j.status == "completed"
        }
        fixed_digests = {
            j.job_id: j.result_digest
            for j in fixed.report.jobs if j.status == "completed"
        }
        shared = set(scaled_digests) & set(fixed_digests)
        assert shared
        for job_id in shared:
            assert scaled_digests[job_id] == fixed_digests[job_id]

    def test_autoscale_stats_stay_out_of_the_digest(self, autoscaled):
        data = autoscaled.to_dict()
        assert "autoscale" in data
        assert "autoscale" not in data["report"]

    def test_min_replicas_floor_never_violated(self, autoscaled):
        serving_or_better = [
            r for r in autoscaled.report.replicas
            if r["state"] in (SERVING, RETIRED)
        ]
        assert serving_or_better  # the pool always has capacity left
