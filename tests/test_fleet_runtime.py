"""Tests for the fleet serving runtime (admission, placement, failover,
lifecycle, hedging, reporting)."""

import gc
import weakref
from collections import Counter

import pytest

from repro.chaos.spec import CellSpec, GraphSpec
from repro.compiled import (
    compiled_stats,
    functional_engine,
    plan_engine,
    reset_compiled_stats,
)
from repro.errors import (
    AcceleratorDrainingError,
    FleetOverloadError,
    JobFailoverExhaustedError,
    NoServingReplicaError,
    ReplicaCrashError,
    UserInputError,
)
from repro.faults.plan import FaultPlan, PipelineStallFault
from repro.faults.resilience import ResiliencePolicy
from repro.fleet import (
    QUARANTINED,
    RETIRED,
    SERVING,
    AdmissionController,
    FleetPolicy,
    FleetReport,
    FleetRuntime,
    Job,
    JobResult,
    PlacementEngine,
    ReplicaKill,
    TokenBucket,
    make_replica,
)
from repro.fleet.runtime import _QueuedJob


def small_graph(seed=1, weighted=False):
    return GraphSpec(
        kind="uniform", vertices=128, edges=512, seed=seed, weighted=weighted
    )


def oversize_job(job_id="big"):
    """A job no replica's HBM can hold (never build its graph)."""
    return Job(
        job_id=job_id, app="pagerank",
        graph=GraphSpec(
            kind="uniform", vertices=1000, edges=10**12, seed=0
        ),
    )


def make_job(job_id="j0", app="pagerank", seed=1, **kwargs):
    # High enough for BFS/SSSP/closeness to converge — the conformance
    # oracles compare against fully-converged references.
    kwargs.setdefault("max_iterations", 30)
    return Job(
        job_id=job_id, app=app,
        graph=small_graph(seed, weighted=(app == "sssp")), **kwargs
    )


#: A fault plan the resilience layer cannot absorb: every task of every
#: pipeline stalls, so retries and degradation both run out.
UNSURVIVABLE = FaultPlan(stalls=(PipelineStallFault(probability=1.0),))

#: Policy used by the failure-path tests: fail fast, quarantine fast.
FAST_FAIL = dict(
    resilience=ResiliencePolicy(max_retries=0, breaker_threshold=3),
)


def pool3():
    return [
        make_replica("r0", "U280"),
        make_replica("r1", "U50"),
        make_replica("r2", "U280"),
    ]


# ----------------------------------------------------------------------
# Job / JobResult model
# ----------------------------------------------------------------------
class TestJobModel:
    def test_round_trip(self):
        job = make_job(priority=2, deadline_seconds=0.5, submit_time=1.0)
        assert Job.from_dict(job.to_dict()) == job

    def test_unknown_app_rejected(self):
        with pytest.raises(UserInputError, match="app"):
            make_job(app="mincut")

    def test_sssp_requires_weighted_graph(self):
        with pytest.raises(UserInputError, match="weighted"):
            Job(job_id="j", app="sssp", graph=small_graph(weighted=False))

    def test_bad_deadline_rejected(self):
        with pytest.raises(UserInputError, match="deadline"):
            make_job(deadline_seconds=0.0)

    @pytest.mark.parametrize("cap", (0, -3))
    def test_iteration_cap_below_one_rejected(self, cap):
        with pytest.raises(UserInputError, match="max_iterations"):
            make_job(max_iterations=cap)
        with pytest.raises(UserInputError, match="max_iterations"):
            CellSpec(
                cell_id="c", device="U280", app="pagerank",
                graph=small_graph(), max_iterations=cap,
            )
        assert make_job(max_iterations=None).max_iterations is None

    def test_deadline_critical(self):
        assert make_job(deadline_seconds=1.0).deadline_critical
        assert not make_job().deadline_critical

    def test_result_latency_and_deadline(self):
        result = JobResult(
            job_id="j", status="completed", submit_time=1.0,
            finish_time=1.25, deadline_seconds=0.5,
        )
        assert result.latency_seconds == pytest.approx(0.25)
        assert result.deadline_met is True
        assert JobResult.from_dict(result.to_dict()) == result

    def test_best_effort_has_no_deadline_verdict(self):
        result = JobResult(job_id="j", status="completed")
        assert result.deadline_met is None


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_depth_shed_is_typed(self):
        controller = AdmissionController(max_queue_depth=2)
        job = make_job()
        controller.admit(job, queue_depth=1, now=0.0)
        with pytest.raises(FleetOverloadError) as err:
            controller.admit(job, queue_depth=2, now=0.0)
        assert err.value.reason == "queue-depth"
        assert controller.stats.shed_queue_depth == 1

    def test_rate_limit_shed_and_refill(self):
        controller = AdmissionController(
            max_queue_depth=100,
            rate_limit_jobs_per_second=10.0,
            rate_limit_burst=1,
        )
        job = make_job()
        controller.admit(job, queue_depth=0, now=0.0)
        with pytest.raises(FleetOverloadError) as err:
            controller.admit(job, queue_depth=0, now=0.0)
        assert err.value.reason == "rate-limit"
        # A tenth of a virtual second refills exactly one token.
        controller.admit(job, queue_depth=0, now=0.1)
        assert controller.stats.admitted == 2

    def test_token_bucket_caps_at_burst(self):
        bucket = TokenBucket(rate_per_second=100.0, burst=3)
        assert bucket.tokens_at(1e9) == pytest.approx(3.0)

    def test_runtime_records_rejections(self):
        policy = FleetPolicy(max_queue_depth=1)
        jobs = [
            make_job(f"j{i}", seed=i + 1, submit_time=0.0) for i in range(5)
        ]
        report = FleetRuntime([make_replica("r0", "U280")], policy).run(jobs)
        assert report.rejected > 0
        assert report.lost == 0
        rejected = [j for j in report.jobs if j.status == "rejected"]
        assert all(
            j.error_type == "FleetOverloadError" and j.detail
            for j in rejected
        )


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_choose_is_deterministic_and_skips_excluded(self):
        pool = pool3()
        engine = PlacementEngine()
        entry = _QueuedJob(make_job(), 0)
        placing = (entry.job, entry.preprocessed)
        first = engine.choose(pool, *placing, now=0.0)
        assert first is engine.choose(pool, *placing, now=0.0)
        other = engine.choose(
            pool, *placing, now=0.0, exclude=(first.replica_id,)
        )
        assert other is not None and other is not first

    def test_choose_skips_non_serving(self):
        pool = pool3()
        for replica in pool:
            replica.kill()
        engine = PlacementEngine()
        entry = _QueuedJob(make_job(), 0)
        assert engine.choose(
            pool, entry.job, entry.preprocessed, 0.0
        ) is None

    def test_oversized_graph_fits_nowhere(self):
        replica = make_replica("r0", "U280")
        assert PlacementEngine.holds(replica, make_job())
        # A spec whose per-channel edge share exceeds HBM capacity,
        # judged from its counts: nothing is built.
        assert not PlacementEngine.holds(replica, oversize_job())

    def test_executed_size_counts_what_the_app_runs(self):
        # RMAT rounds to its built size, WCC runs twice the edges
        # unweighted, and a weighted edge is 12 bytes.
        rmat = GraphSpec(kind="rmat", vertices=1000, edges=5000, seed=0)
        vertices, edges = rmat.built_size()
        job = Job(job_id="r", app="pagerank", graph=rmat)
        assert job.executed_size() == (vertices, edges, 8)
        wcc = Job(job_id="w", app="wcc", graph=small_graph(weighted=True))
        assert wcc.executed_size() == (128, 1024, 8)
        sssp = make_job("s", app="sssp")
        assert sssp.executed_size() == (128, 512, 12)

    def test_predicted_seconds_positive_and_cached(self):
        # A live job schedules once per schedule key: a same-config
        # sibling and a U50 of equal configuration get the probed
        # replica's plan, each with its own device's resources.  Every
        # result builds on the job's one prepared graph, which the job
        # drops when it finishes.
        engine = PlacementEngine()
        replica = make_replica("r0", "U280")
        entry = _QueuedJob(make_job(), 0)
        pre = entry.preprocessed(replica)
        assert engine.predicted_seconds(replica, entry.job, pre) > 0
        assert entry.preprocessed(make_replica("r1", "U280")).plan is pre.plan
        other = entry.preprocessed(make_replica("r2", "U50"))
        assert other.plan is pre.plan and other.prepared is pre.prepared
        assert other.resources != pre.resources
        prepared = weakref.ref(pre.prepared)
        del pre, other
        entry.finish()
        gc.collect()
        assert entry.done and prepared() is None


class TestOnePreparedGraphPerJob:
    @staticmethod
    def count_graph_work(monkeypatch) -> Counter:
        """Count DBG and partition calls where the framework makes them."""
        import repro.core.framework as framework

        calls = Counter()
        for name in ("degree_based_grouping", "partition_graph"):
            original = getattr(framework, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(framework, name, counted)
        return calls

    def test_a_job_on_a_mixed_pool_relabels_and_partitions_once(
        self, monkeypatch
    ):
        # U280 and U50 with one buffer size: both configurations are
        # probed, and both share the job's one DBG and one partition set.
        calls = self.count_graph_work(monkeypatch)
        runtime = FleetRuntime(
            [make_replica("r0", "U280"), make_replica("r1", "U50")]
        )
        report = runtime.run([make_job()])
        assert report.jobs[0].status == "completed"
        assert calls == {"degree_based_grouping": 1, "partition_graph": 1}

    def test_configurations_share_partitions_and_functional_engine(
        self, monkeypatch
    ):
        calls = self.count_graph_work(monkeypatch)
        reset_compiled_stats()
        entry = _QueuedJob(make_job(), 0)
        u280 = entry.preprocessed(make_replica("r0", "U280"))
        u50 = entry.preprocessed(make_replica("r1", "U50"))
        # Equal configurations on two devices: one plan, one engine.
        assert u280.plan is u50.plan and u280.pset is u50.pset
        assert plan_engine(u50.plan) is plan_engine(u280.plan)
        assert compiled_stats()["plans_compiled"] == 1
        assert functional_engine(u50.plan) is functional_engine(u280.plan)
        assert compiled_stats()["functional_plans"] == 1
        # Another interval is cut and scheduled once more; DBG is still
        # not rerun, and the graph's functional engine is still shared.
        wide = entry.preprocessed(
            make_replica("r2", "U280", buffer_vertices=512)
        )
        assert wide.pset is not u280.pset and wide.plan is not u280.plan
        wide_u50 = entry.preprocessed(
            make_replica("r3", "U50", buffer_vertices=512)
        )
        assert wide_u50.pset is wide.pset and wide_u50.plan is wide.plan
        assert functional_engine(wide.plan) is functional_engine(u280.plan)
        assert calls == {"degree_based_grouping": 1, "partition_graph": 2}

    def test_a_job_on_a_mixed_pool_compiles_one_plan(self):
        # U280 and U50 at one buffer size and pipeline count: both are
        # probed, one runs the job, and all three share one lowering.
        reset_compiled_stats()
        runtime = FleetRuntime(
            [make_replica("r0", "U280"), make_replica("r1", "U50")]
        )
        report = runtime.run([make_job()])
        assert report.jobs[0].status == "completed"
        assert runtime.placement.probe_stats["probes"] >= 2
        assert compiled_stats()["plans_compiled"] == 1


class TestJobOwnedPreprocessing:
    def test_served_jobs_release_their_preprocess_results(
        self, monkeypatch
    ):
        # Each job owns its preprocessing and drops it at its terminal
        # result; only a handle's last-loaded graph may stay alive.
        from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs
        from repro.core.framework import ReGraph
        from repro.serving.config import ServingConfig
        from repro.serving.session import KernelSession

        refs = []
        original = ReGraph.preprocess

        def tracked(self, *args, **kwargs):
            pre = original(self, *args, **kwargs)
            refs.append(weakref.ref(pre))
            return pre

        monkeypatch.setattr(ReGraph, "preprocess", tracked)
        jobs = generate_jobs(
            FleetSoakConfig(jobs=12, seed=7, replicas=("U280", "U50"))
        )
        session = KernelSession(ServingConfig(fsync=False).session_spec())
        session.replay([job.to_dict() for job in jobs])
        replicas = session.runtime.replicas
        assert len(replicas) == 2 and len(refs) >= len(jobs)
        gc.collect()
        alive = [ref() for ref in refs if ref() is not None]
        loaded = [r.handle._pre for r in replicas]
        assert len(alive) <= len(replicas)
        assert all(any(pre is last for last in loaded) for pre in alive)


# ----------------------------------------------------------------------
# The happy path and failover
# ----------------------------------------------------------------------
class TestServing:
    def test_all_jobs_complete_clean(self):
        jobs = [
            make_job(f"j{i}", app=app, seed=i + 1, submit_time=0.0001 * i)
            for i, app in enumerate(
                ["pagerank", "bfs", "wcc", "closeness", "sssp"]
            )
        ]
        report = FleetRuntime(pool3()).run(jobs)
        assert report.completed == len(jobs)
        assert report.lost == 0 and report.unclean == 0
        assert report.passed

    def test_kill_mid_flight_fails_over_to_survivor(self):
        job = make_job(
            "long", seed=3, max_iterations=20,
        )
        runtime = FleetRuntime(pool3())
        report = runtime.run(
            [job],
            kills=[ReplicaKill("r0", 1e-7), ReplicaKill("r1", 2e-7)],
        )
        result = report.jobs[0]
        assert result.status == "completed"
        assert result.replica_id == "r2"
        assert result.attempts >= 2
        assert report.counters["failovers"] >= 1
        kinds = [a.kind for a in report.assignments]
        assert "requeue" in kinds

    def test_pool_wipeout_yields_typed_error(self):
        runtime = FleetRuntime([make_replica("r0", "U280")])
        report = runtime.run(
            [make_job("j0")], kills=[ReplicaKill("r0", 1e-7)]
        )
        result = report.jobs[0]
        assert result.status == "failed"
        assert result.error_type == NoServingReplicaError.__name__
        assert ReplicaCrashError.__name__ in result.detail
        assert report.lost == 0

    def test_unplaceable_spec_fails_without_building(self, monkeypatch):
        built = []
        build = GraphSpec.build

        def guarded_build(spec):
            built.append(spec.edges)
            if spec.edges > 10**9:
                raise AssertionError("built a graph no replica can hold")
            return build(spec)

        monkeypatch.setattr(GraphSpec, "build", guarded_build)
        runtime = FleetRuntime([make_replica("r0", "U50")])
        report = runtime.run([
            oversize_job(),
            make_job("next", submit_time=0.001),
        ])
        results = {r.job_id: r for r in report.jobs}
        big, after = results["big"], results["next"]
        assert big.status == "failed"
        assert big.error_type == NoServingReplicaError.__name__
        assert after.status == "completed"
        assert 10**12 not in built
        assert report.lost == 0

    def test_failover_exhaustion_is_typed(self):
        policy = FleetPolicy(max_attempts=2, **FAST_FAIL)
        runtime = FleetRuntime(pool3(), policy)
        report = runtime.run(
            [make_job("doomed", app="bfs", fault_plan=UNSURVIVABLE)]
        )
        result = report.jobs[0]
        assert result.status == "failed"
        assert result.error_type == JobFailoverExhaustedError.__name__
        assert result.attempts == 2
        # The re-attempt went to a different replica than the first.
        log = report.assignment_log()
        assert len(log) == 2 and log[0][1] != log[1][1]

    def test_priority_orders_dispatch(self):
        # The blocker occupies the only replica, so low and high are
        # both queued when it frees up — high must dispatch first even
        # though low was submitted before it.
        jobs = [
            make_job("blocker", seed=7, submit_time=0.0),
            make_job("low", seed=1, submit_time=0.0, priority=0),
            make_job("high", seed=2, submit_time=0.0, priority=5),
        ]
        report = FleetRuntime([make_replica("r0", "U280")]).run(jobs)
        log = report.assignment_log()
        assert [entry[0] for entry in log] == ["blocker", "high", "low"]

    def test_duplicate_job_ids_rejected(self):
        runtime = FleetRuntime(pool3())
        with pytest.raises(UserInputError, match="duplicate"):
            runtime.run([make_job("dup"), make_job("dup", seed=2)])

    def test_unknown_kill_target_rejected(self):
        runtime = FleetRuntime(pool3())
        with pytest.raises(UserInputError, match="unknown replica"):
            runtime.run([make_job()], kills=[ReplicaKill("r9", 0.0)])


# ----------------------------------------------------------------------
# Replica lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_consecutive_failures_drain_then_canary_repairs(self):
        policy = FleetPolicy(
            failure_threshold=2, max_attempts=1,
            quarantine_cooldown_seconds=0.01, **FAST_FAIL,
        )
        jobs = [
            make_job(f"bad{i}", app="bfs", seed=i + 1,
                     fault_plan=UNSURVIVABLE, submit_time=0.0)
            for i in range(2)
        ] + [make_job("good", seed=9, submit_time=0.05)]
        report = FleetRuntime([make_replica("r0", "U280")], policy).run(jobs)
        statuses = {j.job_id: j.status for j in report.jobs}
        assert statuses["good"] == "completed"
        assert report.counters["canaries"] == 1
        assert report.counters["repairs"] == 1
        assert report.replicas[0]["state"] == SERVING
        assert any(a.kind == "canary" for a in report.assignments)

    def test_drained_handle_refuses_new_work(self):
        replica = make_replica("r0", "U280")
        graph = small_graph().build()
        replica.handle.load_graph(graph)
        replica.handle.drain()
        with pytest.raises(AcceleratorDrainingError):
            replica.handle.execute("pagerank", max_iterations=1)
        with pytest.raises(AcceleratorDrainingError):
            replica.handle.load_graph(graph)
        replica.handle.resume()
        assert replica.handle.execute(
            "pagerank", max_iterations=1
        ).iterations == 1

    def test_begin_drain_with_no_inflight_quarantines(self):
        replica = make_replica("r0", "U280")
        replica.begin_drain(now=1.0)
        assert replica.state == QUARANTINED
        assert replica.quarantined_at == 1.0

    def test_retired_replica_cannot_repair(self):
        replica = make_replica("r0", "U280")
        replica.retire("done")
        with pytest.raises(UserInputError, match="retired"):
            replica.repair()

    def test_success_resets_consecutive_failures(self):
        replica = make_replica("r0", "U280")
        assert not replica.record_failure(threshold=2)
        replica.record_success()
        assert not replica.record_failure(threshold=2)
        assert replica.record_failure(threshold=2)

    def test_kill_retires_and_releases(self):
        replica = make_replica("r0", "U280")
        replica.kill("chaos")
        assert replica.state == RETIRED
        assert replica.killed
        assert not replica.handle.programmed


# ----------------------------------------------------------------------
# Hedged execution
# ----------------------------------------------------------------------
class TestHedging:
    def test_deadline_straggler_is_hedged(self):
        job = make_job(
            "crit", seed=3, max_iterations=20, deadline_seconds=1e-9
        )
        report = FleetRuntime(pool3(), FleetPolicy(hedge_enabled=True)).run(
            [job]
        )
        assert report.counters["hedges"] == 1
        kinds = {a.kind for a in report.assignments}
        assert "hedge" in kinds
        result = report.jobs[0]
        assert result.status == "completed" and result.hedged
        # Both racers carried the same attempt number.
        numbers = {a.attempt for a in report.assignments}
        assert numbers == {1}

    def test_hedge_disabled_by_policy(self):
        job = make_job(
            "crit", seed=3, max_iterations=20, deadline_seconds=1e-9
        )
        report = FleetRuntime(pool3(), FleetPolicy(hedge_enabled=False)).run(
            [job]
        )
        assert report.counters["hedges"] == 0

    def test_no_hedge_for_best_effort_jobs(self):
        report = FleetRuntime(pool3()).run([make_job("plain", seed=4)])
        assert report.counters["hedges"] == 0

    def test_hedge_survives_primary_crash(self):
        # Kill the primary's replica while the duplicate is racing: the
        # job must still complete via the hedge, not fail over again.
        job = make_job(
            "crit", seed=3, max_iterations=20, deadline_seconds=1e-9
        )
        runtime = FleetRuntime(pool3(), FleetPolicy(hedge_enabled=True))
        probe = FleetRuntime(pool3(), FleetPolicy(hedge_enabled=True))
        primary = probe.run([job]).assignments[0].replica_id
        report = runtime.run([job], kills=[ReplicaKill(primary, 1e-7)])
        result = report.jobs[0]
        assert result.status == "completed"
        assert result.replica_id != primary
        assert report.lost == 0


# ----------------------------------------------------------------------
# Reporting and determinism
# ----------------------------------------------------------------------
class TestReporting:
    def _run(self):
        jobs = [
            make_job(f"j{i}", app=app, seed=i + 1, submit_time=0.0002 * i,
                     priority=i % 2)
            for i, app in enumerate(["pagerank", "bfs", "wcc", "closeness"])
        ]
        return FleetRuntime(pool3()).run(
            jobs, kills=[ReplicaKill("r1", 0.0003)]
        )

    def test_report_round_trip_preserves_digest(self):
        report = self._run()
        clone = FleetReport.from_dict(report.to_dict())
        assert clone.digest() == report.digest()
        assert clone.assignment_log() == report.assignment_log()

    def test_identical_runs_are_bit_identical(self):
        first, second = self._run(), self._run()
        assert first.digest() == second.digest()
        assert first.assignment_log() == second.assignment_log()

    def test_summary_counts_are_consistent(self):
        report = self._run()
        summary = report.to_dict()["summary"]
        assert summary["completed"] == report.completed
        assert summary["lost"] == 0
        assert report.admitted == report.completed + report.failed
        assert report.makespan_seconds > 0
        assert report.jobs_per_second > 0

    def test_policy_round_trip(self):
        policy = FleetPolicy(
            max_queue_depth=5, rate_limit_jobs_per_second=7.0,
            watchdog_factor=16.0,
        )
        assert FleetPolicy.from_dict(policy.to_dict()) == policy

    def test_policy_validation(self):
        with pytest.raises(UserInputError):
            FleetPolicy(max_queue_depth=0)
        with pytest.raises(UserInputError):
            FleetPolicy(max_attempts=0)
        with pytest.raises(UserInputError):
            FleetPolicy(watchdog_factor=0.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(UserInputError, match="at least one replica"):
            FleetRuntime([])

    def test_duplicate_replica_ids_rejected(self):
        with pytest.raises(UserInputError, match="duplicate"):
            FleetRuntime(
                [make_replica("r0", "U280"), make_replica("r0", "U50")]
            )
