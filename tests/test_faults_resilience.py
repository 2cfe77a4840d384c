"""Fault-injection framework and resilient runtime: unit tests.

Integration-level fault scenarios (dead channel mid-run, degradation
correctness against the NumPy references) live in
``test_integration_u50_robustness.py``; this module covers the building
blocks — fault plans, checkpoints, watchdog/backoff arithmetic, the
error hierarchy, zero-fault parity and seed determinism — plus the
``faultsim`` CLI surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import PipelineConfig
from repro.cli import main
from repro.core.framework import ReGraph
from repro.errors import (
    AcceleratorReleasedError,
    ChannelFaultError,
    DataCorruptionError,
    DeviceOutOfMemoryError,
    FaultInjectedError,
    PipelineStallError,
    ReproError,
    ResilienceExhaustedError,
    UserInputError,
    WatchdogTimeoutError,
)
from repro.faults import (
    BitFlipFault,
    CheckpointStore,
    CircuitBreakerBank,
    DeadChannelFault,
    FaultInjector,
    FaultPlan,
    LatencySpikeFault,
    PipelineStallFault,
    ResiliencePolicy,
)
from repro.graph.generators import rmat_graph

from tests.helpers import make_framework


@pytest.fixture(scope="module")
def framework():
    return ReGraph(
        "U50",
        pipeline=PipelineConfig(gather_buffer_vertices=256),
        num_pipelines=6,
    )


@pytest.fixture(scope="module")
def pre(framework, small_powerlaw):
    return framework.preprocess(small_powerlaw)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_by_default(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(
            bit_flips=(BitFlipFault(probability=0.1),)
        ).is_empty

    def test_dict_round_trip(self):
        plan = FaultPlan(
            seed=42,
            dead_channels=(DeadChannelFault(channel=3, onset_cycle=10.0),),
            latency_spikes=(LatencySpikeFault(
                channel=1, onset_cycle=5.0,
                duration_cycles=99.0, multiplier=4.0,
            ),),
            bit_flips=(BitFlipFault(probability=0.25, detectable=False),),
            stalls=(PipelineStallFault(probability=0.5, pipeline=2),),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_defaults(self):
        assert FaultPlan.from_dict({}) == FaultPlan()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DeadChannelFault(channel=-1),
            lambda: DeadChannelFault(channel=0, onset_cycle=-1.0),
            lambda: DeadChannelFault(channel=0, onset_cycle=float("nan")),
            lambda: DeadChannelFault(channel=0, onset_cycle=float("inf")),
            lambda: LatencySpikeFault(channel=-2),
            lambda: LatencySpikeFault(channel=0, onset_cycle=-3.0),
            lambda: LatencySpikeFault(channel=0, duration_cycles=0.0),
            lambda: LatencySpikeFault(
                channel=0, duration_cycles=float("nan")
            ),
            lambda: LatencySpikeFault(channel=0, multiplier=float("nan")),
            lambda: LatencySpikeFault(channel=0, multiplier=float("inf")),
            lambda: LatencySpikeFault(channel=0, multiplier=0.5),
            lambda: BitFlipFault(probability=-0.1),
            lambda: BitFlipFault(probability=1.5),
            lambda: BitFlipFault(probability=float("nan")),
            lambda: PipelineStallFault(probability=2.0),
            lambda: PipelineStallFault(probability=float("nan")),
            lambda: PipelineStallFault(probability=0.1, pipeline=-1),
            lambda: DeadChannelFault(channel=0, onset_cycle="abc"),
            lambda: LatencySpikeFault(channel=0, onset_cycle=float("nan")),
            lambda: LatencySpikeFault(channel=0, onset_cycle=float("inf")),
            lambda: LatencySpikeFault(channel=0, onset_cycle="abc"),
            lambda: BitFlipFault(probability=0.5, onset_cycle=-1.0),
            lambda: BitFlipFault(probability=0.5, onset_cycle=float("nan")),
            lambda: BitFlipFault(probability=0.5, onset_cycle=float("inf")),
            lambda: BitFlipFault(probability=0.5, onset_cycle="abc"),
            lambda: PipelineStallFault(probability=0.5, onset_cycle=-1.0),
            lambda: PipelineStallFault(
                probability=0.5, onset_cycle=float("nan")
            ),
            lambda: PipelineStallFault(
                probability=0.5, onset_cycle=float("inf")
            ),
            lambda: PipelineStallFault(probability=0.5, onset_cycle="abc"),
        ],
    )
    def test_out_of_range_fault_models_rejected(self, build):
        # Each of these used to construct fine and then inject nothing.
        with pytest.raises(UserInputError):
            build()

    def test_boundary_fault_models_accepted(self):
        DeadChannelFault(channel=0, onset_cycle=0.0)
        LatencySpikeFault(
            channel=0, duration_cycles=float("inf"), multiplier=1.0
        )
        BitFlipFault(probability=0.0)
        BitFlipFault(probability=1.0)
        PipelineStallFault(probability=1.0, pipeline=0)
        PipelineStallFault(probability=0.0, pipeline=None)

    def test_bad_fault_model_in_a_plan_dict_rejected(self):
        with pytest.raises(UserInputError):
            FaultPlan.from_dict({"latency_spikes": [
                {"channel": 0, "multiplier": float("nan")}
            ]})


# ----------------------------------------------------------------------
# Error hierarchy
# ----------------------------------------------------------------------
class TestErrorHierarchy:
    def test_fault_errors_are_repro_errors(self):
        for cls in (ChannelFaultError, PipelineStallError,
                    DataCorruptionError, WatchdogTimeoutError):
            assert issubclass(cls, FaultInjectedError)
            assert issubclass(cls, ReproError)

    def test_builtin_bases_preserved(self):
        # Callers that guarded with builtin exception types keep working.
        assert issubclass(AcceleratorReleasedError, RuntimeError)
        assert issubclass(DeviceOutOfMemoryError, MemoryError)
        assert issubclass(UserInputError, ValueError)

    def test_categories(self):
        assert ChannelFaultError(0, ("little", 0)).category == "dead-channel"
        assert DataCorruptionError("x").category == "bit-flip"
        assert PipelineStallError("x").category == "pipeline-stall"
        err = WatchdogTimeoutError(200.0, 100.0, victim=("big", 0))
        assert err.category == "watchdog-timeout"
        assert err.measured_cycles == 200.0 and err.victim == ("big", 0)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_save_restore_round_trip(self):
        store = CheckpointStore(keep=2)
        props = np.arange(8, dtype=np.float64)
        store.save(3, props, 123.0)
        props[:] = -1.0  # the snapshot must be an independent copy
        cp = store.restore()
        assert cp.iteration == 3 and cp.total_cycles == 123.0
        np.testing.assert_array_equal(cp.props, np.arange(8))
        assert store.saves == 1 and store.restores == 1

    def test_keeps_only_recent(self):
        store = CheckpointStore(keep=2)
        for i in range(5):
            store.save(i, np.full(2, float(i)), float(i))
        assert store.latest().iteration == 4
        assert len(store._stack) == 2

    def test_restore_empty_raises(self):
        with pytest.raises(ResilienceExhaustedError):
            CheckpointStore().restore()

    def test_keep_bounds_memory_for_any_keep(self):
        for keep in (1, 3):
            store = CheckpointStore(keep=keep)
            for i in range(10):
                store.save(i, np.array([float(i)]), float(i))
            assert len(store._stack) == keep
            # Pruning drops the oldest, never the newest.
            assert store.latest().iteration == 9
            assert store._stack[0].iteration == 10 - keep

    def test_restore_empty_message_names_the_problem(self):
        with pytest.raises(ResilienceExhaustedError, match="checkpoint"):
            CheckpointStore().restore()


# ----------------------------------------------------------------------
# Policy arithmetic
# ----------------------------------------------------------------------
class TestResiliencePolicy:
    def test_backoff_grows_exponentially(self):
        policy = ResiliencePolicy(
            backoff_base_cycles=100.0, backoff_factor=2.0
        )
        assert policy.backoff_cycles(1) == 100.0
        assert policy.backoff_cycles(2) == 200.0
        assert policy.backoff_cycles(3) == 400.0

    def test_watchdog_budget_floor(self):
        policy = ResiliencePolicy(
            watchdog_slack=4.0, watchdog_floor_cycles=1000.0
        )
        assert policy.watchdog_budget(500.0) == 3000.0
        assert policy.watchdog_budget(0.0) == 1000.0

    @pytest.mark.parametrize("kwargs,needle", [
        ({"max_retries": -1}, "max_retries"),
        ({"backoff_base_cycles": 0.0}, "backoff_base_cycles"),
        ({"backoff_base_cycles": -5.0}, "backoff_base_cycles"),
        ({"backoff_base_cycles": float("nan")}, "backoff_base_cycles"),
        ({"backoff_factor": 0.5}, "backoff_factor"),
        ({"backoff_factor": float("inf")}, "backoff_factor"),
        ({"watchdog_slack": 0.0}, "watchdog_slack"),
        ({"watchdog_slack": float("nan")}, "watchdog_slack"),
        ({"watchdog_slack": float("inf")}, "watchdog_slack"),
        ({"watchdog_floor_cycles": -1.0}, "watchdog_floor_cycles"),
        ({"checkpoint_interval": 0}, "checkpoint_interval"),
        ({"breaker_threshold": 0}, "breaker_threshold"),
    ])
    def test_invalid_fields_rejected_at_construction(self, kwargs, needle):
        with pytest.raises(UserInputError, match=needle):
            ResiliencePolicy(**kwargs)

    def test_boundary_values_accepted(self):
        # Edges of the valid ranges must construct fine.
        ResiliencePolicy(max_retries=0)
        ResiliencePolicy(backoff_factor=1.0)
        ResiliencePolicy(watchdog_floor_cycles=0.0)
        ResiliencePolicy(checkpoint_interval=1, breaker_threshold=1)

    def test_dict_round_trip(self):
        policy = ResiliencePolicy(
            max_retries=7, backoff_base_cycles=123.0, breaker_threshold=2
        )
        assert ResiliencePolicy.from_dict(policy.to_dict()) == policy


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------
class TestCircuitBreakerBank:
    def test_opens_at_threshold(self):
        bank = CircuitBreakerBank(threshold=3)
        assert not bank.record_failure(4, "pipeline-stall", 10.0)
        assert not bank.record_failure(4, "pipeline-stall", 20.0)
        assert bank.record_failure(4, "pipeline-stall", 30.0)  # 3rd opens
        assert bank.is_open(4)
        assert bank.trips == 1
        # Further failures keep it open without re-tripping.
        assert not bank.record_failure(4, "pipeline-stall", 40.0)
        assert bank.trips == 1

    def test_force_open_skips_the_count(self):
        bank = CircuitBreakerBank(threshold=5)
        assert bank.force_open(2, "dead-channel", 100.0)
        assert bank.is_open(2)
        state = bank.state(2)
        assert state.opened_at_cycle == 100.0
        assert state.last_category == "dead-channel"
        # Idempotent.
        assert not bank.force_open(2, "dead-channel", 200.0)
        assert bank.trips == 1

    def test_retirement_cycle(self):
        bank = CircuitBreakerBank(threshold=1)
        bank.record_failure(0, "pipeline-stall", 1.0)
        assert bank.open_unretired_channels() == [0]
        bank.mark_retired([0, 1])
        assert bank.open_unretired_channels() == []
        # A new run re-applies open breakers to the fresh topology.
        bank.reset_retired()
        assert bank.open_unretired_channels() == [0]

    def test_snapshot_covers_ensured_channels(self):
        bank = CircuitBreakerBank(threshold=2)
        bank.ensure(range(4))
        bank.record_failure(3, "bit-flip", 5.0)
        snap = bank.snapshot()
        assert sorted(snap) == ["0", "1", "2", "3"]
        assert snap["3"]["failures"] == 1
        assert snap["3"]["state"] == "closed"
        assert snap["0"]["state"] == "closed"

    def test_invalid_threshold_rejected(self):
        with pytest.raises(UserInputError):
            CircuitBreakerBank(threshold=0)


#: One breaker event: (channel, category, force) — force models a
#: permanent fault, everything else a counted transient.
_breaker_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["pipeline-stall", "bit-flip", "dead-channel"]),
        st.booleans(),
    ),
    max_size=30,
)


def _apply_events(bank, events, start_cycle=0.0):
    """Drive a bank and record every externally visible decision."""
    decisions = []
    for i, (channel, category, force) in enumerate(events):
        cycle = start_cycle + float(i)
        if force:
            decisions.append(bank.force_open(channel, category, cycle))
        else:
            decisions.append(
                bank.record_failure(channel, category, cycle)
            )
    return decisions


class TestBreakerPersistence:
    """The fleet journal snapshots breaker banks via to_dict; recovery
    rebuilds them via from_dict.  The contract: a restored bank makes
    *identical* decisions to the original on any subsequent stream."""

    def test_dict_round_trip_is_complete(self):
        bank = CircuitBreakerBank(threshold=2)
        bank.record_failure(0, "bit-flip", 1.0)
        bank.record_failure(0, "bit-flip", 2.0)
        bank.force_open(3, "dead-channel", 5.0)
        bank.mark_retired([3])
        restored = CircuitBreakerBank.from_dict(bank.to_dict())
        assert restored.threshold == bank.threshold
        assert restored.trips == bank.trips
        assert restored.open_channels() == bank.open_channels()
        assert restored.open_unretired_channels() == \
            bank.open_unretired_channels()
        assert restored.snapshot() == bank.snapshot()

    def test_round_trip_survives_json(self):
        import json

        bank = CircuitBreakerBank(threshold=3)
        bank.record_failure(1, "pipeline-stall", 7.5)
        data = json.loads(json.dumps(bank.to_dict()))
        assert CircuitBreakerBank.from_dict(data).to_dict() == \
            bank.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(history=_breaker_events, future=_breaker_events)
    def test_restored_bank_decides_identically(self, history, future):
        original = CircuitBreakerBank(threshold=3)
        _apply_events(original, history)
        restored = CircuitBreakerBank.from_dict(original.to_dict())
        assert _apply_events(restored, future, 1000.0) == \
            _apply_events(original, future, 1000.0)
        assert restored.to_dict() == original.to_dict()

    def test_restart_survival(self):
        """A breaker one failure from tripping keeps its count across a
        serialize/restore restart — the next failure opens it, exactly
        as it would have without the restart."""
        before = CircuitBreakerBank(threshold=3)
        before.record_failure(2, "bit-flip", 1.0)
        before.record_failure(2, "bit-flip", 2.0)
        after = CircuitBreakerBank.from_dict(before.to_dict())
        assert not after.is_open(2)
        assert after.record_failure(2, "bit-flip", 3.0)  # trips now
        assert after.open_channels() == [2]


# ----------------------------------------------------------------------
# Injector mechanics
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_channel_to_pipeline_mapping(self):
        inj = FaultInjector(FaultPlan())
        inj.bind_topology(num_little=4, num_big=2)
        assert inj._pipeline_of_channel(0) == ("little", 0)
        assert inj._pipeline_of_channel(7) == ("little", 3)
        assert inj._pipeline_of_channel(8) == ("big", 0)
        assert inj._pipeline_of_channel(11) == ("big", 1)
        assert inj._pipeline_of_channel(12) is None

    def test_dead_channel_raises_on_owner_only(self):
        inj = FaultInjector(FaultPlan(
            dead_channels=(DeadChannelFault(channel=2),)
        ))
        inj.bind_topology(num_little=2, num_big=1)
        inj.enter_pipeline("little", 0)
        inj.on_task("little")  # channel 2 belongs to little1, not little0
        inj.enter_pipeline("little", 1)
        with pytest.raises(ChannelFaultError) as exc:
            inj.on_task("little")
        assert exc.value.victim == ("little", 1)

    def test_retired_channel_stops_faulting(self):
        inj = FaultInjector(FaultPlan(
            dead_channels=(DeadChannelFault(channel=0),)
        ))
        inj.bind_topology(num_little=2, num_big=1)
        inj.retire_pipeline("little", 0)
        inj.bind_topology(num_little=1, num_big=1)
        assert not inj.timing_faults_active()
        inj.enter_pipeline("little", 0)
        inj.on_task("little")  # does not raise

    def test_spike_scales_only_in_window_and_context(self):
        inj = FaultInjector(FaultPlan(latency_spikes=(
            LatencySpikeFault(
                channel=0, onset_cycle=100.0,
                duration_cycles=50.0, multiplier=10.0,
            ),
        )))
        inj.bind_topology(num_little=1, num_big=0)
        inj.enter_pipeline("little", 0)
        inj.now = 120.0
        assert inj.scale_latency(24.0) == 240.0
        inj.now = 200.0  # window expired
        assert inj.scale_latency(24.0) == 24.0
        inj.now = 120.0
        inj.exit_pipeline()  # Apply/Writer context is unscoped
        assert inj.scale_latency(24.0) == 24.0

    def test_overlapping_spikes_take_the_largest_multiplier(self):
        inj = FaultInjector(FaultPlan(latency_spikes=(
            LatencySpikeFault(channel=0, multiplier=3.0),
            LatencySpikeFault(channel=1, multiplier=5.0),
            LatencySpikeFault(channel=2, onset_cycle=0.0, multiplier=2.0),
            LatencySpikeFault(channel=4, onset_cycle=1e9),
        )))
        inj.bind_topology(num_little=1, num_big=1)
        assert inj.latency_scales() == {("little", 0): 5.0, ("big", 0): 2.0}
        inj.enter_pipeline("little", 0)
        assert inj.scale_latency(24.0) == 120.0
        inj.enter_pipeline("big", 0)
        assert inj.scale_latency(24.0) == 48.0

    def test_silent_flip_changes_one_bit(self):
        inj = FaultInjector(FaultPlan(
            seed=5,
            bit_flips=(BitFlipFault(probability=1.0, detectable=False),),
        ))
        buffer = np.zeros(16, dtype=np.float32)
        out = inj.filter_buffer(buffer)
        assert np.all(buffer == 0.0)  # input untouched
        assert np.count_nonzero(
            np.unpackbits(out.view(np.uint8) ^ buffer.view(np.uint8))
        ) == 1

    def test_detectable_flip_raises(self):
        inj = FaultInjector(FaultPlan(
            bit_flips=(BitFlipFault(probability=1.0),)
        ))
        with pytest.raises(DataCorruptionError):
            inj.filter_buffer(np.ones(4))


# ----------------------------------------------------------------------
# Resilient execution through the framework
# ----------------------------------------------------------------------
class TestResilientRuns:
    def test_zero_fault_plan_is_free(self, framework, pre):
        base = framework.run_pagerank(pre, max_iterations=8)
        res = framework.run_pagerank(
            pre, max_iterations=8, fault_plan=FaultPlan()
        )
        assert res.total_cycles == base.total_cycles
        assert res.iterations == base.iterations
        np.testing.assert_array_equal(res.props, base.props)
        assert res.health.fault_count == 0
        assert res.health.overhead_cycles == 0.0

    def test_clean_rerun_after_faulted_run_is_bit_identical(self):
        # A faulted run over the same preprocessed plan must leave
        # nothing behind (compiled memo, channel state) that a later
        # clean run could pick up.
        framework = make_framework()
        pre = framework.preprocess(rmat_graph(11, 8, seed=3))
        clean = framework.run_pagerank(pre, max_iterations=5)
        plan = FaultPlan(
            seed=5,
            latency_spikes=(LatencySpikeFault(
                channel=0, onset_cycle=0.0, duration_cycles=1e12,
                multiplier=4.0,
            ),),
        )
        framework.run_pagerank(
            pre, max_iterations=5, fault_plan=plan,
            resilience=ResiliencePolicy(),
        )
        rerun = framework.run_pagerank(pre, max_iterations=5)
        assert rerun.total_cycles == clean.total_cycles
        assert rerun.iteration_reports == clean.iteration_reports
        np.testing.assert_array_equal(rerun.props, clean.props)

    def test_watchdog_trips_on_latency_spike(self, framework, pre):
        # 4L2B topology: big0 is global pipeline 4 -> channels 8/9.
        plan = FaultPlan(seed=3, latency_spikes=(
            LatencySpikeFault(
                channel=8, duration_cycles=60_000.0, multiplier=50.0,
            ),
        ))
        run = framework.run_pagerank(
            pre, max_iterations=10, fault_plan=plan,
            resilience=ResiliencePolicy(
                watchdog_slack=2.0, watchdog_floor_cycles=100.0
            ),
        )
        health = run.health
        assert health.watchdog_trips >= 1
        assert health.retries >= 1
        assert health.backoff_cycles > 0.0
        # The bounded spike was waited out, not degraded around.
        assert health.replans == 0
        assert run.converged

    def test_unpinned_stall_exhausts_retries(self, framework, pre):
        plan = FaultPlan(seed=2, stalls=(
            PipelineStallFault(probability=1.0),
        ))
        with pytest.raises(ResilienceExhaustedError):
            framework.run_pagerank(
                pre, max_iterations=4, fault_plan=plan,
                resilience=ResiliencePolicy(max_retries=1),
            )

    def test_every_health_report_carries_breaker_state(self, framework, pre):
        # U50 6-pipeline topology: 12 pseudo-channels, all reported even
        # when nothing faulted.
        run = framework.run_pagerank(
            pre, max_iterations=4, fault_plan=FaultPlan()
        )
        breakers = run.health.channel_breakers
        assert sorted(breakers) == sorted(str(c) for c in range(12))
        assert all(s["state"] == "closed" for s in breakers.values())
        assert run.health.breaker_trips == 0

    def test_dead_channel_force_opens_breaker(self, framework, pre):
        plan = FaultPlan(dead_channels=(
            DeadChannelFault(channel=0, onset_cycle=6000.0),
        ))
        run = framework.run_pagerank(pre, max_iterations=20, fault_plan=plan)
        health = run.health
        assert health.breaker_trips == 1
        assert health.channel_breakers["0"]["state"] == "open"
        assert health.channel_breakers["0"]["last_category"] == "dead-channel"
        assert health.channel_breakers["1"]["state"] == "closed"

    def test_breaker_degrades_before_retries_exhaust(self, framework, pre):
        # A persistent pinned stall with a huge retry budget: without
        # breakers the executor would retry forever-ish; the breaker
        # opens after 2 failures and degrades the pipeline instead.
        plan = FaultPlan(seed=6, stalls=(
            PipelineStallFault(probability=1.0, pipeline=1),
        ))
        run = framework.run_pagerank(
            pre, max_iterations=6, fault_plan=plan,
            resilience=ResiliencePolicy(
                max_retries=50, breaker_threshold=2
            ),
        )
        health = run.health
        assert health.breaker_trips >= 1
        assert health.replans >= 1
        assert health.retries < 50
        assert any(
            s["state"] == "open" for s in health.channel_breakers.values()
        )
        assert run.converged

    def test_health_report_serialises(self, framework, pre):
        plan = FaultPlan(seed=7, bit_flips=(
            BitFlipFault(probability=0.02),
        ))
        run = framework.run_pagerank(pre, max_iterations=6, fault_plan=plan)
        d = run.health.to_dict()
        assert d["retries"] == run.health.retries
        assert len(d["faults"]) == run.health.fault_count
        assert d["initial_label"] == "4L2B"
        assert d["breaker_trips"] == run.health.breaker_trips
        assert d["channel_breakers"] == run.health.channel_breakers

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.sampled_from([0.0, 0.01, 0.05]),
    )
    @settings(max_examples=10, deadline=None)
    def test_identical_configuration_identical_history(
        self, framework, pre, seed, rate
    ):
        plan = FaultPlan(
            seed=seed,
            bit_flips=(
                (BitFlipFault(probability=rate),) if rate else ()
            ),
            stalls=(PipelineStallFault(probability=rate / 10, pipeline=0),),
        )

        def outcome():
            # A heavy fault rate may deterministically exhaust retries;
            # identical config must then fail identically too.
            try:
                run = framework.run_pagerank(
                    pre, max_iterations=5, fault_plan=plan
                )
            except ResilienceExhaustedError as exc:
                return ("exhausted", str(exc))
            return (run.health.to_dict(), run.total_cycles, run.props)

        first, second = outcome(), outcome()
        assert first[0] == second[0]
        assert first[1] == second[1]
        if len(first) == 3:
            np.testing.assert_array_equal(first[2], second[2])


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestFaultsimCli:
    ARGS = [
        "faultsim", "--dataset", "HD", "--scale", "0.02",
        "--platform", "U50", "--pipelines", "6",
        "--buffer-vertices", "256", "--iterations", "20",
    ]

    def test_faultsim_smoke(self, capsys):
        code = main(self.ARGS + ["--dead-channel", "0",
                                 "--bit-flip-rate", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean run:" in out and "faulted run:" in out
        assert "re-plans" in out and "overhead:" in out
        assert "breaker trips" in out

    def test_faultsim_prints_effective_seeds(self, capsys):
        # --fault-seed defaults to the graph --seed; the printed line is
        # enough to reproduce the invocation.
        code = main(self.ARGS + ["--seed", "9", "--stall-rate", "0.05",
                                 "--stall-pipeline", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seeds: graph=9 fault=9" in out
        assert "--seed 9 --fault-seed 9" in out

    def test_faultsim_explicit_fault_seed_wins(self, capsys):
        code = main(self.ARGS + ["--seed", "9", "--fault-seed", "13",
                                 "--stall-rate", "0.05",
                                 "--stall-pipeline", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seeds: graph=9 fault=13" in out

    def test_faultsim_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            self.ARGS + ["--spike-channel", "3", "--stall-rate", "0.1"]
        )
        assert args.command == "faultsim"
        assert args.spike_channel == 3

    def test_bad_dataset_exits_2(self, capsys):
        assert main(["run", "--dataset", "NO_SUCH_KEY"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[err.index("\n"):]

    def test_unreadable_edge_list_exits_2(self, capsys):
        assert main(["preprocess", "--edge-list", "/no/such/file"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_source_still_systemexit(self):
        # SystemExit from argument validation is not swallowed.
        with pytest.raises(SystemExit):
            main(["faultsim"])
