"""Tests for the OpenCL-style host runtime emulation."""

import numpy as np
import pytest

from repro.apps.reference import bfs_reference
from repro.arch.config import PipelineConfig
from repro.errors import DeviceOutOfMemoryError
from repro.hbm.capacity import CHANNEL_CAPACITY_BYTES
from repro.runtime.host import (
    PROGRAMMING_SECONDS,
    AcceleratorHandle,
    init_accelerator,
    list_devices,
)


@pytest.fixture()
def handle():
    return init_accelerator(
        "U280",
        pipeline=PipelineConfig(gather_buffer_vertices=512),
        num_pipelines=4,
    )


class TestDiscovery:
    def test_lists_both_cards(self):
        assert list_devices() == ["U280", "U50"]

    def test_init_returns_programmed_handle(self, handle):
        assert isinstance(handle, AcceleratorHandle)
        assert handle.programmed
        assert handle.platform.name == "Alveo U280"


class TestBuffers:
    def test_allocate_within_capacity(self, handle):
        buffer = handle.allocate("x", 1024, channels=[0, 1])
        assert buffer.per_channel_bytes == 512
        assert "x" in handle.buffers

    def test_allocate_over_capacity_raises(self, handle):
        with pytest.raises(MemoryError):
            handle.allocate("big", 2 * CHANNEL_CAPACITY_BYTES, channels=[0])

    def test_oversize_graph_refused_before_preprocessing(
        self, handle, monkeypatch
    ):
        class OversizeGraph:
            num_vertices = 1000
            num_edges = 10**12
            edge_bytes = 8

        def preprocess(graph):
            raise AssertionError("preprocessed a graph that cannot fit")

        monkeypatch.setattr(handle.framework, "preprocess", preprocess)
        with pytest.raises(DeviceOutOfMemoryError):
            handle.load_graph(OversizeGraph())
        assert handle.buffers == {}

    def test_allocate_after_release_raises(self, handle):
        handle.release()
        with pytest.raises(RuntimeError):
            handle.allocate("x", 64, channels=[0])


class TestExecution:
    def test_load_then_run_bfs(self, handle, small_rmat):
        handle.load_graph(small_rmat)
        run = handle.execute("bfs", root=0)
        np.testing.assert_array_equal(
            run.props, bfs_reference(small_rmat, 0)
        )

    def test_pagerank_runs(self, handle, small_rmat):
        handle.load_graph(small_rmat)
        run = handle.execute("pagerank", max_iterations=3)
        assert run.iterations <= 3
        assert run.mteps > 0

    def test_execute_without_graph_raises(self, handle):
        with pytest.raises(RuntimeError, match="load_graph"):
            handle.execute("bfs")

    def test_unknown_app_raises(self, handle, small_rmat):
        handle.load_graph(small_rmat)
        with pytest.raises(ValueError, match="unknown app"):
            handle.execute("quantum")

    def test_migration_time_charged(self, handle, small_rmat):
        handle.load_graph(small_rmat)
        assert handle.migration_seconds > 0

    def test_offload_accounting(self, handle, small_rmat):
        handle.load_graph(small_rmat)
        run = handle.execute("bfs")
        total = handle.total_offload_seconds(run)
        assert total >= PROGRAMMING_SECONDS + run.total_seconds

    def test_release_clears_state(self, handle, small_rmat):
        handle.load_graph(small_rmat)
        handle.release()
        with pytest.raises(RuntimeError):
            handle.load_graph(small_rmat)


class TestPersistentBreakers:
    """The handle's circuit-breaker bank outlives individual executes:
    a channel blacklisted in one run stays blacklisted in the next."""

    def test_first_execute_creates_the_bank(self, handle, small_rmat):
        # Every execute runs in the resilient executor, so a fault-free
        # one creates the bank too: all of the topology's breakers closed.
        handle.load_graph(small_rmat)
        assert handle.breakers is None
        run = handle.execute("pagerank", max_iterations=2)
        bank = handle.breakers
        assert bank is not None
        assert handle.last_health is run.health
        assert handle.breaker_snapshot() == run.health.channel_breakers
        assert len(run.health.channel_breakers) == (
            2 * run.final_plan.accelerator.total_pipelines
        )
        assert handle.open_breaker_count() == 0
        handle.execute("bfs", max_iterations=2)
        assert handle.breakers is bank

    def test_bank_persists_across_executes(self, handle, small_rmat):
        from repro.faults import DeadChannelFault, FaultPlan

        handle.load_graph(small_rmat)
        plan = FaultPlan(dead_channels=(
            DeadChannelFault(channel=0, onset_cycle=2000.0),
        ))
        first = handle.execute("pagerank", max_iterations=10,
                               fault_plan=plan)
        bank = handle.breakers
        assert bank is not None
        assert first.health.breaker_trips == 1
        assert first.health.channel_breakers["0"]["state"] == "open"

        # Same handle, fresh run, *empty* fault plan: the open breaker
        # degrades channel 0's pipeline at run start, before any fault.
        second = handle.execute("pagerank", max_iterations=10,
                                fault_plan=FaultPlan())
        assert handle.breakers is bank
        assert second.health.replans >= 1
        assert any(
            f.category == "breaker-open" for f in second.health.faults
        )
        assert second.health.channel_breakers["0"]["state"] == "open"

    def test_release_drops_the_bank(self, handle, small_rmat):
        from repro.faults import DeadChannelFault, FaultPlan

        handle.load_graph(small_rmat)
        handle.execute("pagerank", max_iterations=5, fault_plan=FaultPlan(
            dead_channels=(DeadChannelFault(channel=0),)
        ))
        assert handle.breakers is not None
        handle.release()
        assert handle.breakers is None


class TestHostTimingConfig:
    def test_defaults_match_module_constants(self):
        from repro.runtime.host import (
            PCIE_BYTES_PER_SECOND,
            HostTimingConfig,
        )

        timing = HostTimingConfig()
        assert timing.programming_seconds == PROGRAMMING_SECONDS
        assert timing.pcie_bytes_per_second == PCIE_BYTES_PER_SECOND

    def test_instant_profile(self):
        from repro.runtime.host import HostTimingConfig

        timing = HostTimingConfig.instant()
        assert timing.programming_seconds == 0.0
        assert timing.pcie_bytes_per_second == float("inf")

    def test_round_trip(self):
        from repro.runtime.host import HostTimingConfig

        timing = HostTimingConfig(
            programming_seconds=1.0, pcie_bytes_per_second=1e9
        )
        assert HostTimingConfig.from_dict(timing.to_dict()) == timing

    def test_validation(self):
        from repro.errors import UserInputError
        from repro.runtime.host import HostTimingConfig

        with pytest.raises(UserInputError):
            HostTimingConfig(programming_seconds=-1.0)
        with pytest.raises(UserInputError):
            HostTimingConfig(pcie_bytes_per_second=0.0)

    def test_instance_knobs_drive_migration(self, small_rmat):
        """Per-handle timing replaces the old module-constant lookup:
        two handles with different PCIe rates charge different times."""
        from repro.runtime.host import HostTimingConfig

        slow = init_accelerator(
            "U280", timing=HostTimingConfig(pcie_bytes_per_second=1e9)
        )
        fast = init_accelerator(
            "U280", timing=HostTimingConfig(pcie_bytes_per_second=4e9)
        )
        slow.load_graph(small_rmat)
        fast.load_graph(small_rmat)
        assert slow.migration_seconds == pytest.approx(
            4 * fast.migration_seconds
        )

    def test_instance_knobs_drive_offload(self, small_rmat):
        from repro.runtime.host import HostTimingConfig

        handle = init_accelerator(
            "U280", timing=HostTimingConfig(programming_seconds=10.0)
        )
        handle.load_graph(small_rmat)
        run = handle.execute("pagerank", max_iterations=1)
        assert handle.total_offload_seconds(run) >= 10.0

    def test_instant_timing_charges_nothing(self, small_rmat):
        from repro.runtime.host import HostTimingConfig

        handle = init_accelerator(
            "U280", timing=HostTimingConfig.instant()
        )
        handle.load_graph(small_rmat)
        assert handle.migration_seconds == 0.0


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        from repro.runtime.host import VirtualClock

        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance(1.5)
        assert clock.now == 1.5
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_never_goes_backwards(self):
        from repro.runtime.host import VirtualClock

        clock = VirtualClock()
        clock.advance_to(2.0)
        clock.advance_to(1.0)  # ignored, monotone
        assert clock.now == 2.0

    def test_rejects_bad_inputs(self):
        from repro.errors import UserInputError
        from repro.runtime.host import VirtualClock

        with pytest.raises(UserInputError):
            VirtualClock().advance(-1.0)
        with pytest.raises(UserInputError):
            VirtualClock().advance_to(float("nan"))


class TestDeviceValidation:
    def test_unknown_device_is_typed_and_lists_names(self):
        from repro.errors import UserInputError

        with pytest.raises(UserInputError) as err:
            init_accelerator("U9000")
        message = str(err.value)
        assert "U9000" in message
        for name in list_devices():
            assert name in message


class TestFleetHooks:
    def test_drain_blocks_and_resume_unblocks(self, handle, small_rmat):
        from repro.errors import AcceleratorDrainingError

        handle.load_graph(small_rmat)
        handle.drain()
        assert handle.draining
        with pytest.raises(AcceleratorDrainingError):
            handle.execute("pagerank", max_iterations=1)
        with pytest.raises(AcceleratorDrainingError):
            handle.load_graph(small_rmat)
        handle.resume()
        assert handle.execute("pagerank", max_iterations=1).iterations == 1

    def test_release_clears_drain_and_health(self, handle, small_rmat):
        from repro.faults import FaultPlan

        handle.load_graph(small_rmat)
        handle.execute("pagerank", max_iterations=2,
                       fault_plan=FaultPlan())
        handle.drain()
        handle.release()
        assert not handle.draining
        assert handle.last_health is None

    def test_health_snapshot_recorded(self, handle, small_rmat):
        from repro.faults import FaultPlan

        handle.load_graph(small_rmat)
        assert handle.last_health is None
        handle.execute("pagerank", max_iterations=2, fault_plan=FaultPlan())
        assert handle.last_health is not None
        assert handle.open_breaker_count() == 0

    def test_breaker_count_reflects_open_channels(self, handle, small_rmat):
        from repro.faults import DeadChannelFault, FaultPlan

        handle.load_graph(small_rmat)
        handle.execute("pagerank", max_iterations=5, fault_plan=FaultPlan(
            dead_channels=(DeadChannelFault(channel=0),)
        ))
        assert handle.open_breaker_count() == 1
        assert handle.breaker_snapshot()["0"]["state"] == "open"

    def test_hbm_accounting(self, handle, small_rmat):
        assert handle.hbm_bytes_used() == 0
        total = handle.hbm_bytes_total()
        assert total == 32 * CHANNEL_CAPACITY_BYTES
        handle.load_graph(small_rmat)
        used = handle.hbm_bytes_used()
        assert 0 < used < total
        assert handle.hbm_bytes_free() == total - used
