"""Tests for the parallel execution layer (repro.perf).

The contract under test: ``parallel_map`` preserves submission order
and task-exception semantics, falls back to the serial loop on pool
infrastructure failures, and every parallelized subsystem — chaos
campaigns, model sweeps, fleet soaks — produces *bit-identical* reports
with ``workers > 1`` as with the plain serial loop.
"""

import pytest

from repro.errors import UserInputError
from repro.perf import PerfConfig, parallel_map

#: Enough to exercise the pool without slowing the tier-1 suite.
WORKERS = 2


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("task failure, not pool failure")
    return x


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_single_item_stays_serial(self):
        # Even with workers requested, one item never pays fork latency.
        assert parallel_map(lambda x: x + 1, [41], workers=4) == [42]

    def test_parallel_preserves_submission_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=WORKERS) == [
            _square(i) for i in items
        ]

    def test_unpicklable_fn_falls_back_to_serial(self):
        # A lambda cannot cross the process boundary; the pool failure
        # degrades to the serial loop with identical results.
        assert parallel_map(lambda x: x * 2, [1, 2, 3], workers=WORKERS) == [
            2, 4, 6
        ]

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="task failure"):
            parallel_map(_raise_on_three, [1, 2, 3, 4], workers=WORKERS)
        with pytest.raises(ValueError, match="task failure"):
            parallel_map(_raise_on_three, [1, 2, 3, 4], workers=1)


class TestPerfConfig:
    def test_defaults(self):
        perf = PerfConfig()
        assert perf.workers == 1
        assert not perf.parallel
        assert PerfConfig(workers=4).parallel

    def test_validation(self):
        with pytest.raises(UserInputError):
            PerfConfig(workers=0)


class TestParallelEquivalence:
    """Parallel runs must merge into byte-identical reports."""

    def test_chaos_campaign_parallel_matches_serial(self):
        from repro.chaos import CampaignConfig, run_campaign

        config = CampaignConfig(seed=9, cells=4, max_iterations=15)
        serial = run_campaign(config, shrink_failures=False)
        parallel = run_campaign(
            config, shrink_failures=False,
            perf=PerfConfig(workers=WORKERS),
        )
        assert parallel.to_dict() == serial.to_dict()

    def test_model_sweep_parallel_matches_serial(self):
        from repro.arch.config import PipelineConfig
        from repro.graph.generators import rmat_graph
        from repro.model.sweep import sweep_parameter

        graph = rmat_graph(10, 8, seed=2)
        config = PipelineConfig(gather_buffer_vertices=256)
        serial = sweep_parameter(graph, config, "n_gpe", [2, 4, 8, 16])
        parallel = sweep_parameter(
            graph, config, "n_gpe", [2, 4, 8, 16],
            perf=PerfConfig(workers=WORKERS),
        )
        assert parallel == serial

    def test_fleet_soak_parallel_matches_serial(self):
        from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak

        config = FleetSoakConfig(seed=13, jobs=6, replicas=("U280", "U50"))
        serial = run_fleet_soak(config)
        parallel = run_fleet_soak(config, perf=PerfConfig(workers=WORKERS))
        assert parallel.report.digest() == serial.report.digest()
        # The perf stats ride beside the report, never inside it.
        assert parallel.perf["workers"] == WORKERS
        assert parallel.perf["prewarmed_specs"] >= 0
        assert "perf" not in parallel.report.to_dict()

    def test_prewarmed_soak_compiles_no_plan_in_the_parent(
        self, monkeypatch
    ):
        # Prewarm workers compile each spec's plan; the engine pickles
        # back on pre.plan, so the parent's event loop compiles nothing.
        from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak
        from repro.compiled import compiled_stats
        from repro.fleet.runtime import FleetRuntime

        compiled_in_loop = []
        original = FleetRuntime.run

        def counted_run(self, *args, **kwargs):
            before = compiled_stats()["plans_compiled"]
            report = original(self, *args, **kwargs)
            compiled_in_loop.append(
                compiled_stats()["plans_compiled"] - before
            )
            return report

        monkeypatch.setattr(FleetRuntime, "run", counted_run)
        config = FleetSoakConfig(seed=13, jobs=6, replicas=("U280", "U50"))
        serial = run_fleet_soak(config)
        parallel = run_fleet_soak(config, perf=PerfConfig(workers=WORKERS))
        assert parallel.report.digest() == serial.report.digest()
        assert parallel.perf["prewarmed_specs"] > 0
        assert compiled_in_loop[0] > 0
        assert compiled_in_loop[1] == 0

    def test_fleet_soak_json_roundtrip_keeps_perf(self):
        from repro.chaos.fleet_soak import (
            FleetSoakConfig,
            FleetSoakResult,
            run_fleet_soak,
        )

        config = FleetSoakConfig(seed=13, jobs=4, replicas=("U280",))
        result = run_fleet_soak(config, perf=PerfConfig(workers=1))
        data = result.to_dict()
        back = FleetSoakResult.from_dict(data)
        assert back.perf == result.perf
        assert back.report.digest() == result.report.digest()
