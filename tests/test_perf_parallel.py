"""Tests for the parallel execution layer (repro.perf).

The contract under test: ``parallel_map`` preserves submission order
and task-exception semantics, falls back to the serial loop on pool
infrastructure failures, and a chaos campaign — the one subsystem that
fans out over it — produces a *bit-identical* report with
``workers > 1`` as with the plain serial loop.
"""

import pytest

from repro.errors import UserInputError
from repro.perf import parallel_map

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


class TestCampaignWorkers:
    def test_validation(self):
        from repro.chaos import CampaignConfig, run_campaign

        with pytest.raises(UserInputError, match="workers must be >= 1"):
            run_campaign(CampaignConfig(cells=1), workers=0)


class TestParallelEquivalence:
    """A parallel campaign must merge into a byte-identical report."""

    def test_chaos_campaign_parallel_matches_serial(self):
        from repro.chaos import CampaignConfig, run_campaign

        config = CampaignConfig(seed=9, cells=4, max_iterations=15)
        serial = run_campaign(config, shrink_failures=False)
        parallel = run_campaign(
            config, shrink_failures=False, workers=WORKERS
        )
        assert parallel.to_dict() == serial.to_dict()

    def test_fleet_soak_json_roundtrip_keeps_perf(self):
        from repro.chaos.fleet_soak import (
            FleetSoakConfig,
            FleetSoakResult,
            run_fleet_soak,
        )

        config = FleetSoakConfig(seed=13, jobs=4, replicas=("U280",))
        result = run_fleet_soak(config)
        # The placement probe counters ride beside the report, never
        # inside it.
        assert set(result.perf) == {"placement"}
        assert "perf" not in result.report.to_dict()
        data = result.to_dict()
        back = FleetSoakResult.from_dict(data)
        assert back.perf == result.perf
        assert back.report.digest() == result.report.digest()
        # Reports written while fleet prewarm existed still load.
        data["perf"] = {"workers": 2, "prewarmed_specs": 3, **result.perf}
        assert FleetSoakResult.from_dict(data).perf["placement"] == (
            result.perf["placement"]
        )
