"""Tests for dynamic scheduling."""

import pytest

from repro.sched.dynamic import (
    _simulate_queue,
    dynamic_makespan,
    static_makespan,
)
from repro.sched.scheduler import build_schedule


@pytest.fixture()
def plan(rmat_partitions, perf_model):
    return build_schedule(rmat_partitions, perf_model, 4)


class TestQueueSimulation:
    def test_single_pipeline_serialises(self):
        sched = _simulate_queue([3.0, 4.0, 5.0], 1, pull_overhead=0.0)
        assert sched.makespan == 12.0

    def test_balanced_split(self):
        sched = _simulate_queue([5.0, 5.0, 5.0, 5.0], 2, pull_overhead=0.0)
        assert sched.makespan == 10.0

    def test_pull_overhead_charged(self):
        free = _simulate_queue([1.0] * 4, 2, pull_overhead=0.0)
        taxed = _simulate_queue([1.0] * 4, 2, pull_overhead=10.0)
        assert taxed.makespan > free.makespan

    def test_zero_pipelines(self):
        assert _simulate_queue([1.0], 0, 0.0).makespan == 0.0

    def test_greedy_respects_longest_task(self):
        sched = _simulate_queue([9.0, 1.0, 1.0, 1.0], 2, pull_overhead=0.0)
        assert sched.makespan == 9.0


class TestMakespans:
    def test_static_close_to_dynamic(self, plan):
        static = static_makespan(plan)
        dynamic = dynamic_makespan(plan)
        assert static <= 1.4 * dynamic

    def test_static_positive(self, plan):
        assert static_makespan(plan) > 0

    def test_dynamic_includes_overhead(self, plan):
        cheap = dynamic_makespan(plan, pull_overhead=0.0)
        taxed = dynamic_makespan(plan, pull_overhead=5_000.0)
        assert taxed > cheap

    def test_lpt_no_worse_than_fifo(self, plan):
        lpt = dynamic_makespan(plan, longest_first=True)
        fifo = dynamic_makespan(plan, longest_first=False)
        assert lpt <= 1.1 * fifo

