"""Tests for the app registry and the design-space sensitivity sweep."""

import numpy as np
import pytest

from repro.apps.registry import available_apps, get_app_spec
from repro.arch.config import PipelineConfig
from repro.model.sweep import sensitivity_report, sweep_parameter


class TestRegistry:
    def test_all_apps_listed(self):
        assert available_apps() == [
            "bfs", "closeness", "delta-pagerank", "pagerank",
            "radii", "sssp", "wcc",
        ]

    def test_lookup_case_insensitive(self):
        assert get_app_spec("PageRank").name == "pagerank"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_app_spec("pagerange")

    def test_build_rootless(self, small_rmat):
        app = get_app_spec("pagerank").build(small_rmat)
        assert app.name == "PageRank"

    def test_build_with_root(self, small_rmat):
        app = get_app_spec("bfs").build(small_rmat, root=5)
        assert app.root == 5

    def test_weighted_requirement_enforced(self, small_rmat):
        with pytest.raises(ValueError, match="weighted"):
            get_app_spec("sssp").build(small_rmat)

    def test_runtime_executes_registry_apps(self, small_rmat):
        from repro.runtime.host import init_accelerator

        handle = init_accelerator(
            "U280",
            pipeline=PipelineConfig(gather_buffer_vertices=512),
            num_pipelines=4,
        )
        handle.load_graph(small_rmat)
        run = handle.execute("wcc")
        assert run.converged
        run = handle.execute("radii")
        assert run.result["diameter_estimate"] >= 1


class TestSweep:
    @pytest.fixture(scope="class")
    def base(self):
        return PipelineConfig(gather_buffer_vertices=512)

    def test_sweep_returns_one_point_per_value(self, small_rmat, base):
        points = sweep_parameter(
            small_rmat, base, "n_gpe", [4, 8], num_pipelines=4
        )
        assert [p.value for p in points] == [4, 8]
        for p in points:
            assert p.makespan_cycles > 0
            assert "L" in p.combo_label

    def test_buffer_size_changes_partition_count(self, small_rmat, base):
        points = sweep_parameter(
            small_rmat, base, "gather_buffer_vertices", [256, 1024],
            num_pipelines=4,
        )
        assert points[0].num_partitions > points[1].num_partitions

    def test_more_pes_never_hurt_makespan_much(self, small_rmat, base):
        points = sweep_parameter(
            small_rmat, base, "n_spe", [4, 8], num_pipelines=4
        )
        # Doubling Scatter PEs cannot slow the estimate down.
        assert points[1].makespan_cycles <= 1.05 * points[0].makespan_cycles

    def test_unknown_parameter_raises(self, small_rmat, base):
        with pytest.raises(ValueError, match="unknown"):
            sweep_parameter(small_rmat, base, "n_quux", [1])

    def test_speedup_metric(self, small_rmat, base):
        a, b = sweep_parameter(
            small_rmat, base, "n_gpe", [4, 8], num_pipelines=4
        )
        assert b.speedup_over(a) == pytest.approx(
            a.makespan_cycles / b.makespan_cycles
        )

    def test_sensitivity_report_covers_knobs(self, small_rmat, base):
        report = sensitivity_report(small_rmat, base, num_pipelines=4)
        assert set(report) == {
            "n_spe", "n_gpe", "gather_buffer_vertices", "pingpong_bytes",
        }
        for points in report.values():
            assert len(points) == 4

    def test_sensitivity_report_partitions_each_interval_once(
        self, small_rmat, base, monkeypatch
    ):
        # 16 points, 4 distinct intervals: one shared prepared graph cuts
        # each interval once, and every point matches an independent
        # partition + schedule of the input graph.
        from dataclasses import replace

        import repro.core.framework as framework
        from repro.graph.partition import partition_graph
        from repro.hbm.channel import HbmChannelModel
        from repro.model.calibrate import calibrate_performance_model
        from repro.sched.scheduler import build_schedule

        intervals = []
        original = framework.partition_graph

        def counted(graph, interval):
            intervals.append(interval)
            return original(graph, interval)

        monkeypatch.setattr(framework, "partition_graph", counted)
        report = sensitivity_report(small_rmat, base, num_pipelines=4)
        buffer = base.gather_buffer_vertices
        assert sorted(intervals) == [
            buffer // 4, buffer // 2, buffer, buffer * 2
        ]
        for name, points in report.items():
            for point in points:
                config = replace(base, **{name: point.value})
                pset = partition_graph(small_rmat, config.partition_vertices)
                plan = build_schedule(
                    pset,
                    calibrate_performance_model(config, HbmChannelModel()),
                    4,
                )
                assert point.makespan_cycles == plan.estimated_makespan
                assert point.num_partitions == len(pset.nonempty())
                assert point.combo_label == plan.accelerator.label

    def test_sensitivity_report_schedules_each_distinct_model_once(
        self, small_rmat, base, monkeypatch
    ):
        # Every sweep passes through the base configuration: 16 points
        # are 13 distinct calibrated models, so 13 schedules, counted
        # where the prepared graph's plan memo makes them.
        import repro.core.framework as framework

        calls = []
        original = framework.build_schedule

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(framework, "build_schedule", counted)
        report = sensitivity_report(small_rmat, base, num_pipelines=4)
        assert sum(len(points) for points in report.values()) == 16
        assert calls == [4] * 13
        # The repeats are the base point, equal in every sweep.
        base_points = {
            (p.makespan_cycles, p.num_partitions, p.combo_label)
            for name, points in report.items()
            for p in points if p.value == getattr(base, name)
        }
        assert len(base_points) == 1
