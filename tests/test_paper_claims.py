"""Integration tests pinning the paper's qualitative claims.

Each test names the section/figure whose claim it checks.  These run on
scaled-down synthetic stand-ins, so they assert *shapes* (who wins, trend
directions, error bands), not absolute numbers.
"""

import numpy as np
import pytest

from repro.apps.pagerank import PageRank
from repro.arch.config import PipelineConfig
from repro.arch.platform import get_platform
from repro.core.framework import ReGraph


@pytest.fixture(scope="module")
def framework():
    return ReGraph(
        "U280",
        pipeline=PipelineConfig(gather_buffer_vertices=512),
        num_pipelines=8,
    )


def _pr_mteps(framework, pre, iterations=5):
    run = framework.run(
        pre, PageRank, max_iterations=iterations, functional=False
    )
    return run.mteps


def _forced(framework, pre, m):
    """``pre`` rescheduled onto the forced ``mL(8-m)B`` combination."""
    return framework.preprocess(pre.prepared, forced_combo=(m, 8 - m))


class TestFig10Heterogeneity:
    """Best performance always comes from mixed pipeline combinations."""

    def test_mixed_beats_homogeneous(self, framework, small_rmat):
        pre = framework.preprocess(small_rmat)
        mteps = {}
        for m in range(9):
            mteps[m] = _pr_mteps(framework, _forced(framework, pre, m))
        best_m = max(mteps, key=mteps.get)
        assert 0 < best_m < 8, f"best combo {best_m}L{8-best_m}B is homogeneous"

    def test_selected_close_to_best(self, framework, small_rmat):
        """Sec. VI-C: the framework's choice reaches ~92% of the best."""
        pre = framework.preprocess(small_rmat)
        selected = _pr_mteps(framework, pre)
        best = max(
            _pr_mteps(framework, _forced(framework, pre, m))
            for m in range(9)
        )
        assert selected >= 0.75 * best


class TestFig12Scalability:
    """More pipelines -> more throughput on skewed graphs."""

    def test_throughput_scales_with_pipelines(self, small_rmat):
        mteps = []
        for n_pip in (2, 4, 8):
            fw = ReGraph(
                "U280",
                pipeline=PipelineConfig(gather_buffer_vertices=512),
                num_pipelines=n_pip,
            )
            pre = fw.preprocess(small_rmat)
            mteps.append(_pr_mteps(fw, pre))
        assert mteps[0] < mteps[1] < mteps[2]

    def test_sublinear_on_super_sparse_graph(self):
        """Sec. VI-E: small irregular graphs do not scale linearly."""
        from repro.graph.generators import power_law_graph

        tiny_sparse = power_law_graph(4000, 10_000, exponent=1.2, seed=2)
        mteps = []
        for n_pip in (2, 8):
            fw = ReGraph(
                "U280",
                pipeline=PipelineConfig(gather_buffer_vertices=512),
                num_pipelines=n_pip,
            )
            pre = fw.preprocess(tiny_sparse)
            mteps.append(_pr_mteps(fw, pre))
        speedup = mteps[1] / mteps[0]
        assert speedup < 4.0  # far below the 4x pipeline ratio


class TestTable4Preprocessing:
    """Preprocessing stays lightweight: O(V) DBG + O(E) partitioning."""

    def test_preprocessing_subsecond_on_test_graphs(self, framework, small_rmat):
        pre = framework.preprocess(small_rmat)
        assert pre.dbg_seconds < 2.0
        assert pre.schedule_seconds < 10.0

    def test_dbg_not_dominant(self, framework, small_rmat):
        # Table IV: vertex grouping is the cheaper phase.  Wall-clock
        # comparisons flake at millisecond scale, so only assert DBG does
        # not dominate the total preprocessing budget.
        pre = framework.preprocess(small_rmat)
        total = pre.dbg_seconds + pre.schedule_seconds
        assert pre.dbg_seconds < 0.9 * total + 1e-3


class TestSec6GResourceEfficiency:
    """ReGraph's throughput per LUT beats the monolithic baselines."""

    def test_regraph_beats_thundergp_like_simulated(self, framework, small_rmat):
        from repro.baselines.fpga import thundergp_like_plan

        pre = framework.preprocess(small_rmat)
        regraph_mteps = _pr_mteps(framework, pre)

        mono = thundergp_like_plan(framework, small_rmat, num_pipelines=4)
        mono_fw = ReGraph(
            "U280", pipeline=framework.pipeline, num_pipelines=4
        )
        mono_mteps = _pr_mteps(mono_fw, mono)
        assert regraph_mteps > mono_mteps

    def test_energy_efficiency_vs_cpu(self, framework, small_rmat):
        """Fig. 14: ReGraph is far more energy-efficient than Ligra."""
        from repro.baselines.energy import efficiency_ratio
        from repro.baselines.ligra import LigraModel

        pre = framework.preprocess(small_rmat)
        regraph_gteps = _pr_mteps(framework, pre) / 1e3
        ligra_gteps = LigraModel().pagerank_mteps(small_rmat) / 1e3
        ratio = efficiency_ratio(regraph_gteps, 35.0, ligra_gteps, 208.0)
        assert ratio > 3.0


class TestIiSensitivity:
    """Eq. 3: a Gather PE with II = 2 halves the compute rate."""

    def test_proc_rate_halves(self):
        fast = PipelineConfig(n_spe=8, n_gpe=8, ii_gpe=1)
        slow = PipelineConfig(n_spe=8, n_gpe=8, ii_gpe=2)
        assert slow.proc_cycles_per_edge == 2 * fast.proc_cycles_per_edge

    def test_edge_bound_partition_slows_with_ii(self, rmat_partitions, channel):
        from repro.arch.little_pipeline import LittlePipelineSim

        dense = rmat_partitions.nonempty()[0]
        fast = LittlePipelineSim(
            PipelineConfig(gather_buffer_vertices=512, ii_gpe=1), channel
        )
        slow = LittlePipelineSim(
            PipelineConfig(gather_buffer_vertices=512, ii_gpe=2), channel
        )
        t_fast, _ = fast.execute(dense)
        t_slow, _ = slow.execute(dense)
        assert t_slow.compute_cycles > 1.5 * t_fast.compute_cycles

    def test_latency_bound_partition_insensitive_to_ii(
        self, rmat_partitions, channel
    ):
        from repro.arch.big_pipeline import BigPipelineSim

        sparse = rmat_partitions.nonempty()[-8:]
        fast = BigPipelineSim(
            PipelineConfig(gather_buffer_vertices=512, ii_gpe=1), channel
        )
        slow = BigPipelineSim(
            PipelineConfig(gather_buffer_vertices=512, ii_gpe=2), channel
        )
        t_fast, _ = fast.execute(sparse)
        t_slow, _ = slow.execute(sparse)
        # Sparse groups are memory bound; II barely matters.
        assert t_slow.total_cycles < 2.2 * t_fast.total_cycles


class TestAblations:
    """Design-choice ablations from DESIGN.md."""

    def test_data_routing_ablation(self, config, channel, rmat_partitions):
        """Disabling data routing forfeits switch-overhead amortisation."""
        from repro.arch.big_pipeline import BigPipelineSim

        sparse = rmat_partitions.nonempty()[-8:]
        routed = BigPipelineSim(config, channel)
        grouped, _ = routed.execute(sparse)
        unrouted_cfg = PipelineConfig(
            gather_buffer_vertices=config.gather_buffer_vertices,
            data_routing=False,
        )
        unrouted = BigPipelineSim(unrouted_cfg, channel)
        separate = sum(
            unrouted.execute([p])[0].total_cycles for p in sparse
        )
        assert grouped.total_cycles < separate

    def test_model_guided_cuts_beat_even_cuts(self, perf_model, config, channel):
        """Sec. IV-B: equal-time cuts balance better than equal-edge cuts
        when per-edge costs are irregular.

        Constructed workload: the first half of the edges re-read one hot
        source (cheap, edge-bound); the second half stride a block per
        edge (expensive, fill-bound).  An equal-edge cut puts all the
        expensive edges on one pipeline; the model-guided cut does not.
        """
        import numpy as np

        from repro.arch.little_pipeline import LittlePipelineSim
        from repro.graph.partition import Partition

        cheap = np.zeros(2048, dtype=np.int64)
        expensive = (np.arange(2048, dtype=np.int64) + 1) * 16
        src = np.concatenate([cheap, expensive])
        partition = Partition(
            index=0,
            vertex_lo=0,
            vertex_hi=config.partition_vertices,
            src=src,
            dst=np.zeros(src.size, dtype=np.int64),
        )
        sim = LittlePipelineSim(config, channel)

        def imbalance(cuts):
            loads = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                if hi > lo:
                    timing, _ = sim.execute(partition.slice(int(lo), int(hi)))
                    loads.append(timing.compute_cycles)
            return max(loads) / max(min(loads), 1e-9)

        model_cuts = perf_model.cut_points(src, "little", 2, window_edges=64)
        even_cuts = np.array([0, src.size // 2, src.size])
        assert imbalance(model_cuts) < imbalance(even_cuts) / 2

    def test_dbg_ablation_speeds_up_powerlaw_graphs(self, framework):
        """DBG concentrates hot vertices so dense partitions become
        cleanly classifiable; on power-law graphs this translates into
        a solid end-to-end throughput gain."""
        from repro.graph.generators import power_law_graph

        graph = power_law_graph(20_000, 160_000, exponent=2.0, seed=4)
        with_dbg = framework.preprocess(graph, use_dbg=True)
        without = framework.preprocess(graph, use_dbg=False)
        assert len(with_dbg.plan.dense_indices) >= 1
        mteps_with = _pr_mteps(framework, with_dbg)
        mteps_without = _pr_mteps(framework, without)
        assert mteps_with > 1.2 * mteps_without
