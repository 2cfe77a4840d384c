"""Ablation benches for the design choices called out in DESIGN.md.

Each ablation toggles one mechanism and measures the cost of losing it:

* data routing off          -> partition-switch overhead un-amortised;
* last-block cache off      -> extra memory requests in the Vertex Loader;
* jump access off           -> redundant burst fetches in the Ping-Pong
                               Buffer on partial-range partitions;
* DBG off                   -> end-to-end throughput loss on power-law
                               graphs (hot vertices scatter);
* even-edge intra cuts      -> covered by the scheduler unit tests (the
                               equal-time cuts are exercised per plan).
"""

import pytest

from repro.apps.pagerank import PageRank
from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.config import PipelineConfig
from repro.arch.little_pipeline import LittlePipelineSim
from repro.arch.vertex_loader import VertexLoaderSim
from repro.core.framework import PreparedGraph
from repro.graph.datasets import load_dataset
from repro.hbm.channel import HbmChannelModel
from repro.reporting import format_table, write_report

from conftest import BENCH_SCALE, bench_framework, bench_pipeline_config

PR_ITERATIONS = 5


@pytest.fixture(scope="module")
def hd_partitions():
    graph = load_dataset("HD", scale=BENCH_SCALE, seed=1)
    config = bench_pipeline_config()
    return PreparedGraph(graph).partitions(
        config.gather_buffer_vertices
    ).nonempty()


def _mteps(framework, pre):
    run = framework.run(
        pre, PageRank, max_iterations=PR_ITERATIONS, functional=False
    )
    return run.mteps


def test_ablation_data_routing(benchmark, hd_partitions):
    """Grouped execution vs one-partition-per-execution on the sparse tail."""
    config = bench_pipeline_config()
    channel = HbmChannelModel()
    routed = BigPipelineSim(config, channel)
    unrouted_cfg = PipelineConfig(
        gather_buffer_vertices=config.gather_buffer_vertices,
        data_routing=False,
    )
    unrouted = BigPipelineSim(unrouted_cfg, channel)
    sparse = hd_partitions[-config.n_gpe * 2 :]

    def run():
        grouped = sum(
            routed.execute(sparse[i : i + config.n_gpe])[0].total_cycles
            for i in range(0, len(sparse), config.n_gpe)
        )
        separate = sum(
            unrouted.execute([p])[0].total_cycles for p in sparse
        )
        return grouped, separate

    grouped, separate = benchmark(run)
    text = format_table(
        ["variant", "cycles (sparse tail)"],
        [
            ("data routing (8 partitions/exec)", f"{grouped:.0f}"),
            ("no routing (1 partition/exec)", f"{separate:.0f}"),
            ("overhead factor", f"{separate / grouped:.2f}x"),
        ],
        title="Ablation: Big pipeline data routing",
    )
    write_report("ablation_data_routing", text)
    assert separate > 1.5 * grouped


def test_ablation_last_block_cache(benchmark, hd_partitions):
    """Request reduction from the Vertex Loader's one-entry cache."""
    config = bench_pipeline_config()
    channel = HbmChannelModel()
    dense = hd_partitions[0]
    with_cache = VertexLoaderSim(config, channel)
    no_cache_cfg = PipelineConfig(
        gather_buffer_vertices=config.gather_buffer_vertices,
        last_block_cache=False,
    )
    without = VertexLoaderSim(no_cache_cfg, channel)

    def run():
        _r1, s1 = with_cache.access_ready_times(dense.src)
        _r2, s2 = without.access_ready_times(dense.src)
        return s1, s2

    s1, s2 = benchmark(run)
    text = format_table(
        ["variant", "requests issued", "dedup ratio"],
        [
            ("with last-block cache", s1.requests_issued, f"{s1.dedup_ratio:.1%}"),
            ("without", s2.requests_issued, f"{s2.dedup_ratio:.1%}"),
        ],
        title="Ablation: Vertex Loader last-block cache (dense partition)",
    )
    write_report("ablation_last_block_cache", text)
    assert s1.requests_issued < s2.requests_issued


def test_ablation_jump_access(benchmark, hd_partitions):
    """Fetch savings from jump access on partial-range (sparse) partitions."""
    import numpy as np

    config = bench_pipeline_config()
    channel = HbmChannelModel()
    # Pick the sparse partition with the widest scattered source range;
    # fall back to a synthetic two-cluster partition if the stand-in's
    # tails are too narrow to exercise segment skipping.
    seg_vertices = (
        config.pingpong_blocks_per_side * config.vertices_per_block
    )
    candidates = [
        p
        for p in hd_partitions[2:]
        if p.num_edges
        and p.src_span_blocks(config.vertices_per_block)
        > 4 * config.pingpong_blocks_per_side
    ]
    if candidates:
        sparse = min(candidates, key=lambda p: p.num_edges)
    else:
        from repro.graph.partition import Partition

        src = np.concatenate(
            [
                np.arange(32, dtype=np.int64),
                np.arange(32, dtype=np.int64) + 40 * seg_vertices,
            ]
        )
        sparse = Partition(
            index=0,
            vertex_lo=0,
            vertex_hi=config.partition_vertices,
            src=src,
            dst=np.zeros(src.size, dtype=np.int64),
        )
    with_jump = LittlePipelineSim(config, channel)
    no_jump_cfg = PipelineConfig(
        gather_buffer_vertices=config.gather_buffer_vertices,
        jump_access=False,
    )
    without = LittlePipelineSim(no_jump_cfg, channel)

    def run():
        return (
            with_jump.pingpong_stats(sparse),
            without.pingpong_stats(sparse),
        )

    s1, s2 = benchmark(run)
    text = format_table(
        ["variant", "blocks fetched", "span streamed"],
        [
            ("with jump access", s1.blocks_fetched,
             f"{s1.span_fraction_fetched:.1%}"),
            ("without", s2.blocks_fetched,
             f"{s2.span_fraction_fetched:.1%}"),
        ],
        title="Ablation: Ping-Pong Buffer jump access (sparse partition)",
    )
    write_report("ablation_jump_access", text)
    assert s1.blocks_fetched <= s2.blocks_fetched


def test_ablation_dbg(benchmark):
    """End-to-end throughput with and without DBG grouping."""
    results = {}

    def run_all():
        results.clear()
        for key in ("HD", "PK", "GG"):
            graph = load_dataset(key, scale=BENCH_SCALE, seed=1)
            fw = bench_framework("U280", num_pipelines=8)
            with_dbg = _mteps(fw, fw.preprocess(graph, use_dbg=True))
            without = _mteps(fw, fw.preprocess(graph, use_dbg=False))
            results[key] = (with_dbg, without)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        (key, f"{w:.0f}", f"{wo:.0f}", f"{w / wo:.2f}x")
        for key, (w, wo) in results.items()
    ]
    text = format_table(
        ["graph", "with DBG", "without DBG", "gain"],
        rows,
        title="Ablation: degree-based grouping (PR MTEPS, 8 pipelines)",
    )
    write_report("ablation_dbg", text)
    for key, (w, wo) in results.items():
        assert w > wo, key
