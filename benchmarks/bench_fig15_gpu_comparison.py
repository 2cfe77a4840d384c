"""Fig. 15: ReGraph vs Gunrock on Tesla P100 and A100.

Paper shapes: for PR both GPUs out-throughput ReGraph (bandwidth), yet
ReGraph is ~2.4x (geomean) more energy-efficient than the P100 and up to
~3.5x (geomean) than the A100; for BFS ReGraph beats the P100 outright
and improves energy efficiency 2.5-9.2x.
"""

import numpy as np
import pytest

from repro.apps.bfs import BreadthFirstSearch
from repro.apps.pagerank import PageRank
from repro.baselines.energy import PLATFORM_POWER_WATTS, efficiency_ratio
from repro.baselines.gunrock import GUNROCK_A100, GUNROCK_P100
from repro.reporting import format_table, write_report

from conftest import SWEEP_GRAPHS, bench_framework

PR_ITERATIONS = 10
FPGA_W = PLATFORM_POWER_WATTS["U280"]


@pytest.fixture(scope="module")
def measurements(datasets):
    fw = bench_framework("U280")
    out = []
    for key in SWEEP_GRAPHS:
        graph = datasets[key]
        pre = fw.preprocess(graph)
        pr = fw.run(
            pre, PageRank, max_iterations=PR_ITERATIONS, functional=False
        )
        bfs = fw.run(pre, lambda g: BreadthFirstSearch(g, root=0))
        out.append(
            {
                "graph": key,
                "obj": graph,
                "pr": pr.mteps,
                "bfs": bfs.mteps,
            }
        )
    return out


def test_fig15_gpu_comparison(benchmark, measurements):
    def build_rows():
        rows = []
        for m in measurements:
            g = m["obj"]
            rows.append(
                (
                    m["graph"],
                    f"{m['pr']:.0f}",
                    f"{GUNROCK_P100.pagerank_mteps(g):.0f}",
                    f"{GUNROCK_A100.pagerank_mteps(g):.0f}",
                    f"{m['bfs']:.0f}",
                    f"{GUNROCK_P100.bfs_mteps(g):.0f}",
                    f"{GUNROCK_A100.bfs_mteps(g):.0f}",
                )
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)

    # Energy-efficiency geomeans.
    def geomean(values):
        return float(np.exp(np.mean(np.log(values))))

    pr_vs_p100 = geomean(
        [
            efficiency_ratio(
                m["pr"], FPGA_W,
                GUNROCK_P100.pagerank_mteps(m["obj"]), GUNROCK_P100.power_watts,
            )
            for m in measurements
        ]
    )
    bfs_vs_p100 = geomean(
        [
            efficiency_ratio(
                m["bfs"], FPGA_W,
                GUNROCK_P100.bfs_mteps(m["obj"]), GUNROCK_P100.power_watts,
            )
            for m in measurements
        ]
    )
    bfs_vs_a100 = geomean(
        [
            efficiency_ratio(
                m["bfs"], FPGA_W,
                GUNROCK_A100.bfs_mteps(m["obj"]), GUNROCK_A100.power_watts,
            )
            for m in measurements
        ]
    )
    text = (
        format_table(
            ["graph", "PR ReGraph", "PR P100", "PR A100",
             "BFS ReGraph", "BFS P100", "BFS A100"],
            rows,
            title="Fig. 15: MTEPS, ReGraph (U280) vs Gunrock",
        )
        + "\n\nenergy-efficiency geomeans (ReGraph / GPU):"
        + f"\n  PR  vs P100: {pr_vs_p100:.1f}x (paper ~2.4x)"
        + f"\n  BFS vs P100: {bfs_vs_p100:.1f}x (paper ~7x)"
        + f"\n  BFS vs A100: {bfs_vs_a100:.1f}x (paper up to ~3.5x)"
    )
    write_report("fig15_gpu_comparison", text)

    # Shapes: GPUs win PR throughput; ReGraph beats P100 on BFS; energy
    # efficiency favours ReGraph throughout.
    for m in measurements:
        assert GUNROCK_A100.pagerank_mteps(m["obj"]) > m["pr"], m["graph"]
    wins = sum(
        m["bfs"] > GUNROCK_P100.bfs_mteps(m["obj"]) for m in measurements
    )
    assert wins >= len(measurements) // 2
    assert pr_vs_p100 > 1.0
    assert bfs_vs_p100 > 2.0
