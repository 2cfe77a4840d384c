"""Fig. 14: ReGraph vs Ligra on a 48-core Xeon (PR and BFS).

Simulated ReGraph throughput against the bandwidth-bound Ligra model on
the same scaled stand-ins.  Paper shapes: PR speedup 1.6-7.1x, BFS
speedup 1.5-9.7x, energy-efficiency improvement 10-58x.
"""

import pytest

from repro.apps.bfs import BreadthFirstSearch
from repro.apps.pagerank import PageRank
from repro.baselines.energy import PLATFORM_POWER_WATTS, efficiency_ratio
from repro.baselines.ligra import LigraModel
from repro.reporting import format_table, write_report

from conftest import SWEEP_GRAPHS, bench_framework

PR_ITERATIONS = 10


@pytest.fixture(scope="module")
def measurements(datasets):
    fw = bench_framework("U280")
    ligra = LigraModel()
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
                "pr_regraph": pr.mteps,
                "bfs_regraph": bfs.mteps,
                "pr_ligra": ligra.pagerank_mteps(graph),
                "bfs_ligra": ligra.bfs_mteps(graph),
            }
        )
    return out


def test_fig14_cpu_comparison(benchmark, measurements):
    fpga_w = PLATFORM_POWER_WATTS["U280"]
    cpu_w = PLATFORM_POWER_WATTS["Xeon-6248R"]

    def build_rows():
        rows = []
        for m in measurements:
            pr_speed = m["pr_regraph"] / m["pr_ligra"]
            bfs_speed = m["bfs_regraph"] / m["bfs_ligra"]
            pr_energy = efficiency_ratio(
                m["pr_regraph"], fpga_w, m["pr_ligra"], cpu_w
            )
            bfs_energy = efficiency_ratio(
                m["bfs_regraph"], fpga_w, m["bfs_ligra"], cpu_w
            )
            rows.append(
                (
                    m["graph"],
                    f"{m['pr_regraph']:.0f}",
                    f"{m['pr_ligra']:.0f}",
                    f"{pr_speed:.1f}x",
                    f"{pr_energy:.0f}x",
                    f"{bfs_speed:.1f}x",
                    f"{bfs_energy:.0f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table(
        ["graph", "PR ReGraph MTEPS", "PR Ligra MTEPS",
         "PR speedup (paper 1.6-7.1x)", "PR energy (paper 10-38x)",
         "BFS speedup (paper 1.5-9.7x)", "BFS energy (paper 9.5-58x)"],
        rows,
        title="Fig. 14: ReGraph (U280) vs Ligra (Xeon Gold 6248R)",
    )
    write_report("fig14_cpu_comparison", text)

    # Shape: ReGraph wins throughput on every graph and the energy gap
    # is roughly the power ratio times the speedup.
    for m in measurements:
        assert m["pr_regraph"] > m["pr_ligra"], m["graph"]
        ratio = efficiency_ratio(
            m["pr_regraph"], fpga_w, m["pr_ligra"], cpu_w
        )
        assert ratio > 5.0, m["graph"]
