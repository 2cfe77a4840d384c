"""Fig. 2: workload characteristics of graph partitions with DBG.

For R24, G23, HD and WP stand-ins, profiles the percentage of edges and
of accessed source vertices per partition, with and without DBG, and
checks the dense-head / sparse-tail structure the figure shows.
"""

import pytest

from repro.core.framework import PreparedGraph
from repro.graph.datasets import load_dataset
from repro.graph.stats import diversity_summary, profile_partitions
from repro.reporting import format_table, write_report

from conftest import BENCH_BUFFER_U280, BENCH_SCALE

FIG2_GRAPHS = ("R24", "G23", "HD", "WP")


def _profile(graph, use_dbg=True):
    prepared = PreparedGraph(graph, use_dbg)
    return profile_partitions(prepared.partitions(BENCH_BUFFER_U280))


def _build_report(graphs) -> str:
    sections = []
    for key, graph in graphs.items():
        profiles = _profile(graph)
        rows = [
            (p.index, p.num_edges, f"{p.edge_percent:.2f}%",
             f"{p.src_percent:.2f}%")
            for p in profiles[:6]
        ]
        if len(profiles) > 6:
            tail = profiles[-1]
            rows.append(("...", "...", "...", "..."))
            rows.append(
                (tail.index, tail.num_edges, f"{tail.edge_percent:.2f}%",
                 f"{tail.src_percent:.2f}%")
            )
        summary = diversity_summary(profiles)
        sections.append(
            format_table(
                ["partition", "edges", "% edges", "% src accessed"],
                rows,
                title=(
                    f"{key} (DBG): {len(profiles)} non-empty partitions, "
                    f"imbalance {summary['imbalance']:.1f}x"
                ),
            )
        )
    return "\n\n".join(sections)


@pytest.fixture(scope="module")
def fig2_graphs():
    return {
        key: load_dataset(key, scale=BENCH_SCALE, seed=1)
        for key in FIG2_GRAPHS
    }


def test_fig2_partition_diversity(benchmark, fig2_graphs):
    text = benchmark(_build_report, fig2_graphs)
    write_report("fig2_workload_characteristics", text)

    for key, graph in fig2_graphs.items():
        profiles = _profile(graph)
        # Dense head: the first partition concentrates edges and sources.
        assert profiles[0].edge_percent > 5.0, key
        # Sparse tail: the last partition is much lighter than the head.
        assert profiles[-1].edge_percent < profiles[0].edge_percent / 2, key
        # Diversity: orders of magnitude between head and median.
        assert diversity_summary(profiles)["imbalance"] > 3.0, key


def test_fig2_dbg_vs_no_dbg(benchmark, fig2_graphs):
    """DBG concentrates the head; without it dense partitions scatter."""

    def profile_all():
        return {
            key: (
                _profile(graph),
                _profile(graph, use_dbg=False),
            )
            for key, graph in fig2_graphs.items()
        }

    profiles = benchmark.pedantic(profile_all, rounds=1, iterations=1)
    for key, (with_dbg, without) in profiles.items():
        head_with = max(p.edge_percent for p in with_dbg[:2])
        head_without = max(p.edge_percent for p in without)
        assert head_with >= 0.9 * head_without, key
