"""Fig. 12: PR performance with a varying total number of pipelines.

Sweeps pipeline counts at bench scale and reproduces the shape: skewed /
high-average-degree graphs scale well; super sparse graphs saturate
because partition-switch overheads dominate.  Out-of-memory points are
determined from the *published* full-size dataset footprints against the
256 MB-per-channel HBM capacity.
"""

import pytest

from repro.apps.pagerank import PageRank
from repro.core.framework import PreparedGraph
from repro.graph.coo import EDGE_BYTES
from repro.graph.datasets import DATASETS
from repro.hbm.capacity import fits_hbm
from repro.reporting import format_table, write_report

from conftest import SWEEP_GRAPHS, bench_framework

PIPELINE_COUNTS = (2, 4, 8, 14)
PR_ITERATIONS = 5


def _full_size_oom(key: str, num_pipelines: int) -> bool:
    """OoM check using the published V/E (one channel pair per pipeline)."""
    spec = DATASETS[key]
    return not fits_hbm(
        spec.num_vertices, spec.num_edges, EDGE_BYTES, 2 * num_pipelines
    )


def _mteps(prepared, num_pipelines):
    fw = bench_framework("U280", num_pipelines=num_pipelines)
    pre = fw.preprocess(prepared)
    run = fw.run(
        pre, PageRank, max_iterations=PR_ITERATIONS, functional=False
    )
    return run.mteps


def test_fig12_scalability(benchmark, datasets):
    results = {}

    def run_all():
        results.clear()
        for key in SWEEP_GRAPHS:
            prepared = PreparedGraph(datasets[key])
            series = []
            for n in PIPELINE_COUNTS:
                if _full_size_oom(key, n):
                    series.append(None)
                else:
                    series.append(_mteps(prepared, n))
            results[key] = series
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for key, series in results.items():
        cells = ["OoM" if v is None else f"{v:.0f}" for v in series]
        valid = [v for v in series if v is not None]
        scaling = valid[-1] / valid[0] if len(valid) > 1 else float("nan")
        rows.append([key] + cells + [f"{scaling:.1f}x"])
    text = format_table(
        ["graph"] + [f"{n} pipes" for n in PIPELINE_COUNTS] + ["scaling"],
        rows,
        title="Fig. 12: PR MTEPS vs total pipelines (OoM from full-size footprints)",
    )
    write_report("fig12_scalability", text)

    # Shape: every graph gains from more pipelines...
    for key, series in results.items():
        valid = [v for v in series if v is not None]
        assert valid[-1] > valid[0], key
    # ...and the dense synthetic graph scales at least as well as the
    # sparsest real-world one.
    r21 = [v for v in results["R21"] if v is not None]
    gg = [v for v in results["GG"] if v is not None]
    assert r21[-1] / r21[0] >= 0.8 * (gg[-1] / gg[0])
