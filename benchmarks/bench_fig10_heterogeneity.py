"""Fig. 10: PR performance across pipeline combinations (M Little, N Big).

Sweeps every combination at benchmark scale, highlighting the paper's
three observations: (1) the best combination is always mixed, (2) the
framework's model-guided selection lands close to the best (~92% on
average), (3) synthetic RMAT graphs want more Little pipelines than
real-world graphs.
"""

import pytest

from repro.apps.pagerank import PageRank
from repro.reporting import format_table, write_report

from conftest import SWEEP_GRAPHS, bench_framework

#: Pipelines swept at bench scale (14 on the real U280).
NUM_PIPELINES = 8

PR_ITERATIONS = 5


def _mteps(framework, pre):
    run = framework.run(
        pre, PageRank, max_iterations=PR_ITERATIONS, functional=False
    )
    return run.mteps


def _sweep(framework, pre):
    """MTEPS for every forced combination plus the selected one."""
    per_combo = {}
    for m in range(NUM_PIPELINES + 1):
        forced = framework.preprocess(
            pre.prepared, forced_combo=(m, NUM_PIPELINES - m)
        )
        per_combo[f"{m}L{NUM_PIPELINES - m}B"] = _mteps(framework, forced)
    selected = _mteps(framework, pre)
    return per_combo, selected


@pytest.fixture(scope="module")
def framework():
    return bench_framework("U280", num_pipelines=NUM_PIPELINES)


def test_fig10_pipeline_combinations(benchmark, framework, datasets):
    results = {}

    def run_all():
        results.clear()
        for key in SWEEP_GRAPHS:
            pre = framework.preprocess(datasets[key])
            results[key] = (_sweep(framework, pre), pre.plan.accelerator.label)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    combos = [f"{m}L{NUM_PIPELINES - m}B" for m in range(NUM_PIPELINES + 1)]
    rows = []
    for key, ((per_combo, selected), label) in results.items():
        best_combo = max(per_combo, key=per_combo.get)
        rows.append(
            [key]
            + [f"{per_combo[c]:.0f}" for c in combos]
            + [label, best_combo, f"{selected / per_combo[best_combo]:.0%}"]
        )
    text = format_table(
        ["graph"] + combos + ["selected", "best", "sel/best"],
        rows,
        title=f"Fig. 10: PR MTEPS vs pipeline combination ({NUM_PIPELINES} pipelines)",
    )
    write_report("fig10_heterogeneity", text)

    ratios = []
    for key, ((per_combo, selected), _label) in results.items():
        best_combo = max(per_combo, key=per_combo.get)
        homog = {c for c in combos if c.startswith("0L") or c.endswith("0B")}
        # (1) Mixed beats homogeneous on skewed graphs.
        assert best_combo not in homog, key
        # (2) Selection quality.
        ratios.append(selected / per_combo[best_combo])
    assert sum(ratios) / len(ratios) > 0.80
