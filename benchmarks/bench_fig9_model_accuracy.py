"""Fig. 9: measured vs estimated execution time of Big/Little pipelines.

Per group of eight partitions (Big executes eight per execution), runs
the cycle-level simulators ("measured") and the Eq. 1-4 analytic model
("estimated") for PR on four graphs, reporting per-group times and the
average error ratio.  The paper's error bands: 4% (Big) and 6% (Little).
"""

import numpy as np
import pytest

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.little_pipeline import LittlePipelineSim
from repro.core.framework import PreparedGraph
from repro.graph.datasets import load_dataset
from repro.hbm.channel import HbmChannelModel
from repro.model.calibrate import calibrate_performance_model
from repro.reporting import format_table, write_report

from conftest import BENCH_SCALE, bench_pipeline_config

FIG9_GRAPHS = ("R21", "HD", "PK", "HW")


@pytest.fixture(scope="module")
def setup():
    config = bench_pipeline_config()
    channel = HbmChannelModel()
    return {
        "config": config,
        "channel": channel,
        "big": BigPipelineSim(config, channel),
        "little": LittlePipelineSim(config, channel),
        "model": calibrate_performance_model(config, channel),
    }


def _groups(graph, config):
    parts = PreparedGraph(graph).partitions(
        config.gather_buffer_vertices
    ).nonempty()
    n = config.n_gpe
    return [parts[i : i + n] for i in range(0, len(parts), n)]


def _run_graph(key, setup):
    graph = load_dataset(key, scale=BENCH_SCALE, seed=1)
    rows, err_big, err_little = [], [], []
    for gi, group in enumerate(_groups(graph, setup["config"])):
        sim_big = setup["big"].execute(group)[0].total_cycles
        sim_little = sum(
            setup["little"].execute(p)[0].total_cycles for p in group
        )
        est_big = setup["model"].estimate_big_group([p.src for p in group])
        est_little = sum(
            setup["model"].estimate_little_execution(p.src) for p in group
        )
        err_big.append(abs(est_big - sim_big) / sim_big)
        err_little.append(abs(est_little - sim_little) / sim_little)
        rows.append(
            (
                f"{key}/g{gi}",
                sum(p.num_edges for p in group),
                f"{sim_little:.0f}",
                f"{est_little:.0f}",
                f"{sim_big:.0f}",
                f"{est_big:.0f}",
                "Little" if sim_little < sim_big else "Big",
            )
        )
    return rows, float(np.mean(err_big)), float(np.mean(err_little))


def test_fig9_model_vs_measured(benchmark, setup):
    all_rows, errs_b, errs_l = [], [], []

    def run_all():
        all_rows.clear(), errs_b.clear(), errs_l.clear()
        for key in FIG9_GRAPHS:
            rows, eb, el = _run_graph(key, setup)
            all_rows.extend(rows)
            errs_b.append(eb)
            errs_l.append(el)
        return all_rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = format_table(
        ["group (8 parts)", "edges", "Little sim", "Little est",
         "Big sim", "Big est", "faster"],
        all_rows,
        title=(
            "Fig. 9: per-group cycles, PR, single pipeline "
            f"(avg err: Big {np.mean(errs_b):.1%}, "
            f"Little {np.mean(errs_l):.1%}; paper: 4% / 6%)"
        ),
    )
    write_report("fig9_model_accuracy", text)

    # Error bands in the paper's neighbourhood.
    assert np.mean(errs_b) < 0.12
    assert np.mean(errs_l) < 0.12
    # Crossover: the first group prefers Little, the last prefers Big.
    assert all_rows[0][-1] == "Little"
    assert all_rows[-1][-1] == "Big"
