"""Analysis benches: bottleneck attribution and static-vs-dynamic
scheduling.

Not a paper figure — these quantify two design claims DESIGN.md calls
out: (a) *why* each partition prefers its pipeline type (Eq. 1 term
attribution), and (b) that the model-guided *static* plan leaves little
on the table versus an idealised dynamic (work-stealing) runtime.
"""

import pytest

from repro.core.framework import PreparedGraph
from repro.graph.datasets import load_dataset
from repro.hbm.channel import HbmChannelModel
from repro.model.bottleneck import compare_pipeline_choice
from repro.model.calibrate import calibrate_performance_model
from repro.sched.dynamic import dynamic_makespan, static_makespan
from repro.reporting import format_table, write_report

from conftest import BENCH_SCALE, bench_framework, bench_pipeline_config


@pytest.fixture(scope="module")
def setup():
    config = bench_pipeline_config()
    channel = HbmChannelModel()
    model = calibrate_performance_model(config, channel)
    graph = load_dataset("HD", scale=BENCH_SCALE, seed=1)
    prepared = PreparedGraph(graph)
    pset = prepared.partitions(config.gather_buffer_vertices)
    return {"model": model, "pset": pset, "prepared": prepared}


def test_bottleneck_attribution(benchmark, setup):
    parts = setup["pset"].nonempty()
    samples = [parts[0], parts[len(parts) // 2], parts[-1]]

    def analyse():
        return [compare_pipeline_choice(p, setup["model"]) for p in samples]

    analyses = benchmark(analyse)
    rows = []
    for a in analyses:
        for kind in ("little", "big"):
            b = a[kind]
            f = b.fractions()
            rows.append(
                (
                    f"p{a['partition']}",
                    kind,
                    f"{b.total_cycles:.0f}",
                    f"{f['edge_supply']:.0%}",
                    f"{f['vertex_access']:.0%}",
                    f"{f['gather']:.0%}",
                    f"{f['fixed']:.0%}",
                    "*" if a["preferred"] == kind else "",
                )
            )
    text = format_table(
        ["partition", "pipeline", "cycles", "edge supply",
         "vertex access", "gather", "fixed", "preferred"],
        rows,
        title="Analysis: Eq. 1 bottleneck attribution (HD)",
    )
    write_report("analysis_bottlenecks", text)

    tail = analyses[-1]
    # Sparse tail: prefers Big; on Little the fixed overhead + span
    # streaming dominate.
    assert tail["preferred"] == "big"
    tail_little = tail["little"].fractions()
    assert tail_little["fixed"] + tail_little["vertex_access"] > 0.5
    # The *final* placement (after group refinement) puts the dense head
    # on the Little cluster, even though the solo comparison is close —
    # in a Big group the head would monopolise one Gather PE.
    from repro.sched.inter import classify_partitions

    dense, _sparse, _tl, _tb = classify_partitions(parts, setup["model"])
    assert 0 in dense


def test_static_vs_dynamic_scheduling(benchmark, setup):
    fw = bench_framework("U280", num_pipelines=8)
    pre = fw.preprocess(setup["prepared"])

    def measure():
        return (
            static_makespan(pre.plan, fw.channel),
            dynamic_makespan(pre.plan, fw.channel),
        )

    static, dynamic = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = format_table(
        ["policy", "iteration makespan (cycles)"],
        [
            ("static (model-guided)", f"{static:.0f}"),
            ("dynamic (LPT work stealing)", f"{dynamic:.0f}"),
            ("static / dynamic", f"{static / dynamic:.2f}"),
        ],
        title="Analysis: static vs dynamic scheduling (HD, 8 pipelines)",
    )
    write_report("analysis_static_vs_dynamic", text)

    # The model-guided static plan is within 25% of the idealised
    # dynamic runtime — the premise for shipping a static scheduler.
    assert static <= 1.25 * dynamic
