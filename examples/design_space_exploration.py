#!/usr/bin/env python
"""Design-space exploration: pipeline combinations and platforms.

Reproduces the workflow an accelerator architect runs with ReGraph:
enumerate every (M Little, N Big) combination the platform supports,
inspect the resource/frequency trade-off of each, sweep their simulated
throughput on a target graph, and compare the model-guided selection
against the empirically best point — on both the U280 and the budget U50.

Run:  python examples/design_space_exploration.py
"""

from repro import ReGraph
from repro.apps.pagerank import PageRank
from repro.arch.config import PipelineConfig
from repro.graph.generators import rmat_graph

NUM_PIPELINES = 10
PR_ITERATIONS = 5


def sweep(platform_name: str, graph):
    framework = ReGraph(
        platform_name,
        pipeline=PipelineConfig(gather_buffer_vertices=2048),
        num_pipelines=NUM_PIPELINES,
    )
    pre = framework.preprocess(graph)
    print(f"\n=== {platform_name}: {NUM_PIPELINES} pipelines, "
          f"selected {pre.plan.accelerator.label} ===")
    print(f"{'combo':>6} | {'LUT':>6} | {'BRAM':>6} | {'MHz':>4} | "
          f"{'MTEPS':>7} |")
    best = ("", 0.0)
    for m in range(NUM_PIPELINES + 1):
        forced = framework.preprocess(
            pre.prepared, forced_combo=(m, NUM_PIPELINES - m)
        )
        accel, resources = forced.plan.accelerator, forced.resources
        run = framework.run(
            forced, PageRank, max_iterations=PR_ITERATIONS, functional=False
        )
        marker = ""
        if accel.label == pre.plan.accelerator.label:
            marker = "  <- selected by the model"
        if run.mteps > best[1]:
            best = (accel.label, run.mteps)
        print(f"{accel.label:>6} | {resources.lut_util:6.1%} | "
              f"{resources.bram_util:6.1%} | "
              f"{resources.frequency_mhz:4.0f} | {run.mteps:7,.0f} |{marker}")
    print(f"best combination: {best[0]} at {best[1]:,.0f} MTEPS")
    return best


def main():
    graph = rmat_graph(16, 16, seed=3, name="rmat-16-16")
    print(f"target graph: V={graph.num_vertices:,} E={graph.num_edges:,}")
    u280_best = sweep("U280", graph)
    u50_best = sweep("U50", graph)
    print(f"\nU280 best {u280_best[1]:,.0f} MTEPS vs "
          f"U50 best {u50_best[1]:,.0f} MTEPS "
          f"({u280_best[1] / max(u50_best[1], 1):.2f}x)")


if __name__ == "__main__":
    main()
