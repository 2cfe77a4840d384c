"""Model-validation harness: error statistics over a graph matrix.

Fig. 9 validates the analytic model on four graphs; this harness
generalises the experiment: draw a matrix of synthetic graphs spanning
skew classes and sizes, compare the model's per-partition / per-group
estimates against the cycle-level simulators, and summarise the error
distribution (mean, p95, worst case, bias).  A reproduction that
silently drifted would fail the error-band assertions built on top of
this harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.arch.big_pipeline import BigPipelineSim
from repro.arch.config import PipelineConfig
from repro.arch.little_pipeline import LittlePipelineSim
from repro.core.framework import PreparedGraph
from repro.graph.coo import Graph
from repro.hbm.channel import HbmChannelModel
from repro.model.calibrate import calibrate_performance_model


@dataclass(frozen=True)
class ErrorStats:
    """Summary of relative errors |est - sim| / sim."""

    kind: str
    count: int
    mean: float
    p95: float
    worst: float
    #: signed mean of (est - sim) / sim; positive = model overestimates.
    bias: float

    @classmethod
    def from_samples(cls, kind: str, errors: np.ndarray, signed: np.ndarray):
        if errors.size == 0:
            return cls(kind, 0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            kind=kind,
            count=int(errors.size),
            mean=float(errors.mean()),
            p95=float(np.percentile(errors, 95)),
            worst=float(errors.max()),
            bias=float(signed.mean()),
        )


def validate_model_on_graph(
    graph: Graph,
    config: PipelineConfig,
    channel: HbmChannelModel = None,
) -> List[ErrorStats]:
    """Model-vs-simulator error statistics on one graph.

    Little errors are measured per partition; Big errors per
    ``N_gpe``-partition group — the units each pipeline actually
    executes.  The partitions are the DBG-relabelled graph's, cut by a
    :class:`~repro.core.framework.PreparedGraph` as the framework cuts
    them.
    """
    channel = channel or HbmChannelModel()
    model = calibrate_performance_model(config, channel)
    little = LittlePipelineSim(config, channel)
    big = BigPipelineSim(config, channel)
    parts = PreparedGraph(graph).partitions(
        config.partition_vertices
    ).nonempty()

    little_signed = []
    for p in parts:
        sim = little.execute(p)[0].total_cycles
        est = model.estimate_little_execution(p.src)
        little_signed.append((est - sim) / sim)

    big_signed = []
    n = config.n_gpe
    for lo in range(0, len(parts), n):
        group = parts[lo : lo + n]
        sim = big.execute(group)[0].total_cycles
        est = model.estimate_big_group([p.src for p in group])
        big_signed.append((est - sim) / sim)

    little_signed = np.asarray(little_signed)
    big_signed = np.asarray(big_signed)
    return [
        ErrorStats.from_samples(
            "little", np.abs(little_signed), little_signed
        ),
        ErrorStats.from_samples("big", np.abs(big_signed), big_signed),
    ]


def validation_matrix(
    config: PipelineConfig,
    seeds: int = 2,
    channel: HbmChannelModel = None,
) -> List[ErrorStats]:
    """Error statistics over a matrix of skew classes and seeds."""
    from repro.graph.generators import (
        erdos_renyi_graph,
        power_law_graph,
        rmat_graph,
    )

    stats: List[ErrorStats] = []
    for seed in range(seeds):
        graphs = [
            rmat_graph(12, 16, seed=seed, name=f"rmat-{seed}"),
            power_law_graph(
                5000, 60_000, exponent=1.8, seed=seed, name=f"pl-{seed}"
            ),
            erdos_renyi_graph(4000, 40_000, seed=seed, name=f"er-{seed}"),
        ]
        for graph in graphs:
            stats.extend(validate_model_on_graph(graph, config, channel))
    return stats


def aggregate(stats: List[ErrorStats], kind: str) -> ErrorStats:
    """Pool per-graph stats of one pipeline kind (weighted by count)."""
    selected = [s for s in stats if s.kind == kind and s.count]
    if not selected:
        return ErrorStats(kind, 0, 0.0, 0.0, 0.0, 0.0)
    total = sum(s.count for s in selected)
    return ErrorStats(
        kind=kind,
        count=total,
        mean=sum(s.mean * s.count for s in selected) / total,
        p95=max(s.p95 for s in selected),
        worst=max(s.worst for s in selected),
        bias=sum(s.bias * s.count for s in selected) / total,
    )
