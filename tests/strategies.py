"""Reusable hypothesis strategies for the property-based test layer.

One vocabulary of generators shared by every property suite: raw edge
lists, COO graphs (optionally weighted), partition sets, scheduling
plans and fault plans.  Strategies are deliberately small — property
tests here run full DBG + scheduling + simulation per example, so the
value of each example is in its *shape* (skew, empty partitions, self
loops, parallel edges), not its size.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.arch.config import PipelineConfig
from repro.chaos.spec import GraphSpec
from repro.faults.plan import (
    BitFlipFault,
    DeadChannelFault,
    FaultPlan,
    LatencySpikeFault,
    PipelineStallFault,
)
from repro.fleet.job import FLEET_APPS, Job
from repro.graph.coo import Graph
from repro.graph.partition import partition_graph
from repro.hbm.channel import HbmChannelModel, HbmTimingParams
from repro.model.calibrate import calibrate_performance_model
from repro.sched.scheduler import build_schedule

#: Shared small pipeline config for plan-producing strategies.
STRATEGY_CONFIG = PipelineConfig(gather_buffer_vertices=32)

#: One calibrated model reused across all drawn plans (calibration is
#: deterministic and depends only on the config + channel).
STRATEGY_MODEL = calibrate_performance_model(
    STRATEGY_CONFIG, HbmChannelModel()
)


@st.composite
def multigraphs(draw, max_vertices=24, max_edges=150, weighted=None):
    """Unsorted ``(num_vertices, src, dst, weights)`` multigraph edges:
    few vertices, so duplicate edges and self loops are common; 32-bit
    weights (drawn, or forced on/off by ``weighted``) rarely repeat, so
    a duplicate edge's weight shows where it went."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = draw(ids), draw(ids)
    if weighted is None:
        weighted = draw(st.booleans())
    weights = (
        draw(st.lists(st.integers(0, 2**32 - 1), min_size=m, max_size=m))
        if weighted else None
    )
    return n, src, dst, weights


@st.composite
def edge_lists(draw, min_vertices=2, max_vertices=64, max_edges=200):
    """Random ``(num_vertices, src, dst)`` triples."""
    n = draw(st.integers(min_vertices, max_vertices))
    m = draw(st.integers(1, max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, dst


@st.composite
def graphs(
    draw,
    min_vertices=4,
    max_vertices=80,
    max_edges=300,
    weighted=False,
    name="prop",
):
    """Random COO graphs, optionally with positive integer weights."""
    n, src, dst = draw(
        edge_lists(min_vertices, max_vertices, max_edges)
    )
    weights = None
    if weighted:
        weights = draw(
            st.lists(
                st.integers(1, 31), min_size=len(src), max_size=len(src)
            )
        )
    return Graph(n, src, dst, weights=weights, name=name)


def weighted_graphs(**kwargs):
    """Random weighted graphs (SSSP/SpMV-shaped inputs)."""
    return graphs(weighted=True, **kwargs)


@st.composite
def partition_sets(draw, interval_range=(1, 16), **graph_kwargs):
    """A graph partitioned at a drawn destination-interval size."""
    graph = draw(graphs(**graph_kwargs))
    interval = draw(st.integers(*interval_range))
    return partition_graph(graph, interval)


@st.composite
def scheduling_plans(draw, max_pipelines=4, **graph_kwargs):
    """A full model-guided scheduling plan over a random graph.

    Uses :data:`STRATEGY_CONFIG`'s interval so plan and model agree, the
    way the framework builds them; returns ``(graph, plan)``.
    """
    graph = draw(graphs(**graph_kwargs))
    num_pipelines = draw(st.integers(1, max_pipelines))
    pset = partition_graph(graph, STRATEGY_CONFIG.partition_vertices)
    plan = build_schedule(pset, STRATEGY_MODEL, num_pipelines)
    return graph, plan


@st.composite
def channel_param_perturbations(draw):
    """Valid :class:`HbmTimingParams` drawn around the silicon defaults.

    The perturbation ranges keep the frozen-dataclass invariants
    (``max_latency >= min_latency``, ``max_outstanding >= 1``) while
    covering the band the model sweeps explore — the inputs the
    compiled evaluator must re-time without recompiling.
    """
    min_latency = draw(st.floats(4.0, 64.0, allow_nan=False))
    extra = draw(st.floats(0.0, 96.0, allow_nan=False))
    return HbmTimingParams(
        min_latency=min_latency,
        max_latency=min_latency + extra,
        latency_per_stride_byte=draw(
            st.floats(0.0, 0.05, allow_nan=False)
        ),
        max_outstanding=draw(st.integers(1, 64)),
        burst_blocks_per_cycle=draw(
            st.floats(0.25, 2.0, allow_nan=False)
        ),
    )


@st.composite
def fault_plans(draw, max_channels=8):
    """Random deterministic fault plans over a small channel space."""
    dead = draw(st.lists(
        st.builds(
            DeadChannelFault,
            channel=st.integers(0, max_channels - 1),
            onset_cycle=st.floats(0, 1e6, allow_nan=False),
        ),
        max_size=2, unique_by=lambda f: f.channel,
    ))
    spikes = draw(st.lists(
        st.builds(
            LatencySpikeFault,
            channel=st.integers(0, max_channels - 1),
            onset_cycle=st.floats(0, 1e6, allow_nan=False),
            duration_cycles=st.floats(1, 1e6, allow_nan=False),
            multiplier=st.floats(1, 64, allow_nan=False),
        ),
        max_size=2,
    ))
    flips = draw(st.lists(
        st.builds(
            BitFlipFault,
            probability=st.floats(0, 1, allow_nan=False),
            detectable=st.booleans(),
        ),
        max_size=1,
    ))
    stalls = draw(st.lists(
        st.builds(
            PipelineStallFault,
            probability=st.floats(0, 1, allow_nan=False),
            pipeline=st.one_of(st.none(), st.integers(0, 3)),
        ),
        max_size=1,
    ))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        dead_channels=tuple(dead),
        latency_spikes=tuple(spikes),
        bit_flips=tuple(flips),
        stalls=tuple(stalls),
    )


@st.composite
def fleet_job_specs(draw, index=0, with_faults=True):
    """One fleet job: app, graph recipe, deadline, priority, faults.

    Graphs stay small (the fleet property suite serves whole job mixes
    through full simulations per example); ``sssp`` draws get weighted
    graph specs, matching the app's requirement.
    """
    app = draw(st.sampled_from(FLEET_APPS))
    vertices = draw(st.integers(32, 192))
    graph = GraphSpec(
        kind=draw(st.sampled_from(("uniform", "rmat", "powerlaw"))),
        vertices=vertices,
        edges=vertices * draw(st.integers(2, 6)),
        seed=draw(st.integers(1, 10_000)),
        weighted=(app == "sssp"),
    )
    deadline = draw(st.one_of(
        st.none(), st.floats(1e-4, 0.05, allow_nan=False)
    ))
    plan = draw(fault_plans()) if with_faults and draw(
        st.booleans()
    ) else FaultPlan()
    return Job(
        job_id=f"prop{index:03d}",
        app=app,
        graph=graph,
        max_iterations=draw(st.integers(1, 8)),
        priority=draw(st.integers(0, 2)),
        deadline_seconds=deadline,
        submit_time=draw(st.floats(0, 0.005, allow_nan=False)),
        fault_plan=plan,
    )


@st.composite
def fleet_job_mixes(draw, min_jobs=1, max_jobs=6, with_faults=True):
    """A whole submission batch, ordered by submit time."""
    count = draw(st.integers(min_jobs, max_jobs))
    jobs = [
        draw(fleet_job_specs(index=i, with_faults=with_faults))
        for i in range(count)
    ]
    return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
