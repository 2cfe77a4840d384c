"""Fleet prewarm: out-of-process preprocessing and plan compilation.

The fleet event loop itself is inherently serial — it is a virtual-time
discrete-event simulation whose bit-reproducible report depends on one
global event order.  What *is* parallel is the expensive pure work the
loop keeps stopping for: preprocessing each distinct (device config,
graph) pair and timing its partitions for the first time.

:func:`prewarm_spec` is the picklable worker unit: it rebuilds one
spec's framework, preprocesses the graph and runs one timing iteration,
which compiles the plan and memoises the compiled engine (with its
evaluated timings) on ``pre.plan``.  It ships back ``(placement key,
PreprocessResult)``; the engine pickles along with the plan.  The parent
seeds :class:`~repro.fleet.placement.PlacementEngine` with it *before*
starting the event loop, which then finds every expensive step already
answered.  The result is a pure function of the spec, so the warmed
run's report digest is identical to a cold serial run's.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.apps.registry import get_app_spec
from repro.arch.config import PipelineConfig
from repro.core.framework import ReGraph
from repro.core.system import SystemSimulator
from repro.errors import ReproError
from repro.fleet.placement import preprocess_cache_key


def prewarm_spec(task: tuple) -> Optional[Tuple[tuple, object]]:
    """Warm one (device, buffer, pipelines, graph spec, app) spec.

    Returns ``(placement cache key, PreprocessResult)``, or ``None``
    when the spec cannot be preprocessed (the event loop will then
    handle it — and its typed failure — exactly as it would have
    without prewarming).
    """
    device, buffer_vertices, num_pipelines, graph_spec, app = task
    try:
        graph = get_app_spec(app).prepare(graph_spec.build())
        framework = ReGraph(
            device,
            pipeline=PipelineConfig(
                gather_buffer_vertices=buffer_vertices
            ),
            num_pipelines=num_pipelines,
        )
        pre = framework.preprocess(graph)
        # This compiles and evaluates the plan; the engine rides back
        # to the parent on pre.plan.
        sim = SystemSimulator(pre.plan, framework.platform, framework.channel)
        sim.iteration_timing(graph.num_vertices)
    except ReproError:
        return None
    return preprocess_cache_key(*task), pre


def distinct_specs(replicas, jobs) -> dict:
    """The deduplicated prewarm work-list for a pool and job stream.

    Keyed by placement cache key (insertion order = deterministic job
    order), valued by the picklable :func:`prewarm_spec` task tuple.
    """
    configs = []
    seen = set()
    for replica in replicas:
        fw = replica.handle.framework
        config = (
            replica.device,
            fw.pipeline.gather_buffer_vertices,
            fw.num_pipelines,
        )
        if config not in seen:
            seen.add(config)
            configs.append(config)
    specs = {}
    for job in jobs:
        for config in configs:
            task = (*config, job.graph, job.app)
            specs.setdefault(preprocess_cache_key(*task), task)
    return specs
