"""Fleet prewarm: out-of-process preprocessing and plan compilation.

The fleet event loop itself is inherently serial — it is a virtual-time
discrete-event simulation whose bit-reproducible report depends on one
global event order.  What *is* parallel is the expensive pure work the
loop keeps stopping for: preprocessing each job's graph for each
replica configuration and timing its partitions for the first time.

:func:`prewarm_spec` is the picklable worker unit: it rebuilds one
task's framework, preprocesses the graph and runs one timing iteration,
which compiles the plan and memoises the compiled engine (with its
evaluated timings) on ``pre.plan``.  It ships back the
``PreprocessResult``; the engine pickles along with the plan.
:func:`prewarm_jobs` hands every job the results for its own tasks,
which the job owns once the event loop admits it.  A result is a pure
function of its task, so the warmed run's report digest is identical
to a cold serial run's.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.apps.registry import get_app_spec
from repro.arch.config import PipelineConfig
from repro.core.framework import PreprocessResult, ReGraph
from repro.core.system import SystemSimulator
from repro.errors import ReproError
from repro.perf.parallel import parallel_map


def prewarm_spec(task: tuple) -> Optional[PreprocessResult]:
    """Warm one (device, buffer, pipelines, graph spec, app) task.

    Returns the ``PreprocessResult``, or ``None`` when the task cannot
    be preprocessed (the event loop will then handle it — and its typed
    failure — exactly as it would have without prewarming).
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
    return pre


def prewarm_jobs(
    replicas, jobs, workers: int
) -> Tuple[Dict[str, Dict[tuple, PreprocessResult]], int]:
    """Preprocess every job for every replica configuration of a pool.

    Returns ``(job id -> {Replica.config: PreprocessResult}, number of
    tasks warmed)``.  Jobs with the same task tuple share one result.
    """
    configs = list(dict.fromkeys(r.config for r in replicas))
    tasks = list(dict.fromkeys(
        (*config, job.graph, job.app) for job in jobs for config in configs
    ))
    warmed = dict(zip(
        tasks, parallel_map(prewarm_spec, tasks, workers=workers)
    ))
    by_job = {
        job.job_id: {
            config: pre
            for config in configs
            if (pre := warmed[(*config, job.graph, job.app)]) is not None
        }
        for job in jobs
    }
    return by_job, sum(pre is not None for pre in warmed.values())
