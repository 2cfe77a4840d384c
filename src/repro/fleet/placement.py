"""Health- and capability-aware placement of jobs onto replicas.

The score of placing job *j* on replica *r* is the predicted virtual
completion time, penalised by the replica's live health:

    finish(r, j) = available_at(r) + predicted_seconds(r, j)
                   * (1 + breaker_penalty * open_breakers(r))
                   * (1 + degraded_penalty * degraded_pipelines(r))

``predicted_seconds`` is a **what-if probe**: the job's graph is
preprocessed once per device configuration (cached — replicas of the
same device type share the plan) and the per-iteration makespan is
answered by the plan's compiled engine
(:func:`repro.compiled.plan_engine`) under the probed replica's channel
parameters — the same engine, memoised per parameter set, that the
job's own run and the conformance trace use.  Replicas whose HBM could
not hold the job's buffers are filtered out entirely.  Ties break on
replica id, keeping placement fully deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.registry import get_app_spec
from repro.core.framework import PreprocessResult
from repro.fleet.job import Job
from repro.fleet.replica import Replica
from repro.graph.coo import Graph
from repro.hbm.capacity import CHANNEL_CAPACITY_BYTES


def preprocess_cache_key(
    device: str,
    buffer_vertices: int,
    num_pipelines: int,
    graph_spec,
    app: str,
) -> tuple:
    """Identity of one preprocessed artefact.

    ``app`` matters only through whether it executes the symmetrised
    graph (:attr:`~repro.apps.registry.AppSpec.symmetric`), which is
    what the key records.  Shared with the fleet prewarm workers
    (:mod:`repro.perf.prewarm`), which compute entries out-of-process
    and must label them with byte-for-byte the same key the engine
    will look up.
    """
    return (
        device,
        buffer_vertices,
        num_pipelines,
        tuple(sorted(graph_spec.to_dict().items())),
        get_app_spec(app).symmetric,
    )


class PlacementEngine:
    """Scores replicas for a job and picks the best one."""

    def __init__(
        self,
        breaker_penalty: float = 0.25,
        degraded_penalty: float = 0.5,
    ):
        self.breaker_penalty = breaker_penalty
        self.degraded_penalty = degraded_penalty
        #: (device, buffer_vertices, num_pipelines, graph name) -> pre
        self._pre_cache: Dict[tuple, PreprocessResult] = {}
        #: Probe accounting — a perf side-channel (surfaced in fleet
        #: soak reports), never part of any digest.
        self.probe_stats: Dict[str, int] = {"probes": 0}

    # ------------------------------------------------------------------
    def _cache_key(self, replica: Replica, job: Job) -> tuple:
        fw = replica.handle.framework
        return preprocess_cache_key(
            replica.device,
            fw.pipeline.gather_buffer_vertices,
            fw.num_pipelines,
            job.graph,
            job.app,
        )

    def seed(self, key: tuple, pre: PreprocessResult) -> None:
        """Adopt a preprocessed artefact computed elsewhere (prewarm).

        First writer wins: preprocessing is deterministic in the key,
        so a seeded artefact and a locally computed one are
        interchangeable.
        """
        self._pre_cache.setdefault(key, pre)

    def preprocess_for(
        self, replica: Replica, job: Job, graph: Graph
    ) -> PreprocessResult:
        """Preprocess ``graph`` for ``replica``'s configuration (cached).

        The cache is shared across replicas of the same device type, so
        a failover re-attempt on a sibling card skips the offline phase.
        """
        key = self._cache_key(replica, job)
        pre = self._pre_cache.get(key)
        if pre is None:
            pre = replica.handle.framework.preprocess(graph)
            self._pre_cache[key] = pre
        return pre

    def predicted_seconds(
        self, replica: Replica, job: Job, graph: Graph
    ) -> float:
        """What-if probe: modelled execution time of the job on this
        replica — the simulated per-iteration makespan times the job's
        iteration cap."""
        pre = self.preprocess_for(replica, job, graph)
        hz = pre.resources.frequency_mhz * 1e6
        iterations = max(job.max_iterations or 1, 1)
        self.probe_stats["probes"] += 1
        cycles = self._probe_iteration_cycles(replica, pre)
        return cycles * iterations / hz

    @staticmethod
    def _probe_iteration_cycles(
        replica: Replica, pre: PreprocessResult
    ) -> float:
        """Simulated cycles of one iteration on this replica.

        Pipeline busy times overlapped with the Apply stream, plus the
        Writer tail — the composition of
        :class:`~repro.core.system.IterationReport`.  Apply and Writer
        are closed-form in the vertex count, so they are computed
        directly under the probed replica's channel.
        """
        from repro.arch.apply import ApplySim
        from repro.arch.writer import WriterSim
        from repro.compiled import plan_engine
        from repro.hbm.channel import HbmChannelModel

        channel = HbmChannelModel(replica.handle.framework.channel.params)
        little, big = plan_engine(pre.plan).busy_cycles(channel)
        busiest = max(little + big, default=0.0)
        num_vertices = pre.graph.num_vertices
        apply_cycles = ApplySim(channel).cycles(num_vertices)
        writer_cycles = WriterSim(channel).cycles(num_vertices)
        return max(busiest, apply_cycles) + writer_cycles

    # ------------------------------------------------------------------
    @staticmethod
    def fits(replica: Replica, graph: Graph) -> bool:
        """Whether the job's buffers respect per-channel HBM capacity."""
        num_pipes = replica.handle.framework.num_pipelines
        edges_per_channel = -(-graph.num_edges * graph.edge_bytes // max(
            num_pipes, 1
        ))
        props_per_channel = graph.num_vertices * 4
        return max(edges_per_channel, props_per_channel) <= (
            CHANNEL_CAPACITY_BYTES
        )

    def score(
        self, replica: Replica, job: Job, graph: Graph, now: float
    ) -> float:
        """Predicted completion time, health-penalised (lower = better)."""
        predicted = self.predicted_seconds(replica, job, graph)
        penalty = (
            (1.0 + self.breaker_penalty * replica.open_breakers())
            * (1.0 + self.degraded_penalty * replica.degraded_pipelines())
        )
        return replica.available_at(now) + predicted * penalty

    def choose(
        self,
        replicas: List[Replica],
        job: Job,
        graph: Graph,
        now: float,
        exclude: Tuple[str, ...] = (),
    ) -> Optional[Replica]:
        """Best SERVING replica for the job, or ``None`` if there is none."""
        candidates = [
            r for r in replicas
            if r.is_serving
            and r.replica_id not in exclude
            and self.fits(r, graph)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (self.score(r, job, graph, now), r.replica_id),
        )
