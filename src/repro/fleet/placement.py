"""Health- and capability-aware placement of jobs onto replicas.

The score of placing job *j* on replica *r* is the predicted virtual
completion time, penalised by the replica's live health:

    finish(r, j) = available_at(r) + predicted_seconds(r, j)
                   * (1 + breaker_penalty * open_breakers(r))
                   * (1 + degraded_penalty * degraded_pipelines(r))

``predicted_seconds`` is a **what-if probe** over the job's graph as
preprocessed for the probed replica's configuration.  The engine holds
no per-graph state: the caller owns the preprocessed results (the
fleet runtime keeps one per replica configuration for each live job, so
replicas of the same configuration share one plan until the job ends)
and hands them in.  The per-iteration makespan is answered by the
plan's compiled engine (:func:`repro.compiled.plan_engine`) under the
probed replica's channel parameters — the same engine, memoised per
parameter set, that the job's own run and the conformance trace use.
Replicas whose HBM could not hold the job's buffers are filtered out
entirely.  Ties break on replica id, keeping placement fully
deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.registry import get_app_spec
from repro.core.framework import PreprocessResult
from repro.fleet.job import Job
from repro.fleet.replica import Replica
from repro.graph.coo import EDGE_BYTES, VERTEX_WORD_BYTES, Graph
from repro.hbm.capacity import CHANNEL_CAPACITY_BYTES


def _fits_channels(
    replica: Replica, num_vertices: int, num_edges: int, edge_bytes: int
) -> bool:
    """The HBM rule: a pipeline's share of the edge records and one
    vertex-property array must each fit one pseudo-channel."""
    num_pipes = replica.handle.framework.num_pipelines
    edges_per_channel = -(-num_edges * edge_bytes // max(num_pipes, 1))
    props_per_channel = num_vertices * VERTEX_WORD_BYTES
    return max(edges_per_channel, props_per_channel) <= (
        CHANNEL_CAPACITY_BYTES
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
        #: Probe accounting — a perf side-channel (surfaced in fleet
        #: soak reports), never part of any digest.
        self.probe_stats: Dict[str, int] = {"probes": 0}

    # ------------------------------------------------------------------
    def predicted_seconds(
        self, replica: Replica, job: Job, pre: PreprocessResult
    ) -> float:
        """What-if probe: modelled execution time of the job on this
        replica — the simulated per-iteration makespan of ``pre`` (the
        job's graph preprocessed for the replica's configuration) times
        the job's iteration cap."""
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
        return _fits_channels(
            replica, graph.num_vertices, graph.num_edges, graph.edge_bytes
        )

    @staticmethod
    def spec_fits(replica: Replica, job: Job) -> bool:
        """:meth:`fits` for the graph ``job`` would execute, answered
        from its spec before anything is built: a symmetric app (WCC)
        runs twice the edges, unweighted."""
        vertices, edges = job.graph.built_size()
        weighted = job.graph.weighted
        if get_app_spec(job.app).symmetric:
            edges, weighted = 2 * edges, False
        edge_bytes = EDGE_BYTES + (VERTEX_WORD_BYTES if weighted else 0)
        return _fits_channels(replica, vertices, edges, edge_bytes)

    def score(
        self, replica: Replica, job: Job, pre: PreprocessResult, now: float
    ) -> float:
        """Predicted completion time, health-penalised (lower = better)."""
        predicted = self.predicted_seconds(replica, job, pre)
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
        preprocess: Callable[[Replica], PreprocessResult],
        now: float,
        exclude: Tuple[str, ...] = (),
    ) -> Optional[Replica]:
        """Best SERVING replica for the job, or ``None`` if there is none.

        ``graph`` is the graph the job executes (the HBM capacity
        filter); ``preprocess`` answers it preprocessed for a candidate
        replica, and is asked only for candidates that pass the filter.
        """
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
            key=lambda r: (
                self.score(r, job, preprocess(r), now), r.replica_id
            ),
        )
