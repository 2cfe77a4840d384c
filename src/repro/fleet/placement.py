"""Health- and capability-aware placement of jobs onto replicas.

The score of placing job *j* on replica *r* is the predicted virtual
completion time, penalised by the replica's live health:

    finish(r, j) = available_at(r) + predicted_seconds(r, j)
                   * (1 + breaker_penalty * open_breakers(r))
                   * (1 + degraded_penalty * degraded_pipelines(r))

``predicted_seconds`` is a **what-if probe** over the job's graph as
preprocessed for the probed replica's configuration.  The engine holds
no per-graph state: the caller owns the preprocessed results (the
fleet runtime preprocesses on each live job's one prepared graph, whose
plan memo gives replicas with equal configurations one plan until the
job ends) and hands them in.  The per-iteration makespan is answered by
the plan's compiled engine (:func:`repro.compiled.plan_engine`) under
the probed replica's channel parameters — the same engine, memoised per
parameter set, that the job's own run and the conformance trace use.
Replicas whose HBM could not hold the job's graph (the Fig. 4 rule,
:func:`repro.hbm.capacity.fits_hbm`, answered from the job's spec) are
filtered out entirely.  Ties break on replica id, keeping placement fully
deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.framework import PreprocessResult
from repro.fleet.job import Job
from repro.fleet.replica import Replica
from repro.hbm.capacity import fits_hbm


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
    def holds(replica: Replica, job: Job) -> bool:
        """Whether the replica's HBM holds the graph ``job`` executes,
        answered from the spec (:meth:`Job.executed_size`) before
        anything is built.  Pipeline ``g`` owns channels ``2g`` and
        ``2g + 1``, so the replica has two channels per pipeline."""
        channels = 2 * replica.handle.framework.num_pipelines
        return fits_hbm(*job.executed_size(), channels)

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
        preprocess: Callable[[Replica], PreprocessResult],
        now: float,
        exclude: Tuple[str, ...] = (),
    ) -> Optional[Replica]:
        """Best SERVING replica for the job, or ``None`` if there is none.

        Candidates must pass :meth:`holds`; ``preprocess`` answers the
        job's graph preprocessed for a candidate replica, and is asked
        only for candidates that pass the filter.
        """
        candidates = [
            r for r in replicas
            if r.is_serving
            and r.replica_id not in exclude
            and self.holds(r, job)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (
                self.score(r, job, preprocess(r), now), r.replica_id
            ),
        )
