"""The serving facade's virtual-clock kernel session.

One :class:`KernelSession` wraps one persistent
:class:`~repro.fleet.runtime.FleetRuntime` and pushes every accepted
job through it as a **micro-batch of one**, in acceptance order, with
``submit_time := clock.now`` (the virtual clock carries across
batches).  That one rule is what makes the whole facade reproducible:
the session's final :class:`~repro.fleet.report.FleetReport` is a pure
function of the *acceptance sequence* — the ordered list of job
payloads — and of the session spec (pool recipe + policy).  Live
serving, crash-recovery replay (``repro serve --resume``) and traffic
replay (``repro traffic replay``) all drive this same class with the
same sequence, so their report digests are bit-identical by
construction; no wall-clock timestamp ever reaches the kernel.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, TypedDict

from repro.errors import UserInputError
from repro.fleet.job import Job, JobResult
from repro.fleet.replica import Replica, make_replica
from repro.fleet.report import FleetReport
from repro.fleet.runtime import FleetPolicy, FleetRuntime
from repro.utils.wire import decode


class SessionSpec(TypedDict):
    """A ``ServingConfig.session_spec()`` dict, as stored and recorded."""

    devices: List[str]
    buffer_vertices: int
    num_pipelines: int
    policy: FleetPolicy


def build_pool(spec: SessionSpec) -> List[Replica]:
    """Fresh replicas from a decoded session spec (one per device)."""
    if not spec["devices"]:
        raise UserInputError("session spec names no devices")
    return [
        make_replica(
            f"serve-{i}-{device.lower()}",
            device,
            buffer_vertices=spec["buffer_vertices"],
            num_pipelines=spec["num_pipelines"],
        )
        for i, device in enumerate(spec["devices"])
    ]


class KernelSession:
    """Deterministic executor behind the wall-clock gateway."""

    def __init__(self, spec: dict):
        spec = decode(SessionSpec, spec, "session spec")
        self.policy = spec["policy"]
        self.runtime = FleetRuntime(build_pool(spec), policy=self.policy)
        #: Jobs served so far, acceptance order, with the submit times
        #: the kernel actually used (the report input).
        self.served_jobs: List[Job] = []
        self._served_ids: set = set()

    @property
    def clock_now(self) -> float:
        return self.runtime.clock.now

    def execute(self, job: Job) -> JobResult:
        """Serve one accepted job to its terminal result.

        The job's wire ``submit_time`` is discarded: the kernel stamps
        the current virtual time, so the schedule depends only on the
        acceptance *order*, never on wall-clock arrival times.
        """
        if job.job_id in self._served_ids:
            raise UserInputError(
                f"job {job.job_id!r} was already served in this session"
            )
        pinned = replace(job, submit_time=self.runtime.clock.now)
        report = self.runtime.run([pinned])
        self.served_jobs.append(pinned)
        self._served_ids.add(pinned.job_id)
        return report.jobs[0]

    def report(self) -> FleetReport:
        """Aggregate report over every job served so far."""
        if not self.served_jobs:
            raise UserInputError(
                "the session has served no jobs yet; nothing to report"
            )
        return self.runtime.report_for(self.served_jobs)

    def digest(self) -> str:
        return self.report().digest()

    def replay(
        self, payloads, results_out: Optional[dict] = None
    ) -> "KernelSession":
        """Serve ``payloads`` (ordered job dicts) through this session.

        The resume/replay workhorse: feeding the recorded acceptance
        sequence through a fresh session reproduces the original
        session state event-for-event.  When ``results_out`` is given,
        each recomputed terminal result is stored under its job id.
        """
        for payload in payloads:
            result = self.execute(Job.from_dict(payload))
            if results_out is not None:
                results_out[result.job_id] = result
        return self
