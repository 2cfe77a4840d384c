"""The performance-knob record every accelerated entry point accepts.

One frozen :class:`PerfConfig` travels from the CLI (``--jobs``) into
:func:`repro.chaos.campaign.run_campaign`,
:func:`repro.chaos.fleet_soak.run_fleet_soak` and
:func:`repro.model.sweep.sweep_parameter`, so parallelism is configured
the same way everywhere.  The default is the safe identity: one worker
(fully serial).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UserInputError


@dataclass(frozen=True)
class PerfConfig:
    """Worker knob of one accelerated invocation."""

    #: Worker processes for :func:`repro.perf.parallel.parallel_map`;
    #: 1 means strictly serial (no pool is ever created).
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise UserInputError(
                f"workers must be >= 1, got {self.workers}"
            )

    @property
    def parallel(self) -> bool:
        """True when a worker pool would actually be used."""
        return self.workers > 1
