"""The performance-knob record every accelerated entry point accepts.

One frozen :class:`PerfConfig` travels from the CLI (``--jobs``,
``--no-compiled``) into
:func:`repro.chaos.campaign.run_campaign`,
:func:`repro.chaos.fleet_soak.run_fleet_soak`,
:func:`repro.model.sweep.sweep_parameter` and
:func:`repro.runtime.host.init_accelerator`, so parallelism and the
compiled core are configured the same way everywhere.  The default is
the safe identity: one worker (fully serial) with the compiled core on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UserInputError


@dataclass(frozen=True)
class PerfConfig:
    """Worker + compiled-core knobs of one accelerated invocation."""

    #: Worker processes for :func:`repro.perf.parallel.parallel_map`;
    #: 1 means strictly serial (no pool is ever created).
    workers: int = 1
    #: Whether fault-free timing passes use the compiled simulation
    #: core (bit-identical to the interpreted path; ``--no-compiled``
    #: is the escape hatch back to the reference oracle).
    compiled: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise UserInputError(
                f"workers must be >= 1, got {self.workers}"
            )

    @property
    def parallel(self) -> bool:
        """True when a worker pool would actually be used."""
        return self.workers > 1

    def apply(self) -> None:
        """Set the process-global compiled switch."""
        # Imported lazily: repro.compiled pulls in the arch simulators.
        from repro.compiled import configure_compiled

        configure_compiled(self.compiled)

    def to_dict(self) -> dict:
        return {"workers": self.workers, "compiled": self.compiled}

    @staticmethod
    def from_dict(data: dict) -> "PerfConfig":
        return PerfConfig(
            workers=int(data.get("workers", 1)),
            compiled=bool(data.get("compiled", True)),
        )
