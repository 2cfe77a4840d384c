"""Compiled-simulation specs: what exactly a lowered plan binds to.

A compiled evaluation is a pure function of

* the device the run is placed on (only through its accelerator shape —
  the device string is carried for reporting and key separation),
* the accelerator combo (``num_little``/``num_big`` plus the frozen
  :class:`~repro.arch.config.PipelineConfig`),
* the frozen :class:`~repro.hbm.channel.HbmTimingParams`, and
* the edge record width (8 B plain / 12 B weighted).

:class:`CompiledSpec` freezes those four inputs and derives a SHA-256
digest from their ``repr``, which is injective by construction: any field
change (including fields added later to the nested frozen dataclasses)
changes the digest.  The digest-injectivity property test in
``tests/test_compiled_equivalence.py`` pins this.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.hbm.channel import HbmTimingParams


@dataclass(frozen=True)
class CompiledSpec:
    """Identity of one compiled (device, combo, channel-params) binding."""

    #: Device name the run targets ("" when not placed on a device).
    device: str
    #: Pipeline combo: counts + the frozen per-pipeline configuration.
    accelerator: AcceleratorConfig
    #: Frozen HBM channel timing constants the evaluation used.
    channel: HbmTimingParams
    #: Edge record width in bytes (8 plain / 12 weighted).
    edge_bytes: int = 8

    def digest(self) -> str:
        """SHA-256 over the full field tuple (via frozen-dataclass repr).

        ``repr`` spells every field of every nested frozen dataclass, so
        two specs differing in *any* constant — PE counts, buffer sizes,
        latency parameters, edge width — can never alias.
        """
        return hashlib.sha256(repr(self).encode()).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable tag for reports and bench artifacts."""
        dev = self.device or "any"
        return f"{dev}:{self.accelerator.label}:{self.edge_bytes}B"
