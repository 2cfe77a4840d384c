"""Seeded generation of randomized campaign cells.

One campaign seed determines every cell exactly: which device, app and
graph each cell gets, and the fault schedule injected into it.  Faults
are drawn from the **survivable** envelope by default — detectable
bit-flips, pinned stalls, bounded latency spikes, at most one dead
channel — because the campaign's null hypothesis is *the runtime absorbs
everything the resilience layer was built for*.  Anything the runtime is
not expected to survive (silent flips, unpinned stalls) is reserved for
deliberate regression fixtures, not the random soak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.apps.registry import get_app_spec
from repro.check.oracles import ORACLE_APPS
from repro.errors import UserInputError
from repro.faults.plan import (
    BitFlipFault,
    DeadChannelFault,
    FaultPlan,
    LatencySpikeFault,
    PipelineStallFault,
)
from repro.chaos.spec import GRAPH_KINDS, CellSpec, GraphSpec
from repro.utils.wire import Wire

#: Apps the campaign can validate: the judged apps.
CAMPAIGN_APPS = ORACLE_APPS

#: (min events, max events, dead-channel probability) per intensity.
INTENSITIES = {
    "light": (1, 2, 0.1),
    "moderate": (1, 3, 0.3),
    "heavy": (2, 5, 0.6),
}


@dataclass(frozen=True)
class CampaignConfig(Wire):
    """Inputs that fully determine a campaign's cell matrix."""

    seed: int = 0
    cells: int = 50
    devices: Tuple[str, ...] = ("U280", "U50")
    apps: Tuple[str, ...] = CAMPAIGN_APPS
    intensity: str = "moderate"
    buffer_vertices: int = 256
    num_pipelines: int = 4
    max_iterations: int = 30

    def __post_init__(self):
        if self.cells < 1:
            raise UserInputError(f"campaign needs >= 1 cell, got {self.cells}")
        if self.intensity not in INTENSITIES:
            raise UserInputError(
                f"unknown intensity {self.intensity!r}; expected one of "
                f"{sorted(INTENSITIES)}"
            )
        if not self.devices:
            raise UserInputError("campaign needs at least one device")
        unknown = [a for a in self.apps if a not in CAMPAIGN_APPS]
        if unknown:
            raise UserInputError(
                f"apps without chaos oracles: {unknown}; "
                f"available: {CAMPAIGN_APPS}"
            )


def _graph_spec(rng: np.random.Generator, app: str) -> GraphSpec:
    kind = GRAPH_KINDS[int(rng.integers(len(GRAPH_KINDS)))]
    vertices = int(rng.integers(256, 1025))
    edges = vertices * int(rng.integers(4, 11))
    return GraphSpec(
        kind=kind,
        vertices=vertices,
        edges=edges,
        seed=int(rng.integers(1, 1_000_000)),
        exponent=float(rng.uniform(1.6, 2.0)),
        weighted=get_app_spec(app).needs_weights,
    )


def _fault_plan(
    rng: np.random.Generator, intensity: str, num_pipelines: int
) -> FaultPlan:
    if num_pipelines < 1:
        raise UserInputError(
            f"num_pipelines must be >= 1, got {num_pipelines}"
        )
    lo, hi, p_dead = INTENSITIES[intensity]
    num_events = int(rng.integers(lo, hi + 1))
    num_channels = 2 * num_pipelines
    dead: List[DeadChannelFault] = []
    spikes: List[LatencySpikeFault] = []
    flips: List[BitFlipFault] = []
    stalls: List[PipelineStallFault] = []
    for _ in range(num_events):
        kind = rng.uniform()
        if kind < p_dead * 0.5 and not dead:
            # At most one dead channel per cell: each one permanently
            # retires a pipeline, and stacking several would shrink the
            # topology below what small graphs schedule sensibly onto.
            dead.append(DeadChannelFault(
                channel=int(rng.integers(num_channels)),
                onset_cycle=float(rng.uniform(0, 5_000)),
            ))
        elif kind < 0.45:
            spikes.append(LatencySpikeFault(
                channel=int(rng.integers(num_channels)),
                onset_cycle=float(rng.uniform(0, 5_000)),
                duration_cycles=float(rng.uniform(10_000, 80_000)),
                multiplier=float(rng.uniform(4.0, 16.0)),
            ))
        elif kind < 0.7:
            # Detectable flips are retry-only (no channel to blame), so
            # the rate is kept low enough that exhausting max_retries
            # consecutive attempts stays vanishingly unlikely.
            flips.append(BitFlipFault(
                probability=float(rng.uniform(0.002, 0.01)),
                detectable=True,
                onset_cycle=0.0,
            ))
        else:
            stalls.append(PipelineStallFault(
                probability=float(rng.uniform(0.05, 0.25)),
                pipeline=int(rng.integers(num_pipelines)),
                onset_cycle=0.0,
            ))
    return FaultPlan(
        seed=int(rng.integers(1, 1_000_000)),
        dead_channels=tuple(dead),
        latency_spikes=tuple(spikes),
        bit_flips=tuple(flips),
        stalls=tuple(stalls),
    )


def generate_cells(config: CampaignConfig) -> List[CellSpec]:
    """The cell matrix of a campaign (deterministic in ``config``)."""
    rng = np.random.default_rng(config.seed)
    apps: Sequence[str] = config.apps
    cells = []
    for i in range(config.cells):
        device = config.devices[i % len(config.devices)]
        app = apps[int(rng.integers(len(apps)))]
        graph = _graph_spec(rng, app)
        plan = _fault_plan(rng, config.intensity, config.num_pipelines)
        cells.append(CellSpec(
            cell_id=f"c{config.seed:04d}-{i:04d}",
            device=device,
            app=app,
            graph=graph,
            fault_plan=plan,
            root=0,
            max_iterations=config.max_iterations,
            buffer_vertices=config.buffer_vertices,
            num_pipelines=config.num_pipelines,
        ))
    return cells
