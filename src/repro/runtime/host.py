"""OpenCL-style host API over the simulated accelerator.

The call sequence mirrors a Vitis host program:

    devices = list_devices()
    handle = init_accelerator("U280")          # context + xclbin load
    handle.load_graph(graph)                   # preprocess + buffers
    result = handle.execute("pagerank")        # enqueue + wait
    handle.release()

Under the hood, ``load_graph`` runs the offline phase (DBG, partitioning,
scheduling) and ``execute`` drives the full-system simulator, charging a
modelled bitstream-programming and buffer-migration overhead so host-side
timing accounting resembles the real flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union


from repro.arch.platform import PLATFORMS, FpgaPlatform, get_platform
from repro.core.framework import PreprocessResult, ReGraph
from repro.core.system import RunReport
from repro.errors import (
    AcceleratorDrainingError,
    AcceleratorReleasedError,
    DeviceOutOfMemoryError,
    NoGraphLoadedError,
    UserInputError,
)
from repro.faults.resilience import (
    CircuitBreakerBank,
    ResiliencePolicy,
    RunHealthReport,
)
from repro.graph.coo import VERTEX_WORD_BYTES, Graph
from repro.hbm.capacity import CHANNEL_CAPACITY_BYTES, fits_hbm
from repro.utils.wire import Wire

#: Modelled one-time xclbin programming latency (seconds).
PROGRAMMING_SECONDS = 2.5

#: Modelled host->HBM transfer bandwidth over PCIe Gen3 x16 (bytes/s).
PCIE_BYTES_PER_SECOND = 12e9


@dataclass(frozen=True)
class HostTimingConfig(Wire):
    """Per-handle host-side timing knobs (defaults: the module's
    :data:`PROGRAMMING_SECONDS` and :data:`PCIE_BYTES_PER_SECOND`)."""

    programming_seconds: float = PROGRAMMING_SECONDS
    pcie_bytes_per_second: float = PCIE_BYTES_PER_SECOND

    def __post_init__(self):
        if (
            not math.isfinite(self.programming_seconds)
            or self.programming_seconds < 0
        ):
            raise UserInputError(
                "programming_seconds must be a non-negative finite time, "
                f"got {self.programming_seconds}"
            )
        if math.isnan(self.pcie_bytes_per_second) or (
            self.pcie_bytes_per_second <= 0
        ):
            raise UserInputError(
                "pcie_bytes_per_second must be positive, got "
                f"{self.pcie_bytes_per_second}"
            )

    @staticmethod
    def instant() -> "HostTimingConfig":
        """Zero modelled host overhead (fleet tests and benchmarks)."""
        return HostTimingConfig(
            programming_seconds=0.0, pcie_bytes_per_second=float("inf")
        )


class VirtualClock:
    """Deterministic monotone clock the fleet runtime schedules against.

    All fleet timing is *modelled* (simulated seconds, like
    :attr:`RunReport.total_seconds`), never wall clock, which is what
    makes a fleet run bit-reproducible from its seed.
    """

    def __init__(self, start: float = 0.0):
        if not math.isfinite(start):
            raise UserInputError(f"clock start must be finite, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds`` (>= 0); returns the new time."""
        if not math.isfinite(seconds) or seconds < 0:
            raise UserInputError(
                f"clock can only advance by a finite non-negative amount, "
                f"got {seconds}"
            )
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Move forward to absolute time ``when`` (never backwards)."""
        if not math.isfinite(when):
            raise UserInputError(f"clock target must be finite, got {when}")
        if when > self._now:
            self._now = when
        return self._now


def list_devices() -> List[str]:
    """Names of the available (simulated) accelerator cards."""
    return sorted(PLATFORMS)


@dataclass
class DeviceBuffer:
    """A host-visible handle to a region resident in HBM channels."""

    name: str
    num_bytes: int
    channels: List[int]

    @property
    def per_channel_bytes(self) -> int:
        """Bytes striped to each backing channel."""
        return -(-self.num_bytes // max(len(self.channels), 1))

    def fits(self) -> bool:
        """Whether the striping respects per-channel capacity."""
        return self.per_channel_bytes <= CHANNEL_CAPACITY_BYTES


@dataclass
class AcceleratorHandle:
    """An initialised accelerator context (device + programmed design)."""

    platform: FpgaPlatform
    framework: ReGraph
    programmed: bool = True
    migration_seconds: float = 0.0
    buffers: Dict[str, DeviceBuffer] = field(default_factory=dict)
    #: Host-side timing knobs of this context (instance-level so fleets
    #: can model zero programming latency without monkeypatching).
    timing: HostTimingConfig = field(default_factory=HostTimingConfig)
    #: Draining contexts finish in-flight work but accept nothing new.
    draining: bool = False
    _pre: Optional[PreprocessResult] = None
    #: Health report of the most recent ``execute`` (fleet placement
    #: reads this without re-running anything).
    last_health: Optional[RunHealthReport] = None
    #: Per-channel circuit breakers shared across ``execute`` calls on
    #: this handle: a channel that keeps faulting stays open (and its
    #: pipeline degraded) for the lifetime of the context, like a real
    #: host runtime blacklisting a flaky HBM channel.  Created on the
    #: first ``execute``.
    breakers: Optional[CircuitBreakerBank] = None

    # -- buffer management --------------------------------------------
    def allocate(self, name: str, num_bytes: int, channels: List[int]):
        """Allocate a named buffer striped over the given channels."""
        if not self.programmed:
            raise AcceleratorReleasedError("accelerator released")
        buffer = DeviceBuffer(name=name, num_bytes=num_bytes, channels=channels)
        if not buffer.fits():
            raise DeviceOutOfMemoryError(
                f"buffer {name!r} needs {buffer.per_channel_bytes} B per "
                f"channel, capacity is {CHANNEL_CAPACITY_BYTES}"
            )
        self.buffers[name] = buffer
        return buffer

    def _migrate(self, num_bytes: int) -> None:
        """Charge host->device transfer time for ``num_bytes``."""
        self.migration_seconds += num_bytes / self.timing.pcie_bytes_per_second

    # -- graph loading --------------------------------------------------
    def load_graph(
        self, graph: Union[Graph, PreprocessResult]
    ) -> PreprocessResult:
        """Preprocess and 'migrate' a graph onto the device.

        A :class:`Graph` is preprocessed for this handle's configuration;
        a :class:`~repro.core.framework.PreprocessResult` of this
        configuration is loaded as it is (a fleet job hands over the one
        it scored replicas with, built on its one prepared graph).  A
        graph the HBM rule (:func:`~repro.hbm.capacity.fits_hbm`)
        refuses raises :class:`~repro.errors.DeviceOutOfMemoryError`
        before anything is preprocessed.
        """
        if not self.programmed:
            raise AcceleratorReleasedError("accelerator released")
        if self.draining:
            raise AcceleratorDrainingError(
                "accelerator is draining; no new graphs accepted"
            )
        # Pipeline g owns channels 2g and 2g+1; each holds its share of
        # the edges and both property arrays (Fig. 4).
        channels = list(range(2 * self.framework.num_pipelines))
        pre = graph if isinstance(graph, PreprocessResult) else None
        if pre is not None:
            graph = pre.graph
        if not fits_hbm(
            graph.num_vertices, graph.num_edges, graph.edge_bytes,
            len(channels),
        ):
            raise DeviceOutOfMemoryError(
                f"graph with {graph.num_vertices} vertices and "
                f"{graph.num_edges} edges does not fit {len(channels)} "
                f"HBM channels of {CHANNEL_CAPACITY_BYTES} B"
            )
        self._pre = pre if pre is not None else self.framework.preprocess(graph)
        self.allocate(
            "edges", graph.num_edges * graph.edge_bytes, channels=channels
        )
        self.allocate(
            "props", 2 * graph.num_vertices * VERTEX_WORD_BYTES * len(channels),
            channels=channels,
        )
        self._migrate(graph.num_edges * graph.edge_bytes)
        self._migrate(graph.num_vertices * 4)
        return self._pre

    # -- execution -------------------------------------------------------
    def execute(
        self,
        app: str,
        root: int = 0,
        max_iterations: Optional[int] = None,
        fault_plan=None,
        resilience=None,
    ) -> RunReport:
        """Enqueue an application and block until completion.

        ``app`` is any registry name (pagerank, bfs, closeness, wcc,
        sssp, radii); ``root`` is an input-graph vertex ID for the apps
        that take one.  ``fault_plan`` / ``resilience`` configure the
        resilient executor every run goes through (see
        :meth:`repro.core.framework.ReGraph.run`).  An unknown app or a
        root outside the graph raises
        :class:`~repro.errors.UserInputError`.
        """
        if not self.programmed:
            raise AcceleratorReleasedError("accelerator released")
        if self.draining:
            raise AcceleratorDrainingError(
                "accelerator is draining; no new work accepted"
            )
        if self._pre is None:
            raise NoGraphLoadedError(
                "no graph loaded; call load_graph() first"
            )
        if self.breakers is None:
            policy = resilience or ResiliencePolicy()
            self.breakers = CircuitBreakerBank(policy.breaker_threshold)
        run = self.framework.run_app(
            self._pre,
            app,
            root=root,
            max_iterations=max_iterations,
            fault_plan=fault_plan,
            resilience=resilience,
            breakers=self.breakers,
        )
        self.last_health = run.health
        return run

    def total_offload_seconds(self, run: RunReport) -> float:
        """End-to-end host view: programming + migration + execution."""
        return (
            self.timing.programming_seconds
            + self.migration_seconds
            + run.total_seconds
        )

    # -- fleet lifecycle hooks -----------------------------------------
    def drain(self) -> None:
        """Stop accepting new work (in-flight work may still finish)."""
        self.draining = True

    def resume(self) -> None:
        """Accept work again (quarantine canary probes use this)."""
        self.draining = False

    # -- fleet health hooks --------------------------------------------
    def open_breaker_count(self) -> int:
        """Channels this context has blacklisted (placement signal)."""
        if self.breakers is None:
            return 0
        return len(self.breakers.open_channels())

    def breaker_snapshot(self) -> Dict[str, dict]:
        """Per-channel breaker state, empty before the first run."""
        if self.breakers is None:
            return {}
        return self.breakers.snapshot()

    def hbm_bytes_used(self) -> int:
        """Bytes currently resident across this context's buffers."""
        return sum(buffer.num_bytes for buffer in self.buffers.values())

    def hbm_bytes_total(self) -> int:
        """Modelled HBM capacity of the card."""
        return self.platform.num_channels * CHANNEL_CAPACITY_BYTES

    def hbm_bytes_free(self) -> int:
        """Remaining modelled HBM capacity (placement signal)."""
        return max(self.hbm_bytes_total() - self.hbm_bytes_used(), 0)

    def release(self) -> None:
        """Free the context; further calls raise."""
        self.programmed = False
        self.draining = False
        self.buffers.clear()
        self._pre = None
        self.last_health = None
        self.breakers = None


def init_accelerator(
    platform: str = "U280",
    pipeline=None,
    num_pipelines: Optional[int] = None,
    timing: Optional[HostTimingConfig] = None,
) -> AcceleratorHandle:
    """``initAccelerator()``: create a programmed accelerator context."""
    if isinstance(platform, str) and platform.upper() not in PLATFORMS:
        raise UserInputError(
            f"unknown device {platform!r}; valid devices: "
            f"{', '.join(list_devices())}"
        )
    fw = ReGraph(platform, pipeline=pipeline, num_pipelines=num_pipelines)
    return AcceleratorHandle(
        platform=get_platform(platform),
        framework=fw,
        timing=timing or HostTimingConfig(),
    )
