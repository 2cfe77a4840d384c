"""Shared graph/device setup for the test and benchmark suites.

One home for the configuration both ``tests/conftest.py`` and
``benchmarks/conftest.py`` previously duplicated: buffer-size constants,
framework factories at test and benchmark scale, and the hand-built
Fig. 1 example graph.  Import from here rather than re-declaring — the
conformance subsystem assumes both suites exercise the same setups.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.arch.config import PipelineConfig
from repro.core.framework import ReGraph
from repro.graph.coo import Graph

#: Buffer size small enough that test graphs produce many partitions.
TEST_BUFFER_VERTICES = 512

#: Scale factor applied to every dataset stand-in in benchmarks.
BENCH_SCALE = 1.0 / 32.0

#: Gather buffer at benchmark scale (65,536 / 32 on U280, half on U50),
#: preserving the partition-count ratio (V / U) of the full-size runs.
BENCH_BUFFERS = {"U280": 2048, "U50": 1024}

#: Graphs used by the throughput sweeps (small enough to simulate).
SWEEP_GRAPHS = ("R21", "GG", "HD", "PK", "HW", "OR")


def make_pipeline_config(
    buffer_vertices: int = TEST_BUFFER_VERTICES, **overrides
) -> PipelineConfig:
    """A pipeline configuration with a test-sized gather buffer."""
    return PipelineConfig(
        gather_buffer_vertices=buffer_vertices, **overrides
    )


def make_framework(
    platform: str = "U280",
    buffer_vertices: int = TEST_BUFFER_VERTICES,
    num_pipelines=None,
    **config_overrides,
) -> ReGraph:
    """A ReGraph framework at test scale."""
    return ReGraph(
        platform,
        pipeline=make_pipeline_config(buffer_vertices, **config_overrides),
        num_pipelines=num_pipelines,
    )


def bench_pipeline_config(platform: str = "U280") -> PipelineConfig:
    """The Sec. VI-A pipeline config at benchmark scale."""
    return PipelineConfig(gather_buffer_vertices=BENCH_BUFFERS[platform])


def bench_framework(platform: str = "U280", num_pipelines=None) -> ReGraph:
    """A ReGraph instance at benchmark scale."""
    return ReGraph(
        platform,
        pipeline=bench_pipeline_config(platform),
        num_pipelines=num_pipelines,
    )


def fig1_graph() -> Graph:
    """The Fig. 1 example graph: 6 vertices, 8 edges, hand-built."""
    src = [0, 0, 1, 2, 3, 4, 4, 5]
    dst = [1, 3, 2, 0, 4, 2, 5, 0]
    return Graph(6, src, dst, name="fig1")


@contextlib.contextmanager
def interpreted_oracle():
    """Run every simulator pass through the interpreted reference walks.

    Inside the block :class:`~repro.core.system.SystemSimulator`'s
    compiled timing passes (fault-free and faulted) become the per-task
    ``_compute_timing`` walk, its compiled functional pass (bit-flip
    replay included) becomes ``_interpreted_functional`` with its
    per-buffer ``filter_buffer`` hook, and trace synthesis becomes
    :func:`repro.arch.trace.interpreted_trace` — the oracle every
    differential harness compares production against.  This block and
    ``benchmarks/bench_perf_regression.py``'s oracle class are the only
    ways to reach the interpreted walks.
    """
    import repro.compiled.trace as compiled_trace
    from repro.arch.trace import interpreted_trace
    from repro.core.system import SystemSimulator

    with contextlib.ExitStack() as stack:
        for name, oracle in (
            ("_compiled_timing", SystemSimulator._compute_timing),
            ("_faulted_timing", SystemSimulator._compute_timing),
            ("_compiled_functional", SystemSimulator._interpreted_functional),
        ):
            stack.enter_context(mock.patch.object(SystemSimulator, name, oracle))
        stack.enter_context(
            mock.patch.object(
                compiled_trace, "synthesize_trace", interpreted_trace
            )
        )
        yield
