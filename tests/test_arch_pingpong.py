"""Tests for the Little pipeline's Ping-Pong Buffer simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import PipelineConfig
from repro.arch.pingpong import PingPongBufferSim, PingPongStats


def structure_reference(config, src):
    """The ``np.unique`` / ``searchsorted`` form of the structure pass."""
    k = config.edges_per_set
    num_sets = -(-src.size // k)
    last_of_set = np.minimum(np.arange(1, num_sets + 1) * k - 1, src.size - 1)
    blocks = src // config.vertices_per_block
    rel = blocks - blocks[0]
    span = int(rel[-1] + 1)
    seg_blocks = config.pingpong_blocks_per_side
    segments = rel // seg_blocks
    if config.jump_access:
        needed = np.unique(segments)
    else:
        needed = np.arange(segments[-1] + 1)
    seg_rank = np.searchsorted(needed, segments)
    fill_pos = seg_rank * seg_blocks + (rel - segments * seg_blocks) + 1.0
    fetched = int(needed.size) * seg_blocks
    fetched -= seg_blocks - (int(rel[-1]) % seg_blocks + 1)
    fetched = min(fetched, span)
    stats = PingPongStats(
        num_edges=int(src.size),
        num_sets=num_sets,
        blocks_fetched=fetched,
        blocks_skipped=max(span - fetched, 0),
        span_blocks=span,
    )
    return fill_pos[last_of_set], stats


@pytest.fixture()
def pingpong(config, channel):
    return PingPongBufferSim(config, channel)


class TestFillModel:
    def test_fetches_span_when_all_needed(self, pingpong, config):
        # Touch every vertex: the whole span streams in.
        src = np.arange(4096, dtype=np.int64)
        _, stats = pingpong.access_ready_times(src)
        assert stats.blocks_fetched == stats.span_blocks
        assert stats.blocks_skipped == 0

    def test_jump_access_skips_unneeded_segments(self, config, channel):
        seg_vertices = config.pingpong_blocks_per_side * config.vertices_per_block
        # Two hot regions far apart: jump access skips the gap.
        src = np.concatenate(
            [
                np.arange(64, dtype=np.int64),
                np.arange(64, dtype=np.int64) + 20 * seg_vertices,
            ]
        )
        sim = PingPongBufferSim(config, channel)
        _, stats = sim.access_ready_times(src)
        assert stats.blocks_skipped > 0
        assert stats.span_fraction_fetched < 1.0

    def test_no_jump_access_streams_everything(self, config, channel):
        seg_vertices = config.pingpong_blocks_per_side * config.vertices_per_block
        src = np.concatenate(
            [
                np.arange(64, dtype=np.int64),
                np.arange(64, dtype=np.int64) + 20 * seg_vertices,
            ]
        )
        cfg = PipelineConfig(
            gather_buffer_vertices=config.gather_buffer_vertices,
            jump_access=False,
        )
        sim = PingPongBufferSim(cfg, channel)
        _, stats = sim.access_ready_times(src)
        sim_jump = PingPongBufferSim(config, channel)
        _, stats_jump = sim_jump.access_ready_times(src)
        assert stats.blocks_fetched > stats_jump.blocks_fetched

    def test_jump_access_faster_on_gappy_partitions(self, config, channel):
        seg_vertices = config.pingpong_blocks_per_side * config.vertices_per_block
        src = np.concatenate(
            [
                np.arange(8, dtype=np.int64),
                np.arange(8, dtype=np.int64) + 50 * seg_vertices,
            ]
        )
        with_jump = PingPongBufferSim(config, channel)
        r1, _ = with_jump.access_ready_times(src)
        cfg = PipelineConfig(
            gather_buffer_vertices=config.gather_buffer_vertices,
            jump_access=False,
        )
        without = PingPongBufferSim(cfg, channel)
        r2, _ = without.access_ready_times(src)
        assert r1[-1] < r2[-1]


class TestReadyTimes:
    def test_monotonic(self, pingpong, rng):
        src = np.sort(rng.integers(0, 50_000, 1000))
        ready, _ = pingpong.access_ready_times(src)
        assert np.all(np.diff(ready) >= 0)

    def test_burst_rate_one_block_per_cycle(self, pingpong, config, channel):
        # Fill-bound workload: one edge per block.
        n = 2048
        src = np.arange(n, dtype=np.int64) * config.vertices_per_block
        ready, stats = pingpong.access_ready_times(src)
        assert ready[-1] == pytest.approx(
            stats.span_blocks + channel.params.min_latency, rel=0.05
        )

    def test_empty(self, pingpong):
        ready, stats = pingpong.access_ready_times(np.zeros(0, dtype=np.int64))
        assert ready.size == 0 and stats.span_blocks == 0

    def test_single_edge(self, pingpong):
        ready, stats = pingpong.access_ready_times(np.array([42]))
        assert ready.size == 1
        assert stats.blocks_fetched == 1

    def test_offset_base_block(self, pingpong):
        # Sources far from zero: only the local span matters.
        src = np.arange(100, dtype=np.int64) + 1_000_000
        _, stats = pingpong.access_ready_times(src)
        assert stats.span_blocks <= 8


class TestStructureDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(0, 20_000), min_size=1, max_size=400),
        st.sampled_from([512, 2048, 32 * 1024]),
        st.booleans(),
    )
    def test_matches_unique_searchsorted_reference(
        self, channel, ids, pingpong_bytes, jump_access
    ):
        cfg = PipelineConfig(
            gather_buffer_vertices=512,
            pingpong_bytes=pingpong_bytes,
            jump_access=jump_access,
        )
        src = np.sort(np.array(ids, dtype=np.int64))
        fill, stats = PingPongBufferSim(cfg, channel).access_structure(src)
        ref_fill, ref_stats = structure_reference(cfg, src)
        assert fill.dtype == ref_fill.dtype
        np.testing.assert_array_equal(fill, ref_fill)
        assert stats == ref_stats
