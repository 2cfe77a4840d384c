"""Tests for channel layout, capacity accounting and port management."""

import pytest

from repro.graph.datasets import DATASETS
from repro.hbm.capacity import CHANNEL_CAPACITY_BYTES, fits_hbm
from repro.hbm.channel import BLOCK_BYTES
from repro.hbm.layout import build_channel_layout
from repro.hbm.tiered import BILLION_SCALE, graph_needs_tiering
from repro.hbm.ports import (
    PORTS_PER_PIPELINE_UNWRAPPED,
    PORTS_PER_PIPELINE_WRAPPED,
    bind_ports,
    max_pipelines,
)


class TestLayout:
    def test_regions_block_aligned(self):
        layout = build_channel_layout(1001, 7777)
        assert layout.src_prop_offset % BLOCK_BYTES == 0
        assert layout.dst_prop_offset % BLOCK_BYTES == 0

    def test_regions_do_not_overlap(self):
        layout = build_channel_layout(1000, 5000)
        assert layout.src_prop_offset >= layout.edges_bytes
        assert (
            layout.dst_prop_offset
            >= layout.src_prop_offset + layout.src_prop_bytes
        )

    def test_fits(self):
        layout = build_channel_layout(100, 100)
        assert layout.fits(CHANNEL_CAPACITY_BYTES)
        assert not layout.fits(64)

    def test_vertex_block_math_matches_paper(self):
        # Sec. III-B: index = floor(src*32/512), offset = src*32 mod 512
        # (bits); our byte-level equivalents at a zero region base.
        layout = build_channel_layout(0, 1024)
        assert layout.vertex_block_offset(16) == 0
        assert layout.vertex_block_offset(17) == 4
        base = layout.src_prop_offset // BLOCK_BYTES
        assert layout.vertex_block_index(16) == base + 1

    def test_total_bytes(self):
        layout = build_channel_layout(10, 10)
        assert layout.total_bytes == (
            layout.dst_prop_offset + layout.dst_prop_bytes
        )


class TestCapacity:
    def test_capacity_scales_linearly(self):
        # Edges stripe over the channels: twice the channels hold twice
        # the edges next to the same property arrays.
        edges = (CHANNEL_CAPACITY_BYTES - 2 * 4096) // 8
        assert fits_hbm(1024, edges, 8, 1)
        assert not fits_hbm(1024, 2 * edges, 8, 1)
        assert fits_hbm(1024, 2 * edges, 8, 2)

    def test_negative_channels_raise(self):
        for channels in (0, -1):
            with pytest.raises(ValueError):
                fits_hbm(10, 10, 8, channels)

    def test_small_graph_fits_one_channel(self):
        assert fits_hbm(1000, 10_000, 8, 1)

    def test_fig12_oom_semantics(self):
        # A graph whose replicated property arrays exceed one channel
        # is OoM at any channel count, however thin the edge share.
        assert not fits_hbm(40_000_000, 10, 8, 2)
        assert not fits_hbm(40_000_000, 10, 8, 32)

    def test_rule_is_the_channel_layout(self):
        # The boundary is exactly Fig. 4's block-aligned layout.
        for vertices, edges, edge_bytes, channels in (
            (1000, 10_000, 8, 1), (2**24, 2**30, 12, 8),
            (33_554_432, 2**20, 8, 2), (10**6, 3 * 10**9, 8, 28),
        ):
            layout = build_channel_layout(
                -(-edges // channels), vertices, edge_bytes
            )
            assert fits_hbm(vertices, edges, edge_bytes, channels) == (
                layout.total_bytes <= CHANNEL_CAPACITY_BYTES
            )


class TestPaperCapacityVerdicts:
    """The paper's memory verdicts, from published counts alone."""

    def test_fig12_oom_points(self):
        # Fig. 12: one channel pair per pipeline; OoM exactly at R24
        # with 2/4 pipelines, G23 with 2/4/8 and DB with 2/4.
        oom = {
            (key, pipelines)
            for key, spec in DATASETS.items()
            for pipelines in (2, 4, 8, 14)
            if not fits_hbm(
                spec.num_vertices, spec.num_edges, 8, 2 * pipelines
            )
        }
        assert len(DATASETS) == 16
        assert oom == {
            ("R24", 2), ("R24", 4),
            ("G23", 2), ("G23", 4), ("G23", 8),
            ("DB", 2), ("DB", 4),
        }

    def test_only_billion_scale_graphs_need_tiering(self):
        # Sec. VIII: every Table III graph ran from HBM; billion-scale
        # graphs exceed the device's 8 GB.
        for key, spec in DATASETS.items():
            assert not graph_needs_tiering(
                spec.num_edges, 8, spec.num_vertices
            ), key
        for name, (vertices, edges) in BILLION_SCALE.items():
            assert graph_needs_tiering(edges, 8, vertices), name


class TestPorts:
    def test_u280_pipeline_count(self):
        # 32 ports, 4 reserved, 2 per pipeline -> 14 (Sec. VI-A).
        assert max_pipelines(32, 32) == 14

    def test_u50_pipeline_count(self):
        # 28 ports -> 12 pipelines (Sec. VI-A).
        assert max_pipelines(32, 28) == 12

    def test_wrapper_saves_a_port_per_pipeline(self):
        with_wrapper = max_pipelines(32, 32, use_port_wrapper=True)
        without = max_pipelines(32, 32, use_port_wrapper=False)
        assert with_wrapper > without
        assert PORTS_PER_PIPELINE_WRAPPED < PORTS_PER_PIPELINE_UNWRAPPED

    def test_channel_bound(self):
        assert max_pipelines(4, 100) == 4

    def test_binding_disjoint_ports(self):
        binding = bind_ports(5, 32)
        seen = set()
        for ports in binding.pipeline_ports.values():
            for p in ports:
                assert p not in seen
                seen.add(p)
        for p in binding.apply_ports:
            assert p not in seen

    def test_binding_total(self):
        binding = bind_ports(14, 32)
        assert binding.total_ports_used == 32

    def test_binding_overflow_raises(self):
        with pytest.raises(ValueError):
            bind_ports(15, 32)
