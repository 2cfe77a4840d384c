"""Pipeline and accelerator configuration records.

A :class:`PipelineConfig` captures the per-pipeline design parameters of
Sec. III / VI-A (PE counts, IIs, buffer sizes, optional-feature toggles for
the ablation benches); an :class:`AcceleratorConfig` is one point of the
design space ReGraph's generator enumerates — ``M`` Little plus ``N`` Big
pipelines on a platform (the "7L7B" labels of Figs. 10-11).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.platform import FpgaPlatform
from repro.errors import UserInputError
from repro.graph.coo import VERTEX_WORD_BYTES
from repro.hbm.channel import BLOCK_BYTES


@dataclass(frozen=True)
class PipelineConfig:
    """Design parameters shared by Big and Little pipelines."""

    #: Scatter PEs per pipeline (edges processed per cycle); 8 in Sec. VI-A.
    n_spe: int = 8
    #: Gather PEs per pipeline; 8 in Sec. VI-A.
    n_gpe: int = 8
    #: Initiation interval of a Scatter PE.
    ii_spe: int = 1
    #: Initiation interval of a Gather PE (URAM shift registers give II=1).
    ii_gpe: int = 1
    #: Destination vertices buffered per Gather PE (platform dependent).
    gather_buffer_vertices: int = 65_536
    #: Total Ping-Pong Buffer size in bytes ("32KB", Sec. VI-A).
    pingpong_bytes: int = 32 * 1024
    #: URAM access width in bytes (Sec. V-C: 64-bit granularity).
    uram_port_bytes: int = 8
    #: Constant partition-switch overhead in cycles (calibrated, Sec. IV-A).
    switch_cycles: float = 2_000.0
    #: Big pipeline: route updates so N_gpe partitions run per execution.
    data_routing: bool = True
    #: Big pipeline: reuse the last requested block in the Vertex Loader.
    last_block_cache: bool = True
    #: Little pipeline: jump access skips unneeded buffer-sized segments.
    jump_access: bool = True

    def __post_init__(self):
        if self.gather_buffer_vertices < 1:
            raise UserInputError(
                "gather_buffer_vertices must be >= 1, got "
                f"{self.gather_buffer_vertices}"
            )

    @property
    def edges_per_set(self) -> int:
        """Edges consumed per cycle-step, equal to the Scatter PE count."""
        return self.n_spe

    @property
    def vertices_per_block(self) -> int:
        """32-bit vertex properties per 512-bit block."""
        return BLOCK_BYTES // VERTEX_WORD_BYTES

    @property
    def pingpong_blocks_per_side(self) -> int:
        """Blocks held by one side (ping or pong) of the buffer."""
        return self.pingpong_bytes // 2 // BLOCK_BYTES

    @property
    def partition_vertices(self) -> int:
        """Destination-interval size ``U`` — one Gather PE's buffer."""
        return self.gather_buffer_vertices

    @property
    def store_cycles(self) -> float:
        """Eq. 2: cycles to write out buffered destination vertices.

        Both pipeline types drain a Gather PE buffer through the URAM port:
        ``max(S_buf / S_ram, S_ram * N_gpe / S_mem)`` for Big and
        ``max(S_buf / S_ram, S_ram / S_mem)`` for Little — numerically equal
        here, but the Big pipeline amortises it over ``N_gpe`` partitions.
        """
        s_buf = self.gather_buffer_vertices * VERTEX_WORD_BYTES
        drain = s_buf / self.uram_port_bytes
        write_big = self.uram_port_bytes * self.n_gpe / BLOCK_BYTES
        return max(drain, write_big)

    @property
    def proc_cycles_per_edge(self) -> float:
        """Eq. 3's compute cost per edge.

        The paper prints ``1 / max(Nspe/IIspe, Ngpe/IIgpe)``; physically
        the *slower* stage backpressures the pipeline, so we implement
        the bottleneck (``min``) form — identical at the paper's
        II = 1 operating point, and the meaningful generalisation when a
        heavier gather UDF pushes II above one.
        """
        rate = min(self.n_spe / self.ii_spe, self.n_gpe / self.ii_gpe)
        return 1.0 / rate

    def for_platform(self, platform: FpgaPlatform) -> "PipelineConfig":
        """Adapt the buffer capacity to a platform (65,536 vs 32,768)."""
        return replace(
            self, gather_buffer_vertices=platform.gather_buffer_vertices
        )


def default_pipeline_config(platform: FpgaPlatform = None) -> PipelineConfig:
    """The Sec. VI-A configuration, adapted to ``platform`` if given."""
    config = PipelineConfig()
    if platform is not None:
        config = config.for_platform(platform)
    return config


@dataclass(frozen=True)
class AcceleratorConfig:
    """One generated accelerator: ``M`` Little + ``N`` Big pipelines."""

    num_little: int
    num_big: int
    pipeline: PipelineConfig = PipelineConfig()

    def __post_init__(self):
        if self.num_little < 0 or self.num_big < 0:
            raise ValueError("pipeline counts must be >= 0")
        if self.num_little + self.num_big == 0:
            raise ValueError("accelerator needs at least one pipeline")

    @property
    def total_pipelines(self) -> int:
        """``M + N``."""
        return self.num_little + self.num_big

    @property
    def label(self) -> str:
        """The paper's combo naming, e.g. ``7L7B``."""
        return f"{self.num_little}L{self.num_big}B"

    @property
    def is_homogeneous(self) -> bool:
        """True for the 0L*B / *L0B reference points of Fig. 10."""
        return self.num_little == 0 or self.num_big == 0
