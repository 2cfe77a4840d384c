"""HBM memory-subsystem model.

Stands in for the physical HBM2 stacks of the Alveo U280/U50: per-channel
timing (latency vs access stride, burst throughput), the in-channel data
layout of Fig. 4, channel capacity accounting for the out-of-memory check of
Fig. 12, and the memory-port management of Sec. V-C.
"""

from repro.hbm.channel import HbmChannelModel, HbmTimingParams
from repro.hbm.latency import (
    LatencyFit,
    calibrate_channel,
    fit_linear_latency,
    run_latency_benchmark,
)
from repro.hbm.shuhai import ShuhaiReport, run_shuhai_suite
from repro.hbm.tiered import (
    SsdTierConfig,
    estimate_tiered_iteration,
    estimate_tiered_plan,
    graph_needs_tiering,
)
from repro.hbm.layout import ChannelLayout, build_channel_layout
from repro.hbm.capacity import fits_hbm
from repro.hbm.ports import PortBinding, bind_ports, max_pipelines

__all__ = [
    "HbmChannelModel",
    "HbmTimingParams",
    "LatencyFit",
    "calibrate_channel",
    "fit_linear_latency",
    "run_latency_benchmark",
    "ShuhaiReport",
    "run_shuhai_suite",
    "SsdTierConfig",
    "estimate_tiered_iteration",
    "estimate_tiered_plan",
    "graph_needs_tiering",
    "ChannelLayout",
    "build_channel_layout",
    "fits_hbm",
    "PortBinding",
    "bind_ports",
    "max_pipelines",
]
