"""Design-space sensitivity sweeps over pipeline parameters.

The accelerator generator fixes its parameters once per platform
(Sec. V-D: "it tunes the numbers of Scatter and Gather PEs to fully
utilize the memory bandwidth of a memory channel").  This module answers
the next architect's question — *how sensitive is performance to each
knob?* — by sweeping one :class:`PipelineConfig` field at a time and
re-estimating the scheduled makespan with the analytic model.

Parameters swept: PE counts (``n_spe``/``n_gpe``), the Gather buffer
size (which also changes the partition count!), the Ping-Pong Buffer
size and the partition-switch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from repro.arch.config import PipelineConfig
from repro.graph.coo import Graph
from repro.hbm.channel import HbmChannelModel
from repro.model.calibrate import calibrate_performance_model

if TYPE_CHECKING:
    from repro.core.framework import PreparedGraph


@dataclass(frozen=True)
class SweepPoint:
    """One parameter setting's outcome."""

    parameter: str
    value: int
    makespan_cycles: float
    num_partitions: int
    combo_label: str

    def speedup_over(self, other: "SweepPoint") -> float:
        """Makespan ratio other/self (>1 means this point is faster)."""
        return other.makespan_cycles / max(self.makespan_cycles, 1e-9)


def sweep_parameter(
    graph: Union[Graph, PreparedGraph],
    base_config: PipelineConfig,
    parameter: str,
    values: Sequence[int],
    num_pipelines: int = 8,
    channel: HbmChannelModel = None,
) -> List[SweepPoint]:
    """Estimate scheduled makespan across settings of one parameter.

    Every point re-calibrates the model; one
    :class:`~repro.core.framework.PreparedGraph` (a plain ``graph`` is
    prepared in its given vertex order) cuts each distinct interval and
    schedules each distinct model once, so a point equal to an earlier
    one is not rescheduled.  Uses modelled (not simulated) cycles, so
    whole sweeps stay cheap enough for interactive use.
    """
    # Imported here: repro.core pulls the performance model back in,
    # which would cycle at package-import time.
    from repro.core.framework import PreparedGraph

    if not hasattr(base_config, parameter):
        raise ValueError(f"unknown PipelineConfig field {parameter!r}")
    channel = channel or HbmChannelModel()
    prepared = (
        graph if isinstance(graph, PreparedGraph)
        else PreparedGraph(graph, use_dbg=False)
    )
    points = []
    for value in values:
        config = replace(base_config, **{parameter: int(value)})
        model = calibrate_performance_model(config, channel)
        pset = prepared.partitions(config.partition_vertices)
        plan = prepared.plan(model, num_pipelines)
        points.append(SweepPoint(
            parameter=parameter,
            value=int(value),
            makespan_cycles=plan.estimated_makespan,
            num_partitions=len(pset.nonempty()),
            combo_label=plan.accelerator.label,
        ))
    return points


def sensitivity_report(
    graph: Graph,
    base_config: PipelineConfig,
    num_pipelines: int = 8,
    channel: HbmChannelModel = None,
) -> Dict[str, List[SweepPoint]]:
    """Sweep the standard knobs around their Sec. VI-A defaults.

    All four sweeps share one prepared graph in the given vertex order.
    """
    from repro.core.framework import PreparedGraph

    channel = channel or HbmChannelModel()
    prepared = PreparedGraph(graph, use_dbg=False)
    buffer_base = base_config.gather_buffer_vertices
    sweeps = {
        "n_spe": [2, 4, 8, 16],
        "n_gpe": [2, 4, 8, 16],
        "gather_buffer_vertices": [
            buffer_base // 4, buffer_base // 2, buffer_base, buffer_base * 2
        ],
        "pingpong_bytes": [8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024],
    }
    return {
        name: sweep_parameter(
            prepared, base_config, name, values, num_pipelines, channel
        )
        for name, values in sweeps.items()
    }
