"""Batched evaluation of a lowered plan under one set of channel params.

The evaluator pads per-node structure arrays into one matrix per stage
and resolves every node's timing recurrence in a handful of vectorised
numpy passes instead of one interpreted pass per task:

* Little nodes: ``ready_v = fill + L``, ``ready_e = i * set_cycles + L``
  and a constant per-set service, resolved row-wise with
  :func:`~repro.utils.prefix.running_release_times_batched`.
* Big nodes: the request stage (strides → service via
  :meth:`~repro.hbm.channel.HbmChannelModel.effective_request_cycles`,
  resolved row-wise, plus the base latency), a per-set gather of the
  releasing response, then the set stage against the router's
  gather-service rates.

**Bit-identity.**  Every elementwise operation consumes exactly the
operand values the interpreted datapath consumes, and ``cumsum`` /
``maximum.accumulate`` reduce left-to-right per row exactly as in 1-D —
so each node's compute cycles equal the interpreted result *bitwise*,
not approximately.  Row padding lives strictly to the right of each
row's last valid column and is never read.  No closed-form shortcuts
are taken anywhere: float addition is not associative, so re-ordered
"equivalent" math would break the equivalence harness.

Evaluations are memoized per frozen
:class:`~repro.hbm.channel.HbmTimingParams` on the plan's
:class:`CompiledEngine` — the one place timing results are reused.
Latency spikes are lowered per pipeline: the victim's nodes are
re-evaluated under a channel whose fault site multiplies every latency
by the injector's scale, exactly as the interpreted walk charges them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.arch.timing import PartitionTiming
from repro.compiled.lower import BigNode, CompiledPlan, LittleNode, compile_plan
from repro.hbm.channel import HbmChannelModel
from repro.utils.prefix import running_release_times_batched

#: Upper bound on padded-matrix elements per batch; beyond it the node
#: set is chunked (chunking never changes any row's arithmetic).
MAX_BATCH_ELEMENTS = 1 << 22

#: Memoized evaluations kept per engine (params -> results).
ENGINE_MEMO_ENTRIES = 16


# ---------------------------------------------------------------------------
# Process-global stats
# ---------------------------------------------------------------------------
_STATS = {
    "plans_compiled": 0,
    "nodes_lowered": 0,
    "evaluations": 0,
    "nodes_evaluated": 0,
    "memo_hits": 0,
    # Functional-pass routing (repro.compiled.functional / core.system);
    # "functional_plans" counts lowered graphs, one per graph however
    # many plans share it.
    "functional_plans": 0,
    "functional_iterations": 0,
    # Always 0 since every functional pass runs compiled; kept because
    # perfbench/layers.py reads it.
    "functional_fallbacks": 0,
    # Trace synthesis (repro.compiled.trace / arch.trace):
    "traces_synthesized": 0,
}


def compiled_stats() -> dict:
    """Snapshot of the compiled-core counters."""
    return dict(_STATS)


def reset_compiled_stats() -> None:
    """Zero the compiled-core counters (bench/test isolation)."""
    for key in _STATS:
        _STATS[key] = 0


# ---------------------------------------------------------------------------
# Batched node evaluation
# ---------------------------------------------------------------------------
def _chunk_nodes(nodes: List[object], width_of) -> Iterable[List[object]]:
    """Split ``nodes`` into runs whose padded matrix stays bounded."""
    chunk: List[object] = []
    width = 0
    for node in nodes:
        width = max(width, width_of(node))
        if chunk and (len(chunk) + 1) * width > MAX_BATCH_ELEMENTS:
            yield chunk
            chunk = [node]
            width = width_of(node)
        else:
            chunk.append(node)
    if chunk:
        yield chunk


def _evaluate_little_nodes(
    nodes: List[LittleNode],
    channel: HbmChannelModel,
    out: Dict[int, PartitionTiming],
) -> None:
    base = channel.base_latency()
    for chunk in _chunk_nodes(nodes, lambda n: n.num_sets):
        rows = len(chunk)
        smax = max(n.num_sets for n in chunk)
        fill = np.zeros((rows, smax))
        service = np.empty((rows, smax))
        set_cycles = np.empty((rows, 1))
        for i, node in enumerate(chunk):
            fill[i, : node.num_sets] = node.fill_at_set
            service[i, :] = node.service_cycles
            set_cycles[i, 0] = node.set_cycles
        cols = np.arange(1, smax + 1, dtype=np.float64)[None, :]
        ready_e = cols * set_cycles + base
        ready_v = fill + base
        completion = running_release_times_batched(
            np.maximum(ready_e, ready_v), service
        )
        for i, node in enumerate(chunk):
            out[node.index] = PartitionTiming(
                compute_cycles=float(completion[i, node.num_sets - 1]),
                store_cycles=node.store_cycles,
                switch_cycles=node.switch_cycles,
                num_edges=node.num_edges,
                num_sets=node.num_sets,
            )


def _evaluate_big_nodes(
    nodes: List[BigNode],
    channel: HbmChannelModel,
    out: Dict[int, PartitionTiming],
) -> None:
    base = channel.base_latency()
    width_of = lambda n: max(n.num_sets, n.strides.size)  # noqa: E731
    for chunk in _chunk_nodes(nodes, width_of):
        rows = len(chunk)
        rmax = max(n.strides.size for n in chunk)
        smax = max(n.num_sets for n in chunk)
        strides = np.zeros((rows, rmax))
        arrival = np.zeros((rows, rmax))
        last_req = np.full((rows, smax), -1, dtype=np.int64)
        gather = np.zeros((rows, smax))
        set_cycles = np.empty((rows, 1))
        for i, node in enumerate(chunk):
            strides[i, : node.strides.size] = node.strides
            arrival[i, : node.arrival.size] = node.arrival
            last_req[i, : node.num_sets] = node.last_req_per_set
            gather[i, : node.num_sets] = node.gather_service
            set_cycles[i, 0] = node.set_cycles
        # Request stage — same op chain as VertexLoaderSim, per row.
        service = channel.effective_request_cycles(strides)
        response = running_release_times_batched(arrival, service) + base
        gathered = np.take_along_axis(
            response, np.maximum(last_req, 0), axis=1
        )
        ready_v = np.where(last_req >= 0, gathered, 0.0)
        # Set stage — same op chain as BigPipelineSim._compute_timing.
        cols = np.arange(1, smax + 1, dtype=np.float64)[None, :]
        ready_e = cols * set_cycles + base
        completion = running_release_times_batched(
            np.maximum(ready_e, ready_v), gather
        )
        for i, node in enumerate(chunk):
            out[node.index] = PartitionTiming(
                compute_cycles=float(completion[i, node.num_sets - 1]),
                store_cycles=node.store_cycles,
                switch_cycles=node.switch_cycles,
                num_edges=node.num_edges,
                num_sets=node.num_sets,
            )


def evaluate_nodes(
    cplan: CompiledPlan,
    nodes: Iterable[object],
    channel: HbmChannelModel,
) -> Dict[int, PartitionTiming]:
    """Evaluate a subset of nodes under ``channel``; keyed by node index.

    Empty nodes resolve to their channel-independent constant timing;
    the rest are batched per pipeline kind.
    """
    out: Dict[int, PartitionTiming] = {}
    little: List[LittleNode] = []
    big: List[BigNode] = []
    for node in nodes:
        constant = cplan.constant_timing(node)
        if constant is not None:
            out[node.index] = constant
        elif node.kind == "little":
            little.append(node)
        else:
            big.append(node)
    _evaluate_little_nodes(little, channel, out)
    _evaluate_big_nodes(big, channel, out)
    _STATS["nodes_evaluated"] += len(out)
    return out


def evaluate_plan(
    cplan: CompiledPlan, channel: HbmChannelModel
) -> List[PartitionTiming]:
    """Evaluate every node; returns timings indexed by node index."""
    _STATS["evaluations"] += 1
    by_index = evaluate_nodes(cplan, cplan.nodes, channel)
    return [by_index[i] for i in range(len(cplan.nodes))]


# ---------------------------------------------------------------------------
# Per-plan engine
# ---------------------------------------------------------------------------
class _ScaledLatencySite:
    """Fault-site shim: the post-clip latency multiply an active
    latency spike applies while its victim pipeline runs."""

    def __init__(self, scale: float):
        self.scale = scale

    def scale_latency(self, latency):
        return latency * self.scale


class CompiledEngine:
    """Compiled structure of one plan plus memoized evaluations."""

    def __init__(self, cplan: CompiledPlan):
        self.cplan = cplan
        self._memo: "OrderedDict[object, List[PartitionTiming]]" = (
            OrderedDict()
        )

    def timings(self, channel: HbmChannelModel) -> List[PartitionTiming]:
        """All node timings under ``channel.params`` (memoized).

        Only the parameters are read: any fault site on ``channel`` is
        ignored, so injector state can never leak into the memo.
        Latency spikes go through :meth:`busy_cycles` instead.
        """
        params = channel.params
        cached = self._memo.get(params)
        if cached is not None:
            self._memo.move_to_end(params)
            _STATS["memo_hits"] += 1
            return cached
        timings = evaluate_plan(self.cplan, HbmChannelModel(params))
        self._memo[params] = timings
        while len(self._memo) > ENGINE_MEMO_ENTRIES:
            self._memo.popitem(last=False)
        return timings

    def busy_cycles(
        self,
        channel: HbmChannelModel,
        latency_scales: Optional[Mapping[Tuple[str, int], float]] = None,
    ):
        """Per-pipeline busy sums, replayed in interpreted task order.

        The accumulation is the same sequential ``busy += total_cycles``
        the interpreted timing pass performs, over bit-identical
        per-task timings — so the sums are bit-identical too.

        ``latency_scales`` maps ``(kind, pipeline)`` to an active
        latency spike's multiplier
        (:meth:`~repro.faults.injector.FaultInjector.latency_scales`):
        those pipelines' nodes are re-evaluated under the scaled channel,
        every other node comes from the per-params memo.
        """
        timings = self.timings(channel)
        rows = {"little": self.cplan.little_by_pipe,
                "big": self.cplan.big_by_pipe}
        if latency_scales:
            timings = list(timings)
            for (kind, pipe), scale in latency_scales.items():
                scaled = HbmChannelModel(
                    channel.params, fault_site=_ScaledLatencySite(scale)
                )
                by_index = evaluate_nodes(self.cplan, rows[kind][pipe], scaled)
                for index, timing in by_index.items():
                    timings[index] = timing
        return (
            [_busy(row, timings) for row in rows["little"]],
            [_busy(row, timings) for row in rows["big"]],
        )


def _busy(row, timings: List[PartitionTiming]) -> float:
    """One pipeline's busy cycles, summed in task order."""
    busy = 0.0
    for node in row:
        busy += timings[node.index].total_cycles
    return busy


def plan_engine(plan) -> CompiledEngine:
    """Engine for ``plan``, compiling on first use.

    The engine is attached to the plan object itself: plans are rebuilt
    (never mutated) by the degradation path, so a stale structure can
    never be re-used against changed task lists.
    """
    engine: Optional[CompiledEngine] = getattr(
        plan, "_compiled_engine", None
    )
    if engine is None:
        cplan = compile_plan(plan)
        _STATS["plans_compiled"] += 1
        _STATS["nodes_lowered"] += len(cplan.nodes)
        engine = CompiledEngine(cplan)
        plan._compiled_engine = engine
    return engine
