"""Compiled functional pass: lower the gather/scatter structure once,
evaluate whole partition groups per iteration with batched UDF calls.

The interpreted functional pass walks every scheduled task through
``LittlePipelineSim.execute`` / ``BigPipelineSim.execute`` each
iteration: per task it re-merges group edge lists, re-derives the
dispatch of every edge onto its Gather PE, and issues one small numpy
call per PE.  None of that
depends on the evolving property array — it is *structure*, and this
module extracts it once per plan (the LightningSimV2 split applied to
the functional path, mirroring :mod:`repro.compiled.lower` for timing):

* per-node source index arrays (little: the partition's ``src``; big:
  the merged group order from
  :func:`~repro.arch.big_pipeline.merge_group_edges`),
* per-edge *flat gather slots* — the destination each edge's update
  lands in, folded over the task's PE-buffer bank
  (:func:`~repro.arch.little_pipeline.static_gather_structure` /
  :func:`~repro.arch.big_pipeline.routed_gather_structure`),
* the drained-buffer output ranges each node merges into the global
  accumulator.

Evaluation then batches whole node groups: one ``app.scatter`` over the
concatenated edge sources, one ``app.gather_at`` per buffer bank over
the concatenated flat slots, one vectorised merge tree across all
little nodes at once.

**Bit-identity.**  Every ``gather_at`` is a ``ufunc.at`` — a per-element
left fold in argument order.  Node and PE buffer regions are disjoint in
the flat bank, and concatenation preserves each node's original edge
order, so every individual slot sees exactly the update sequence the
per-PE interpreted calls feed it — identical results for *any* gather
UDF, not merely the commutative ones.  ``scatter``, ``gather`` and
``apply`` are elementwise, so batching across tasks cannot change any
element either.  The per-node merges into the global accumulator are
replayed sequentially in interpreted task order.  The differential
harness in ``tests/test_compiled_functional.py`` is the contract.

Passes with an *active* functional fault (a bit-flip whose window is
open) take the interpreted walk instead, whose per-buffer
``filter_buffer`` hook owns the fault RNG: a bit-flip's fault site is a
single PE buffer, which the batched evaluation never materialises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.arch.big_pipeline import merge_group_edges, routed_gather_structure
from repro.arch.little_pipeline import static_gather_structure
from repro.compiled.evaluate import _STATS

#: Upper bound on working-set elements (buffer slots + edge words) per
#: evaluation batch; beyond it the node list is chunked.  Chunking never
#: changes any element's arithmetic — regions stay disjoint and each
#: chunk's accumulator merges still run in plan order.
MAX_FUNCTIONAL_ELEMENTS = 1 << 22


@dataclass
class FunctionalNode:
    """Lowered functional structure of one scheduled task."""

    index: int          #: position in the flat node list (plan order)
    kind: str           #: "little" (static dispatch) or "big" (routed)
    num_edges: int
    #: PE buffers this node's bank holds (``n_gpe`` replicated buffers
    #: in static mode; one per grouped partition in routed mode).
    num_buffers: int
    #: Per-edge source vertex (little: partition order; big: merged
    #: group order — the order the scatter PEs consume).
    src: np.ndarray
    weights: Optional[np.ndarray]
    #: Per-edge flat slot into the node's ``(num_buffers, U)`` bank:
    #: ``pe * U + (dst - base)`` — the exact destination the dispatch
    #: discipline routes each update to.
    flat_slots: np.ndarray
    #: Drained-buffer output ranges ``(vertex_lo, vertex_hi, num_dst)``
    #: merged into the accumulator, in interpreted order (little: the
    #: single post-merge-tree buffer; big: one per grouped partition).
    outputs: Tuple[Tuple[int, int, int], ...]


@dataclass
class FunctionalPlan:
    """The static functional-evaluation plan for one SchedulingPlan."""

    #: Flat node list in interpreted functional-pass order (little
    #: pipelines' tasks first, then big pipelines' tasks).
    nodes: List[FunctionalNode]
    #: Destination slots per PE buffer (``config.partition_vertices``).
    buffer_vertices: int
    #: Slots actually allocated per PE buffer: the plan's widest
    #: destination range.  Every flat slot is strided by this, so banks
    #: skip the dead tail of the hardware interval when the graph does
    #: not fill it — per-slot update order (and therefore bit-identity)
    #: is unaffected; only never-written columns disappear.
    bank_width: int
    #: Gather PEs per pipeline (the static bank width).
    n_gpe: int

    def node_cost(self, node: FunctionalNode) -> int:
        """Batch working-set elements of ``node`` (buffer bank + edges)."""
        bank = (
            self.n_gpe if node.kind == "little" else node.num_buffers
        ) * self.bank_width
        return bank + 2 * node.num_edges


def lower_functional_plan(plan) -> FunctionalPlan:
    """Lower every task of ``plan`` into its functional structure.

    Property-independent by construction: the result is reused unchanged
    across iterations, retries and apps sharing the plan; only
    :meth:`FunctionalEngine.accumulate` touches the property array.
    """
    config = plan.accelerator.pipeline
    interval = config.partition_vertices
    width = 1
    for tasks in plan.little_tasks:
        for task in tasks:
            width = max(width, task.partition.num_dst_vertices)
    for tasks in plan.big_tasks:
        for task in tasks:
            for p in task.partitions:
                width = max(width, p.num_dst_vertices)
    nodes: List[FunctionalNode] = []
    for tasks in plan.little_tasks:
        for task in tasks:
            partition = task.partition
            pe, slot = static_gather_structure(config, partition)
            nodes.append(
                FunctionalNode(
                    index=len(nodes),
                    kind="little",
                    num_edges=partition.num_edges,
                    num_buffers=config.n_gpe,
                    src=np.asarray(partition.src),
                    weights=partition.weights,
                    flat_slots=pe * width + slot,
                    outputs=(
                        (
                            partition.vertex_lo,
                            partition.vertex_hi,
                            partition.num_dst_vertices,
                        ),
                    ),
                )
            )
    for tasks in plan.big_tasks:
        for task in tasks:
            partitions = task.partitions
            src, dst, _lanes, weights = merge_group_edges(partitions)
            lane, slot = routed_gather_structure(partitions, dst)
            nodes.append(
                FunctionalNode(
                    index=len(nodes),
                    kind="big",
                    num_edges=int(src.size),
                    num_buffers=len(partitions),
                    src=src,
                    weights=weights,
                    flat_slots=lane * width + slot,
                    outputs=tuple(
                        (p.vertex_lo, p.vertex_hi, p.num_dst_vertices)
                        for p in partitions
                    ),
                )
            )
    return FunctionalPlan(
        nodes=nodes,
        buffer_vertices=interval,
        bank_width=width,
        n_gpe=config.n_gpe,
    )


def _chunk_functional(
    fplan: FunctionalPlan,
) -> Iterable[List[FunctionalNode]]:
    """Split the node list into bounded contiguous runs (plan order)."""
    chunk: List[FunctionalNode] = []
    total = 0
    for node in fplan.nodes:
        cost = fplan.node_cost(node)
        if chunk and total + cost > MAX_FUNCTIONAL_ELEMENTS:
            yield chunk
            chunk, total = [], 0
        chunk.append(node)
        total += cost
    if chunk:
        yield chunk


class FunctionalEngine:
    """Lowered functional structure of one plan, evaluated per iteration."""

    def __init__(self, fplan: FunctionalPlan):
        self.fplan = fplan

    def accumulate(self, app, props: np.ndarray) -> np.ndarray:
        """One iteration's global accumulator (pre-Apply).

        Equals the interpreted functional pass's ``acc`` bit-for-bit;
        the caller applies ``app.apply`` exactly as the interpreted
        path does.
        """
        _STATS["functional_iterations"] += 1
        interval = self.fplan.bank_width
        n_gpe = self.fplan.n_gpe
        acc = np.full(props.size, app.gather_identity, dtype=app.prop_dtype)
        for chunk in _chunk_functional(self.fplan):
            _STATS["functional_batches"] += 1
            little = [n for n in chunk if n.kind == "little"]
            big = [n for n in chunk if n.kind == "big"]
            big_rows = sum(n.num_buffers for n in big)

            # -- batched scatter over every edge of the chunk ----------
            edged = [n for n in chunk if n.num_edges]
            little_edges = sum(n.num_edges for n in little)
            updates = None
            if edged:
                src_cat = np.concatenate([n.src for n in edged])
                weights_cat = None
                if edged[0].weights is not None:
                    weights_cat = np.concatenate(
                        [n.weights for n in edged]
                    )
                updates = app.scatter(props[src_cat], weights_cat)

            # -- batched gather into the flat PE-buffer banks ----------
            lbuf = None
            if little:
                lbuf = np.full(
                    (len(little), n_gpe, interval),
                    app.gather_identity,
                    dtype=app.prop_dtype,
                )
                slots = [
                    j * (n_gpe * interval) + n.flat_slots
                    for j, n in enumerate(little)
                    if n.num_edges
                ]
                if slots:
                    app.gather_at(
                        lbuf.reshape(-1),
                        np.concatenate(slots),
                        updates[:little_edges],
                    )
            bbuf = None
            if big_rows:
                bbuf = np.full(
                    (big_rows, interval),
                    app.gather_identity,
                    dtype=app.prop_dtype,
                )
                slots = []
                row = 0
                for n in big:
                    if n.num_edges:
                        slots.append(row * interval + n.flat_slots)
                    row += n.num_buffers
                if slots:
                    app.gather_at(
                        bbuf.reshape(-1),
                        np.concatenate(slots),
                        updates[little_edges:],
                    )

            # -- batched merge tree across every little node -----------
            # The same pairwise order as merge_buffers, vectorised over
            # the chunk's nodes; gather is elementwise, so each node's
            # result equals its interpreted tree bit-for-bit.
            merged = None
            if little:
                level = [lbuf[:, i, :] for i in range(n_gpe)]
                while len(level) > 1:
                    nxt = [
                        app.gather(level[i], level[i + 1])
                        for i in range(0, len(level) - 1, 2)
                    ]
                    if len(level) % 2:
                        nxt.append(level[-1])
                    level = nxt
                merged = level[0]

            # -- per-node accumulator merges, in interpreted order -----
            li = 0
            row = 0
            for node in chunk:
                if node.kind == "little":
                    lo, hi, num_dst = node.outputs[0]
                    acc[lo:hi] = app.gather(
                        acc[lo:hi], merged[li, :num_dst]
                    )
                    li += 1
                else:
                    for k, (lo, hi, num_dst) in enumerate(node.outputs):
                        acc[lo:hi] = app.gather(
                            acc[lo:hi], bbuf[row + k, :num_dst]
                        )
                    row += node.num_buffers
        return acc


def note_functional_fallback() -> None:
    """Count one functional pass routed through the interpreted walk."""
    _STATS["functional_fallbacks"] += 1


def functional_engine(plan) -> FunctionalEngine:
    """Functional engine for ``plan``, lowering on first use.

    Attached to the plan object itself — plans are rebuilt (never
    mutated) by the degradation path, so a stale structure can never be
    replayed against changed task lists.
    """
    engine: Optional[FunctionalEngine] = getattr(
        plan, "_functional_engine", None
    )
    if engine is None:
        fplan = lower_functional_plan(plan)
        _STATS["functional_plans"] += 1
        _STATS["functional_nodes"] += len(fplan.nodes)
        engine = FunctionalEngine(fplan)
        plan._functional_engine = engine
    return engine
