"""Compiled functional pass: one segmented reduction per destination.

The interpreted functional pass walks every scheduled task through
``LittlePipelineSim.execute`` / ``BigPipelineSim.execute`` each
iteration: per task it re-merges group edge lists, dispatches every edge
onto its Gather PE buffer, folds the buffers through the Merger tree and
merges them into the global accumulator.  None of that depends on the
evolving property array — it is *structure*, and this module extracts
it once per graph (the LightningSimV2 split applied to the functional
path, mirroring :mod:`repro.compiled.lower` for timing).

Every plan covers its graph's edges exactly once (the plan-coverage
tests in ``tests/test_compiled_functional.py`` pin it), and within one
destination's run the fold order is free (below), so the structure
depends only on the graph: every plan of one graph — forced
combinations, degraded re-plans, every device — shares one lowering.
Lowering sorts the graph's edges by destination with one in-place sort
of a packed ``uint64`` key.  Evaluation is then three array operations
per iteration: one ``app.scatter``, one ``app.gather_ufunc.reduceat``
over each destination's run of updates, and one ``app.gather`` of the
run results into the accumulator.  On an unweighted graph the scatter
runs once per *vertex* and its result is gathered per edge.

**Bit-identity.**  The GAS contract (:class:`~repro.apps.gas.GasApp`)
requires ``gather_ufunc`` to be a binary ufunc over an integer property
dtype, and every gather the framework admits (``add`` wrapping modulo
2**64, ``minimum``, ``maximum``, ``bitwise_or``) is then *exactly*
associative and commutative.  Any grouping and any order of one
destination's updates therefore gives the same bits as the interpreted
per-PE ``ufunc.at`` folds plus the merge tree.  ``scatter`` and
``apply`` are elementwise, so ``scatter(props, None)[src]`` equals
``scatter(props[src], None)``.  The differential harness in
``tests/test_compiled_functional.py`` is the contract.

**Bit-flips.**  A bit-flip's fault site is one drained Gather PE buffer,
which the segmented reduction never materialises.  :func:`replay_flips`
replays the injector's per-drain draws in the interpreted order — the
plan's own drains, not the lowered edge order — instead of walking the
pipelines, and re-folds only the destination intervals a silent flip
hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compiled.evaluate import _STATS


@dataclass
class FunctionalPlan:
    """The static functional-evaluation plan for one graph.

    Edges are held in destination order: each destination vertex's
    in-edges form one contiguous run.
    """

    #: Per-edge source vertex, permuted into destination order.
    src: np.ndarray
    #: Per-edge weight in the same order (None for unweighted graphs).
    weights: Optional[np.ndarray]
    #: First edge of each destination run.
    starts: np.ndarray
    #: The destination vertex of each run (strictly increasing).
    dsts: np.ndarray


def plan_drains(plan):
    """``((kind, index), partition)`` of every gather buffer a pass
    drains, in interpreted order: Little pipelines, then Big; tasks in
    order; one buffer per Little task, one per partition of a Big
    group."""
    for idx, tasks in enumerate(plan.little_tasks):
        for task in tasks:
            yield ("little", idx), task.partition
    for idx, tasks in enumerate(plan.big_tasks):
        for task in tasks:
            for part in task.partitions:
                yield ("big", idx), part


def _plan_graph(plan):
    graph = plan.graph
    if graph is None:
        raise ValueError(
            "plan has no graph to lower: build plans with build_schedule, "
            "which records the partitioned graph on plan.graph"
        )
    return graph


def lower_functional_plan(plan) -> FunctionalPlan:
    """Lower ``plan.graph`` into one destination-ordered edge list.

    Property-independent by construction: the result is reused unchanged
    across iterations, retries, apps and every plan of the graph; only
    :meth:`FunctionalEngine.accumulate` touches the property array.

    It reads the graph's stored edges, so it never triggers the graph's
    (src, dst) sort.  The sort key packs ``dst`` above just enough low
    bits for its low field.  Unweighted, that field is ``src`` itself,
    so one in-place sort yields the sources, whatever order the edges
    are stored in.  Weighted, it is the stored edge index, which gathers
    ``src`` and ``weights`` (duplicate edges keep their own weights);
    only the order inside one destination's run depends on the stored
    order, and the reduction over a run is order-free (module
    docstring).
    """
    graph = _plan_graph(plan)
    counts = graph.in_degrees()
    dsts = np.flatnonzero(counts)
    starts = np.zeros(dsts.size, dtype=np.intp)
    np.cumsum(counts[dsts[:-1]], out=starts[1:])
    src, dst, weights = graph.stored_edges
    low = graph.num_vertices if weights is None else graph.num_edges
    low_bits = max(int(low - 1).bit_length(), 1)
    high_bits = max(int(graph.num_vertices - 1).bit_length(), 1)
    if low_bits + high_bits > 64:
        raise ValueError(
            f"functional sort key needs {low_bits + high_bits} bits (> 64)"
        )
    key = dst.view(np.uint64) << low_bits
    key |= (
        src.view(np.uint64) if weights is None
        else np.arange(graph.num_edges, dtype=np.uint64)
    )
    key.sort()
    key &= (1 << low_bits) - 1
    order = key.view(np.int64)
    if weights is None:
        return FunctionalPlan(order, None, starts, dsts)
    return FunctionalPlan(src[order], weights[order], starts, dsts)


class FunctionalEngine:
    """Lowered functional structure of one graph, evaluated per iteration."""

    def __init__(self, fplan: FunctionalPlan):
        self.fplan = fplan

    def accumulate(self, app, props: np.ndarray) -> np.ndarray:
        """One iteration's global accumulator (pre-Apply).

        Equals the interpreted functional pass's ``acc`` bit-for-bit;
        the caller applies ``app.apply`` exactly as the interpreted
        path does.
        """
        _STATS["functional_iterations"] += 1
        fplan = self.fplan
        acc = np.full(props.size, app.gather_identity, dtype=app.prop_dtype)
        if fplan.starts.size:
            if fplan.weights is None:
                # Scatter UDFs are elementwise: evaluate once per vertex.
                updates = app.scatter(props, None)[fplan.src]
            else:
                updates = app.scatter(props[fplan.src], fplan.weights)
            runs = app.gather_ufunc.reduceat(
                updates, fplan.starts, dtype=app.prop_dtype
            )
            acc[fplan.dsts] = app.gather(acc[fplan.dsts], runs)
        return acc


def replay_flips(plan, injector, app, props: np.ndarray, acc: np.ndarray):
    """Replay one functional pass's bit-flip draws onto ``acc``.

    ``FaultInjector.draw_flip`` is the pass's only RNG consumer: the
    interpreted walk calls it once per drain of :func:`plan_drains`,
    under the draining pipeline's context.  No draw depends on buffer
    contents, so replaying them in that order raises every detectable
    hit at the same drain with the same message and leaves the
    injector's RNG and context as the walk does.

    A silent hit corrupts one bit of one drain's buffer.  Its interval
    ``[vertex_lo, vertex_hi)`` is re-folded from the clean partials of
    the interval's other drains (slices share their parent's interval)
    plus every flipped partial: ``gather_at`` into ``gather_identity``
    over the drain's own edges, then the XOR.  The admitted gathers are
    exactly associative and commutative, so the fold order is free.
    """
    if not injector.functional_faults_active():
        injector.exit_pipeline()
        return
    from repro.faults.injector import flip_bit

    itemsize = np.dtype(app.prop_dtype).itemsize
    drains = list(plan_drains(plan))
    hits = {}  # (vertex_lo, vertex_hi) -> {drain index: (byte, bit)}
    for i, (pipeline, part) in enumerate(drains):
        injector.enter_pipeline(*pipeline)
        hit = injector.draw_flip(part.num_dst_vertices * itemsize)
        if hit is not None:
            hits.setdefault((part.vertex_lo, part.vertex_hi), {})[i] = hit
    injector.exit_pipeline()
    for (lo, hi), flipped in hits.items():
        seg = np.full(hi - lo, app.gather_identity, dtype=app.prop_dtype)
        for i, (_, part) in enumerate(drains):
            if (part.vertex_lo, part.vertex_hi) != (lo, hi):
                continue
            partial = seg
            if i in flipped:
                partial = np.full_like(seg, app.gather_identity)
            if part.num_edges:
                app.gather_at(
                    partial, part.dst - lo,
                    app.scatter(props[part.src], part.weights),
                )
            if i in flipped:
                flip_bit(partial, *flipped[i])
                seg = app.gather(seg, partial)
        acc[lo:hi] = seg


def functional_engine(plan) -> FunctionalEngine:
    """Functional engine for ``plan``'s graph, lowering on first use.

    Cached on the graph object, so every plan of one graph shares one
    structure; a graph's edges never change after construction.
    """
    graph = _plan_graph(plan)
    engine: Optional[FunctionalEngine] = getattr(
        graph, "_functional_engine", None
    )
    if engine is None:
        engine = FunctionalEngine(lower_functional_plan(plan))
        _STATS["functional_plans"] += 1
        graph._functional_engine = engine
    return engine
