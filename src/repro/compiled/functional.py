"""Compiled functional pass: one segmented reduction per destination.

The interpreted functional pass walks every scheduled task through
``LittlePipelineSim.execute`` / ``BigPipelineSim.execute`` each
iteration: per task it re-merges group edge lists, dispatches every edge
onto its Gather PE buffer, folds the buffers through the Merger tree and
merges them into the global accumulator.  None of that depends on the
evolving property array — it is *structure*, and this module extracts
it once per plan (the LightningSimV2 split applied to the functional
path, mirroring :mod:`repro.compiled.lower` for timing).

Lowering concatenates the plan's edges (every Little task's partition,
then every Big task's partitions) and stably sorts them by destination
once.  Evaluation is then three array operations per iteration: one
``app.scatter`` over the permuted sources, one
``app.gather_ufunc.reduceat`` over each destination's run of updates,
and one ``app.gather`` of the run results into the accumulator.

**Bit-identity.**  The GAS contract (:class:`~repro.apps.gas.GasApp`)
requires ``gather_ufunc`` to be a binary ufunc over an integer property
dtype, and every gather the framework admits (``add`` wrapping modulo
2**64, ``minimum``, ``maximum``, ``bitwise_or``) is then *exactly*
associative and commutative.  Any grouping and any order of one
destination's updates therefore gives the same bits as the interpreted
per-PE ``ufunc.at`` folds plus the merge tree.  ``scatter`` and
``apply`` are elementwise.  The differential harness in
``tests/test_compiled_functional.py`` is the contract.

**Bit-flips.**  A bit-flip's fault site is one drained Gather PE buffer,
which the segmented reduction never materialises.  :func:`replay_flips`
replays the injector's per-drain draws in the interpreted order instead
of walking the pipelines, and re-folds only the destination intervals a
silent flip hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compiled.evaluate import _STATS


@dataclass
class FunctionalPlan:
    """The static functional-evaluation plan for one SchedulingPlan.

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


def lower_functional_plan(plan) -> FunctionalPlan:
    """Lower every task of ``plan`` into one destination-ordered edge list.

    Property-independent by construction: the result is reused unchanged
    across iterations, retries and apps sharing the plan; only
    :meth:`FunctionalEngine.accumulate` touches the property array.
    """
    partitions = [part for _, part in plan_drains(plan)]
    if not partitions:
        empty = np.zeros(0, dtype=np.intp)
        return FunctionalPlan(empty, None, empty, empty)
    dst = np.concatenate([p.dst for p in partitions])
    counts = np.bincount(dst)
    dsts = np.flatnonzero(counts)
    starts = np.zeros(dsts.size, dtype=np.intp)
    np.cumsum(counts[dsts[:-1]], out=starts[1:])
    # A destination key narrowed to the smallest unsigned type sorts
    # with a radix pass (<= 16 bits) or a short timsort over the
    # nearly sorted partition order.
    order = np.argsort(
        dst.astype(np.min_scalar_type(counts.size - 1)), kind="stable"
    )
    del dst
    src = np.concatenate([p.src for p in partitions])[order]
    weights = None
    if partitions[0].weights is not None:
        weights = np.concatenate([p.weights for p in partitions])[order]
    return FunctionalPlan(src=src, weights=weights, starts=starts, dsts=dsts)


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
        fplan = self.fplan
        acc = np.full(props.size, app.gather_identity, dtype=app.prop_dtype)
        if fplan.starts.size:
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
    """Functional engine for ``plan``, lowering on first use.

    Attached to the plan object itself — plans are rebuilt (never
    mutated) by the degradation path, so a stale structure can never be
    replayed against changed task lists.
    """
    engine: Optional[FunctionalEngine] = getattr(
        plan, "_functional_engine", None
    )
    if engine is None:
        engine = FunctionalEngine(lower_functional_plan(plan))
        _STATS["functional_plans"] += 1
        plan._functional_engine = engine
    return engine
