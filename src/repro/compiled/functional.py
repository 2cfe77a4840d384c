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

Passes with an *active* functional fault (a bit-flip whose window is
open) take the interpreted walk instead, whose per-buffer
``filter_buffer`` hook owns the fault RNG: a bit-flip's fault site is a
single PE buffer, which the segmented reduction never materialises.
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


def lower_functional_plan(plan) -> FunctionalPlan:
    """Lower every task of ``plan`` into one destination-ordered edge list.

    Property-independent by construction: the result is reused unchanged
    across iterations, retries and apps sharing the plan; only
    :meth:`FunctionalEngine.accumulate` touches the property array.
    """
    partitions = [task.partition for tasks in plan.little_tasks
                  for task in tasks]
    partitions += [p for tasks in plan.big_tasks for task in tasks
                   for p in task.partitions]
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
        engine = FunctionalEngine(lower_functional_plan(plan))
        _STATS["functional_plans"] += 1
        plan._functional_engine = engine
    return engine
