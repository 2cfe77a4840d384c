"""Compiled simulation core: lower once, evaluate batched, reuse.

The interpreted cycle simulators walk one task at a time through
Python; this package compiles a
:class:`~repro.sched.plan.SchedulingPlan` into a static node plan
(:mod:`repro.compiled.lower`) and evaluates all nodes' timing
recurrences in a few batched numpy passes
(:mod:`repro.compiled.evaluate`).  Results are **bit-identical** to the
interpreted path — the equivalence harness in
``tests/test_compiled_equivalence.py`` is the contract — and each
plan's evaluations are memoised per channel-parameter set on its
engine, the only place timing results are reused.

The same split covers the functional pass
(:mod:`repro.compiled.functional`: the plan's graph lowered once into
destination order and shared by every plan of it, then one scatter and
one segmented ``gather_ufunc.reduceat`` per iteration) and trace
generation (:mod:`repro.compiled.trace`: ExecutionTrace events
synthesized from compiled node timings instead of a re-simulation).

This is the one production path.
:class:`~repro.core.system.SystemSimulator` routes every pass through
the compiled engines, fault-active passes included: stalls and dead
channels replay the injector's per-task hook, latency spikes
re-evaluate only the victim pipeline's nodes, and bit-flips replay the
injector's per-drain draws.  The per-module interpreted simulators
remain as the reference oracle the harnesses compare against.
"""

from repro.compiled.evaluate import (
    CompiledEngine,
    compiled_stats,
    evaluate_plan,
    plan_engine,
    reset_compiled_stats,
)
from repro.compiled.functional import (
    FunctionalEngine,
    FunctionalPlan,
    functional_engine,
    lower_functional_plan,
)
from repro.compiled.lower import CompiledPlan, compile_plan
from repro.compiled.trace import synthesize_trace

__all__ = [
    "CompiledEngine",
    "CompiledPlan",
    "FunctionalEngine",
    "FunctionalPlan",
    "compile_plan",
    "compiled_stats",
    "evaluate_plan",
    "functional_engine",
    "lower_functional_plan",
    "plan_engine",
    "reset_compiled_stats",
    "synthesize_trace",
]
