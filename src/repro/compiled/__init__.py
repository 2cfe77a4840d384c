"""Compiled simulation core: lower once, evaluate batched, reuse.

The interpreted cycle simulators walk one task at a time through
Python; this package compiles a
:class:`~repro.sched.plan.SchedulingPlan` into a static node plan
(:mod:`repro.compiled.lower`), evaluates all nodes' timing recurrences
in a few batched numpy passes (:mod:`repro.compiled.evaluate`) and
re-evaluates only affected nodes when a channel parameter, a single
task or one fault site changes (:mod:`repro.compiled.incremental`).
Results are **bit-identical** to the interpreted path — the equivalence
harness in ``tests/test_compiled_equivalence.py`` is the contract — and
each plan's evaluations are memoised per channel-parameter set on its
engine, the only place timing results are reused.

The same split covers the functional pass
(:mod:`repro.compiled.functional`: per-plan gather/scatter structure,
batched UDF evaluation over whole partition groups) and trace
generation (:mod:`repro.compiled.trace`: ExecutionTrace events
synthesized from compiled node timings instead of a re-simulation).

The process-global switch (:func:`configure_compiled`, normally set via
:attr:`repro.perf.config.PerfConfig.compiled` / the ``--no-compiled``
CLI flag) gates whether :class:`~repro.core.system.SystemSimulator`
routes its fault-free timing/functional/trace passes through the
compiled engines; runs with an active timing (or functional) fault
always take the interpreted path, whose per-task injector hooks the
faults need.
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
from repro.compiled.incremental import IncrementalEvaluator
from repro.compiled.lower import CompiledPlan, compile_plan
from repro.compiled.spec import CompiledSpec
from repro.compiled.trace import synthesize_trace

_ENABLED = True


def compiled_enabled() -> bool:
    """Whether fault-free timing passes use the compiled engine."""
    return _ENABLED


def configure_compiled(enabled: bool) -> bool:
    """Flip the process-global compiled switch; returns the new state."""
    global _ENABLED
    _ENABLED = bool(enabled)
    return _ENABLED


__all__ = [
    "CompiledEngine",
    "CompiledPlan",
    "CompiledSpec",
    "FunctionalEngine",
    "FunctionalPlan",
    "IncrementalEvaluator",
    "compile_plan",
    "compiled_enabled",
    "compiled_stats",
    "configure_compiled",
    "evaluate_plan",
    "functional_engine",
    "lower_functional_plan",
    "plan_engine",
    "reset_compiled_stats",
    "synthesize_trace",
]
