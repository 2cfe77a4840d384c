"""Execution acceleration layer: the order-preserving process pool.

The cycle-level simulator is the inner loop of every subsystem — the
conformance oracles, the chaos campaigns, the fleet serving runtime all
call it per partition per iteration.  This package makes those calls
fast without changing a single simulated number:

* :mod:`repro.perf.parallel` — an order-preserving
  ``ProcessPoolExecutor`` map with a serial fallback, used to fan out
  chaos campaign cells (``chaos run --jobs``) across cores while
  keeping reports bit-identical to a serial run.  Chaos cells are the
  one workload where a pool measured faster than the serial loop; see
  docs/PERFORMANCE.md for the measurements.

Timing results are reused in exactly one place: the compiled engine
(:mod:`repro.compiled.evaluate`) memoises each plan's evaluation per
channel-parameter set.
"""

from repro.perf.parallel import parallel_map

__all__ = [
    "parallel_map",
]
