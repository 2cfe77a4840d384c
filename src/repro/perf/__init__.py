"""Execution acceleration layer: parallel map, prewarm, worker config.

The cycle-level simulator is the inner loop of every subsystem — the
conformance oracles, the chaos campaigns, the fleet serving runtime all
call it per partition per iteration.  This package makes those calls
fast without changing a single simulated number:

* :mod:`repro.perf.parallel` — an order-preserving
  ``ProcessPoolExecutor`` map with a serial fallback, used to fan out
  chaos cells, sweep points and fleet prewarm work across cores while
  keeping reports bit-identical to a serial run.
* :mod:`repro.perf.prewarm` — the picklable fleet prewarm unit that
  preprocesses and compiles one spec's plan on a worker.
* :mod:`repro.perf.config` — :class:`PerfConfig`, the worker-count
  record (``--jobs``) the CLI and library entry points thread through.

Timing results are reused in exactly one place: the compiled engine
(:mod:`repro.compiled.evaluate`) memoises each plan's evaluation per
channel-parameter set.
"""

from repro.perf.config import PerfConfig
from repro.perf.parallel import parallel_map

__all__ = [
    "PerfConfig",
    "parallel_map",
]
