"""Order-preserving process-parallel map with a serial fallback.

Determinism contract: the result list is collected **by submission
index, never by completion order**, so a parallel run merges into
byte-identical reports with a serial one — the caller's loop sees the
same results in the same positions either way.

Failure semantics split two worlds apart:

* *Pool infrastructure* failures — a broken worker pool, fork/pickle
  trouble — degrade to the plain serial loop.  The work item set is
  identical, so the outcome is too, just slower.
* *Task* exceptions (anything ``fn`` raises) propagate unchanged, as
  they would from a serial loop.  A worker pool is an optimisation,
  never an error-swallowing boundary.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Exceptions that mean "the pool broke", not "the task failed".
_POOL_FAILURES = (BrokenProcessPool, PicklingError, OSError)


def _apply_perf_in_worker(perf_dict: dict) -> None:
    """Pool initializer: re-apply the caller's PerfConfig in the worker.

    Without this, workers run on whatever process-global compiled
    switch they inherited (fork) or the default (spawn) — so
    ``--no-compiled`` would silently stop applying inside pools.  The
    config travels as its ``to_dict()`` payload (plain primitives,
    picklable everywhere).
    """
    from repro.perf.config import PerfConfig

    PerfConfig.from_dict(perf_dict).apply()


def _crosses_process_boundary(fn: Callable) -> bool:
    """Whether ``fn`` can be shipped to a worker at all.

    Probed up front because CPython reports an unpicklable callable
    lazily from the future, and as ``AttributeError``/``TypeError``
    rather than ``PicklingError`` — catching those around the pool
    would misread genuine task failures as infrastructure ones.
    """
    try:
        pickle.dumps(fn)
    except (PicklingError, AttributeError, TypeError):
        return False
    return True


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
    perf=None,
) -> List[R]:
    """Map ``fn`` over ``items`` on up to ``workers`` processes.

    Runs serially when ``workers <= 1`` or there are fewer than two
    items (a pool would only add fork latency).  ``fn`` and the items
    must be picklable for the parallel path; anything unpicklable is
    caught as an infrastructure failure and executed serially instead.

    ``perf`` (a :class:`~repro.perf.config.PerfConfig`) is re-applied
    in every worker via a pool initializer, so the compiled-core
    setting holds inside the pool regardless of start method.  The
    serial paths skip it — the parent already applied its own config.
    """
    items = list(items)
    if workers <= 1 or len(items) < 2 or not _crosses_process_boundary(fn):
        return [fn(item) for item in items]
    initializer: Optional[Callable] = None
    initargs: tuple = ()
    if perf is not None:
        initializer = _apply_perf_in_worker
        initargs = (perf.to_dict(),)
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
    except _POOL_FAILURES:
        return [fn(item) for item in items]
