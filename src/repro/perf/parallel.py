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
from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Exceptions that mean "the pool broke", not "the task failed".
_POOL_FAILURES = (BrokenProcessPool, PicklingError, OSError)


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
) -> List[R]:
    """Map ``fn`` over ``items`` on up to ``workers`` processes.

    Runs serially when ``workers <= 1`` or there are fewer than two
    items (a pool would only add fork latency).  ``fn`` and the items
    must be picklable for the parallel path; anything unpicklable is
    caught as an infrastructure failure and executed serially instead.
    """
    items = list(items)
    if workers <= 1 or len(items) < 2 or not _crosses_process_boundary(fn):
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items))
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
    except _POOL_FAILURES:
        return [fn(item) for item in items]
