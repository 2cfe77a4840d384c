"""Span recorder that wraps the program's public callables from outside.

Each target is named ``module:attr.path`` at the binding its callers
actually use (``repro.core.framework:degree_based_grouping``, not the
defining module, because the framework imported the name), or as a
method on its class (``repro.compiled.functional:FunctionalEngine.accumulate``).
While installed, every call records a span: self time (its duration
minus the time its child spans cover on the same thread), inclusive
time and a call count.  Spans nest per thread, so work that a server
runs in an executor thread is attributed to its own stack.

A target that no longer exists is reported as *untraced* and never
fails the run, so code removed by a later change only drops its span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped callable: the span it records and where it lives.

    ``count`` is an optional ``(counters, return_value)`` hook that adds
    counters read from the call's public return value.
    """

    span: str
    path: str
    count: Optional[Callable[[Dict[str, float], object], None]] = None


class SpanTotals:
    __slots__ = ("self_ns", "inclusive_ns", "calls")

    def __init__(self) -> None:
        self.self_ns = 0
        self.inclusive_ns = 0
        self.calls = 0


def _resolve(path: str) -> Tuple[object, str, object]:
    """(owner, attribute name, current value) of ``module:attr.path``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (staticmethod, classmethod)):
            raise AttributeError(f"{path} is not a plain method")
    return owner, name, getattr(owner, name)


class SpanRecorder:
    """Installs span wrappers on targets; collects totals and counters."""

    def __init__(self, targets: List[Target]):
        self.targets = list(targets)
        self.totals: Dict[str, SpanTotals] = {
            t.span: SpanTotals() for t in self.targets
        }
        self.counters: Dict[str, float] = {}
        #: ``path`` of every target that could not be wrapped.
        self.untraced: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- span bookkeeping --------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: str) -> list:
        frame = [span, time.perf_counter_ns(), 0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        elapsed = time.perf_counter_ns() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += elapsed
        with self._lock:
            totals = self.totals[frame[0]]
            totals.self_ns += elapsed - frame[2]
            totals.inclusive_ns += elapsed
            totals.calls += 1

    def _count(self, target: Target, result: object) -> None:
        if target.count is not None:
            with self._lock:
                target.count(self.counters, result)

    def _wrap(self, target: Target, fn):
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                frame = recorder._enter(target.span)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    recorder._exit(frame)
                recorder._count(target, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder._enter(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._exit(frame)
            recorder._count(target, result)
            return result

        return wrapper

    # -- install / uninstall ----------------------------------------------
    def install(self) -> "SpanRecorder":
        for target in self.targets:
            try:
                owner, name, fn = _resolve(target.path)
            except (ImportError, AttributeError):
                self.untraced.append(target.path)
                continue
            if not callable(fn):
                self.untraced.append(target.path)
                continue
            own = isinstance(owner, type) and name in owner.__dict__
            original = owner.__dict__[name] if own else fn
            self._patches.append(
                (owner, name, original, own or not isinstance(owner, type))
            )
            setattr(owner, name, self._wrap(target, fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, restore = self._patches.pop()
            if restore:
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # the wrapper shadowed an inherited one

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def untraced_spans(self) -> List[str]:
        """Spans none of whose targets could be wrapped."""
        wrapped = {
            t.span for t in self.targets if t.path not in self.untraced
        }
        return sorted({t.span for t in self.targets} - wrapped)
