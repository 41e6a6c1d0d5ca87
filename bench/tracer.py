"""In-memory span tracer for the benchmark's traced run.

The tracer wraps functions at the module (or class) attribute where their
caller looks them up, records one span per call and keeps every span in
memory until :meth:`Tracer.summary` is read at the end of the run. Each
thread has its own span stack, so spans from the ``run_sampling`` thread pool
never interleave with the main thread's. A worker thread's outermost span is
parented to the span open in the thread that created the tracer (the pool is
started from there), so ``run_sampling`` owns the chunk work its pool does.

A span's self time is its duration minus the part of its interval that its
children cover; overlapping children from parallel workers count once, so
self times are never negative.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Counter = Callable[[tuple[Any, ...], Any], dict[str, Any]]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Records spans around patched functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.kept: dict[str, list[Any]] = defaultdict(list)
        self._home_thread = threading.get_ident()
        self._home_stack: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._home_stack[-1].id
            except IndexError:
                pass
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, parent, name, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a block of the caller's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        counter: Counter | None = None,
        keep: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``counter`` maps the call's positional arguments and result to counts
        stored on the span;
        ``keep`` also stores the result in ``self.kept[name]``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts = counter(args, result)
            if keep:
                tracer.kept[name].append(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: ``calls``, ``s`` (total), ``self_s`` and summed counts.

        String counts are collected into a sorted list of distinct values.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: dict[str, dict[str, Any]] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = s.end - s.start
            agg["calls"] += 1
            agg["s"] += duration
            agg["self_s"] += duration - covered(children.get(s.id, ()), s.start, s.end)
            for key, value in s.counts.items():
                if isinstance(value, str):
                    agg[key] = sorted(set(agg.get(key, [])) | {value})
                else:
                    agg[key] = agg.get(key, 0) + value
        return out


def covered(intervals: Any, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
