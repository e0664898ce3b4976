"""In-memory span recorder for the traced benchmark pass.

A span is [name, start, end, parent]: parent is the index of the span that
was open when this one began, or None for a root. Spans are kept in memory
and summarised once, when the traced process ends. A span's self time is
its duration minus the part of its interval that its child spans cover.

A generator (or any iterator) is traced as one span per resumption, each
parented to whatever span is open at that ``next()``. A generator consumed
inside another function therefore charges its own work to itself, and the
consumer keeps only the time between resumptions.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from collections.abc import Callable, Iterator


class Tracer:
    """Records spans, call counts and named counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.sums: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.first_item_s: dict[str, list[float]] = defaultdict(list)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def add(self, name: str, value: int) -> None:
        self.sums[name] += value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` recording a span per call (per resumption for a
        generator function); ``observe(result)`` runs after each completed
        call, outside the span."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self.iterate(name, fn(*args, **kwargs), self.clock())

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def iterate(
        self, name: str, items: Iterator, started: float | None = None
    ) -> Iterator:
        """Yield from ``items`` with each ``next()`` inside a span ``name``.

        The time from ``started`` to the first item is kept in
        ``first_item_s[name]``; ``sums[name + '.items']`` counts the items.
        """
        it = iter(items)
        if started is None:
            started = self.clock()
        first = True
        while True:
            idx = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(idx)
            if first:
                self.first_item_s[name].append(self.clock() - started)
                first = False
            self.sums[name + ".items"] += 1
            yield item

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            totals[name] += (end - start) - covered(children.get(idx, ()), start, end)
        return dict(totals)

    def summary(self) -> dict:
        """A JSON-ready digest of everything recorded."""
        return {
            "self_s": self.self_times(),
            "calls": dict(self.calls),
            "sums": dict(self.sums),
            "peaks": dict(self.peaks),
            "first_item_s": dict(self.first_item_s),
        }


def covered(intervals, lo: float, hi: float) -> float:
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
