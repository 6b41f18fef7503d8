"""Spans around a package's public functions, recorded from outside it.

A Tracer wraps each target function at every place it is looked up: in the
module that defines it and in every module of the package that imported the
name (tridiff's evaluation imports similarity_vector and split by name;
ingest and snapshot import build_graph). A target that no longer exists is
skipped and listed in `skipped`, so a program that drops a function still
runs under the same benchmark.

Each span records its thread. `attribute` turns the spans of one operation
into wall-clock seconds per layer that add up to the operation's wall time,
also when the operation runs work on a thread pool, where summed spans can
exceed wall time.
"""

from __future__ import annotations

import bisect
import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

Measure = Callable[[Any], dict[str, float]]


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    start: float
    end: float
    counts: dict[str, float] | None = None


class Tracer:
    """Install with `with tracer:`; spans collect in `tracer.spans`."""

    def __init__(self, package: str, targets: dict[str, Measure | None]):
        self.package = package
        self.targets = targets  # "module.function" -> measure of its result
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        self.skipped = []
        for target, measure in self.targets.items():
            module_name, _, attr = target.rpartition(".")
            module = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.skipped.append(target)
                continue
            wrapper = self._wrap(target, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, such as the whole operation."""
        self.spans.append(Span(name, threading.get_ident(), start, end))

    def _wrap(self, name: str, fn: Callable, measure: Measure | None) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append(Span(name, threading.get_ident(), start, clock()))
                raise
            end = clock()
            counts = measure(result) if measure is not None else None
            spans.append(Span(name, threading.get_ident(), start, end, counts))
            return result

        return wrapper


def attribute(
    spans: list[Span], main_thread: int, start: float, end: float, root: str
) -> dict[str, float]:
    """Wall seconds of [start, end] per innermost span name.

    A worker thread counts as busy from its first to its last span inside
    the main-thread span that spawned it; outside its own spans it is doing
    that parent's work. While any worker is busy, the main thread is taken
    to be waiting for it, and each instant is split evenly among the busy
    workers. Otherwise the instant goes to the main thread's innermost span,
    or to `root` when none is open.
    """
    main_spans = sorted(
        (s for s in spans if s.thread == main_thread), key=lambda s: (s.start, -s.end)
    )
    main_starts = [s.start for s in main_spans]
    windows: dict[tuple[int, int], list[float]] = {}
    for s in spans:
        if s.thread == main_thread:
            continue
        i = bisect.bisect_right(main_starts, s.start) - 1
        while i >= 0 and main_spans[i].end < s.start:
            i -= 1
        key = (s.thread, i)
        window = windows.setdefault(key, [s.start, s.end])
        window[0] = min(window[0], s.start)
        window[1] = max(window[1], s.end)

    # (time, opening, tie-break, payload): at equal times ends come first,
    # outer spans open before inner ones and inner spans close first
    events: list[tuple[float, int, float, Any]] = []
    for s in spans:
        if s.end > s.start:
            events.append((s.start, 1, -s.end, s))
            events.append((s.end, 0, -s.start, s))
    for (thread, _), (lo, hi) in windows.items():
        events.append((lo, 1, 0.0, thread))
        events.append((hi, 0, 0.0, thread))
    events.sort(key=lambda e: e[:3])

    stacks: dict[int, list[Span]] = defaultdict(list)
    busy: dict[int, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)

    def share(seg: float) -> None:
        main_stack = stacks[main_thread]
        main_top = main_stack[-1].name if main_stack else root
        workers = [t for t, n in busy.items() if n > 0]
        if not workers:
            totals[main_top] += seg
            return
        part = seg / len(workers)
        for t in workers:
            totals[stacks[t][-1].name if stacks[t] else main_top] += part

    prev = start
    for t, opening, _, payload in events:
        t = min(max(t, start), end)
        if t > prev:
            share(t - prev)
            prev = t
        if isinstance(payload, Span):
            if opening:
                stacks[payload.thread].append(payload)
            else:
                stacks[payload.thread].remove(payload)
        else:
            busy[payload] += 1 if opening else -1
    if end > prev:
        share(end - prev)
    return dict(totals)
