"""Spans around calls into the library's layers, recorded from outside it.

Each traced function is replaced, in every loaded robustiso module that
holds it, by a wrapper that records a span: name, start, end, parent span
and instance id.  Hot methods such as QapInstance.c stay unwrapped.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    instance: str


def self_times(spans):
    """Per span name: total duration minus the time its child spans cover."""
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals = {}
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
    return totals


def call_counts(spans):
    return Counter(span.name for span in spans)


class Tracer:
    """Installs span-recording wrappers; `observers` turn results into counts.

    `targets` maps a span name such as "qap.b_alpha" to the function object;
    `observers` maps a span name to f(args, kwargs, result, counts).
    """

    def __init__(self, targets, observers=None):
        self.targets = dict(targets)
        self.observers = dict(observers or {})
        self.spans = []
        self.counts = Counter()
        self.instance = ""
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.instance)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result, self.counts)
            return result

        return traced

    def install(self):
        if self._patched:
            return
        wrappers = {
            id(fn): (fn, self._wrap(name, fn)) for name, fn in self.targets.items()
        }
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "robustiso" or modname.startswith("robustiso.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is not None and value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

