"""Span tracing at module boundaries, installed from outside the library.

Each hook replaces one attribute, named by its dotted path, with a wrapper
that records a span (name, start, end, parent, points) around the original
call. A target that no longer exists is recorded as absent instead of
raising, so a refactor that moves a function shows up as a missing layer.
Spans are kept in memory; per-layer metrics are computed from them at the
end of the run.
"""

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    points: int = 0
    extra: dict | None = None

    @property
    def seconds(self):
        return (self.end - self.start) * 1e-9


def resolve(dotted):
    """Return (owner, attribute) for a dotted name, or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


def _points(value):
    return int(np.size(value)) if value is not None else 0


class Tracer:
    """Records spans from hooked functions; single-threaded use only."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def _open(self, name, points=0):
        span = Span(name, time.perf_counter_ns(),
                    parent=self._stack[-1] if self._stack else -1, points=points)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def hook(self, dotted, name, points_arg=None, keep_result=False):
        """Wrap the callable at `dotted`; points_arg is the positional index
        of the array whose size counts as the call's points."""
        target = resolve(dotted)
        if target is None:
            self.absent.append(dotted)
            return
        owner, attr = target
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            arg = args[points_arg] if points_arg is not None and points_arg < len(args) else None
            span = self._open(name, _points(arg))
            try:
                result = original(*args, **kwargs)
                if keep_result:
                    span.extra = {"result": result}
                return result
            finally:
                self._close(span)

        self._install(owner, attr, original, wrapper)

    def hook_integrator(self, dotted, name="quad.integrate", integrand="quad.integrand"):
        """Wrap an integrate(f, a, b, breakpoints=..., max_panels=...) engine:
        each integrand call becomes a child span, and the call records how
        many integrand evaluations it made and whether the panel budget ran out."""
        target = resolve(dotted)
        if target is None:
            self.absent.append(dotted)
            return
        owner, attr = target
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(f, a, b, *args, **kwargs):
            bound = signature.bind(f, a, b, *args, **kwargs)
            bound.apply_defaults()
            span = self._open(name)
            evals = [0]

            def counted(x):
                evals[0] += 1
                child = self._open(integrand, _points(x))
                try:
                    return f(x)
                finally:
                    self._close(child)

            try:
                return original(counted, a, b, *args, **kwargs)
            finally:
                self._close(span)
                span.extra = {"evals": evals[0],
                              "budget_hit": _budget_hit(bound.arguments, evals[0])}

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unhook_all(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # aggregation

    def self_seconds(self, spans_slice):
        """Per-span self time: duration minus the direct children's durations."""
        lo, hi = spans_slice
        child = {}
        for i in range(lo, hi):
            p = self.spans[i].parent
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.spans[i].seconds
        return {i: self.spans[i].seconds - child.get(i, 0.0) for i in range(lo, hi)}

    def has_ancestor(self, index, name):
        p = self.spans[index].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


def _budget_hit(arguments, evals):
    """An engine that made at least max_panels integrand calls ran out of panels."""
    return "max_panels" in arguments and evals >= arguments["max_panels"]
