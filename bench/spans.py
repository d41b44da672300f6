"""In-memory span tracer used by traced benchmark passes.

A span is one call into a layer: (id, name, parent id, start, end, error,
attrs).  Spans are kept in a list while the pass runs and written out once it
ends.  Hot leaf functions (the FFTs, the RK4 right-hand sides) are far too
frequent to keep a span per call; for those the tracer keeps a counter of
calls and seconds instead, and attributes every FFT call to the innermost
open layer, so that transforms per step can be read off per layer.

Wrappers replace a function *as the calling module binds it*: wrapping
``scnls.sweep.evolve_nls`` traces the sweep's calls to the NLS integrator and
nothing else.  A binding the package no longer has raises AttributeError,
so that a renamed layer fails the traced pass instead of silently changing
what a metric means.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter


def _binding(owner, attr: str):
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise AttributeError(f"{owner.__name__} has no binding {attr!r} to trace; "
                             "update bench/layers.py") from None


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "error", "attrs")

    def __init__(self, sid: int, name: str, parent: int | None, start: float):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.error = None
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error,
                "attrs": self.attrs}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._layers: list[str] = ["pass"]      # innermost layer for FFT attribution
        self.calls: Counter = Counter()         # counter name -> calls
        self.seconds: Counter = Counter()       # counter name -> seconds
        self.fft_by_layer: Counter = Counter()  # layer name -> FFT calls
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._open.append(span)
        self._layers.append(name)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._open.pop()
        self._layers.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------------

    def _replace(self, owner, attr: str, old, new) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span per call of owner.attr.  on_return(span, args,
        kwargs, result) may attach attributes after the span has closed."""
        fn = _binding(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        self._replace(owner, attr, fn, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls and seconds of owner.attr without storing spans; the
        counter's name becomes the innermost layer while the call runs."""
        fn = _binding(owner, attr)
        clock, calls, seconds, layers = (self.clock, self.calls, self.seconds,
                                         self._layers)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            layers.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1
                layers.pop()

        self._replace(owner, attr, fn, counted)

    def count_fft(self, owner, attr: str, name: str = "fft") -> None:
        """Like count(), and attributes each call to the innermost layer."""
        fn = _binding(owner, attr)
        clock, calls, seconds, layers, by_layer = (
            self.clock, self.calls, self.seconds, self._layers, self.fft_by_layer)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            by_layer[layers[-1]] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1

        self._replace(owner, attr, fn, counted)

    def restore(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- reduction -----------------------------------------------------------

    def ancestors(self, span: Span):
        pid = span.parent
        while pid is not None:
            parent = self.spans[pid]
            yield parent
            pid = parent.parent

    def under(self, span: Span, name_prefix: str) -> bool:
        return any(a.name.startswith(name_prefix) for a in self.ancestors(span))

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover
        (spans nest strictly in a single-threaded pass)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]
