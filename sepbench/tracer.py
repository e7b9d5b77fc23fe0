"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public functions at the names their callers look up
(for example ``sepwit.solver.project_amplitudes`` as well as
``sepwit.tensor.project_amplitudes``) with wrappers that record one span
per call: name, start, end, parent and a few attributes.  Spans stay in
memory until the run ends.  Nothing here is imported by the untraced
runs' timed code, and :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1           # index into Tracer.spans, -1 for top level
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - _covered(children.get(idx, []), span.start,
                                     span.end)
            for idx, span in enumerate(spans)]


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.names: list[str] = []     # every span name patched in
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def traced(self, name: str, func, before=None, after=None):
        """Wrapper of ``func`` recording a span named ``name``.

        ``before(args, kwargs)`` returns initial span attributes;
        ``after(span, result)`` and an exception both see the span
        before it is closed, and exceptions propagate unchanged.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0,
                        parent=tracer._stack[-1] if tracer._stack else -1,
                        attrs=before(args, kwargs) if before else {})
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.end = tracer.clock()
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
            span.end = tracer.clock()
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def patch(self, owners, attr: str, name: str, before=None, after=None):
        """Wrap ``attr`` on every owner (module or class) that holds the
        same object as the first owner, so every caller's lookup is
        traced."""
        original = getattr(owners[0], attr)
        wrapper = self.traced(name, original, before, after)
        self.names.append(name)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
