"""Spans around calls into the program's layers, recorded from outside.

The benchmark wraps the program's public functions by attribute
replacement: every module attribute of the ``chromarect`` package that
holds a wrapped function is replaced, so a call is traced whichever name
it goes through (``cli.build_Hkc`` as well as ``construction.build_Hkc``).
Spans are kept in memory; nothing is written while the workload runs.

A layer's self time is the sum, over its spans, of each span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root span
    start: float
    end: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time, outermost call count and the counters
    of outermost calls.  A call is outermost when its parent span belongs
    to another layer, so a recursive builder counts once per top call."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        t["self_s"] += selfs[i]
        if s.parent >= 0 and spans[s.parent].name == s.name:
            continue
        t["calls"] += 1
        for key, value in s.counters.items():
            t[key] = t.get(key, 0) + value
    return totals


def root_time(spans: List[Span]) -> float:
    """Wall time covered by root spans, i.e. the sum of all self times."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def rss_mb() -> float:
    """High-water resident set size of this process, in MB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records spans for wrapped callables and undoes its patches."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn: Callable, counters: Optional[Callable] = None):
        """``fn`` wrapped in a span named ``name``.  ``counters(args,
        kwargs, result)`` returns work counts stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counters is not None:
                span.counters.update(counters(args, kwargs, result))
            return result

        return traced

    def patch_function(self, modules, fn: Callable, name: str, counters=None) -> None:
        """Replace ``fn`` under every name it has in ``modules``."""
        traced = self.wrap(name, fn, counters)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, counters=None) -> None:
        """Wrap a plain or class method defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, counters))
        else:
            new = self.wrap(name, raw, counters)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
