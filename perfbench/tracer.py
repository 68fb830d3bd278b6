"""Per-layer spans recorded by wrapping the engine's public functions.

The engine itself is not changed: while a `Tracer` is active, every module
attribute that refers to a traced function is replaced by a timing wrapper,
and the originals are put back on exit. Spans stay in memory; `summary`
folds them into per-name call counts, inclusive time and self time.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    # Time inside this span spent on tracer bookkeeping (observers), which
    # is excluded from the span's own duration.
    hidden: float = 0.0
    args: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start - self.hidden


@dataclass
class Stat:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Wraps `targets` ({span name: (module, function name, observer)}).

    An observer, when given, is called as observer(tracer, args, result)
    after the span closes; its cost is kept out of every enclosing span.
    """

    targets: dict
    package: str = "voxpillar"
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    keys: dict[str, set] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple] = field(default_factory=list)

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items()) if m is not None
                   and (name == self.package or name.startswith(self.package + "."))]
        for span_name, (module, attr, observer) in self.targets.items():
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, observer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        self._stack.clear()
        return False

    def reset(self):
        self.spans = []
        self.counters = {}
        self.keys = {}

    def count(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def note(self, name: str, key):
        """Record `key` under `name`; `distinct_counts` counts distinct keys."""
        self.keys.setdefault(name, set()).add(key)

    def distinct_counts(self) -> dict[str, int]:
        return {name: len(keys) for name, keys in self.keys.items()}

    def open_args(self, name: str):
        """Arguments of the innermost open span called `name`, else None."""
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                return self.spans[idx].args
        return None

    def _wrap(self, name, fn, observer):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                        args=args + tuple(kwargs.values()))
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observer is not None:
                t0 = time.perf_counter()
                observer(self, args + tuple(kwargs.values()), result)
                spent = time.perf_counter() - t0
                for idx in self._stack:
                    self.spans[idx].hidden += spent
            span.args = ()
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, Stat]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        stats: dict[str, Stat] = {}
        for span, inner in zip(self.spans, child):
            st = stats.setdefault(span.name, Stat())
            st.calls += 1
            st.inclusive_s += span.duration
            st.self_s += span.duration - inner
        return stats

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent} for s in self.spans]
