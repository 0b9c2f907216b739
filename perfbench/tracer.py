"""Spans around calls into the program's layers, recorded from outside.

The benchmark never edits ``src/``: it wraps methods of the *instances*
it builds (a tuner's cost model, its policies, its runner; a serve
app's record store), by setting an instance attribute that shadows the
class method.  Calls the program makes through ``self.<method>`` go
through the wrapper too, so nesting is captured (``fit`` ->
``featurize``).  :meth:`Tracer.uninstall` deletes the attributes again,
leaving the instances exactly as built.

Spans live in memory: name, start, end, parent span and thread.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    rows: int = 0  # work items the call carried (batch length, ...)
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Installs timing wrappers on instance methods and keeps the spans."""

    spans: list[Span] = field(default_factory=list)
    results: dict[str, list] = field(default_factory=dict)
    _installed: list[tuple[object, str]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _next_id: int = 0

    def wrap(self, obj, method: str, name: str, rows=None, keep_result=False) -> None:
        """Time every call of ``obj.<method>`` as a span called ``name``.

        ``rows(args, result)`` returns the work count recorded on the
        span; with ``keep_result`` every return value is kept under
        ``results[name]``.
        """
        if method in vars(obj):
            raise RuntimeError(f"{name}: {method} is already wrapped")
        inner = getattr(obj, method)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._close(span)
            if rows is not None:
                span.rows = int(rows(args, result))
            if keep_result:
                with tracer._lock:
                    tracer.results.setdefault(name, []).append(result)
            return result

        traced.__wrapped__ = inner
        setattr(obj, method, traced)
        self._installed.append((obj, method))

    def uninstall(self) -> None:
        """Remove every wrapper this tracer installed."""
        for obj, method in self._installed:
            delattr(obj, method)
        self._installed.clear()

    @property
    def installed(self) -> int:
        return len(self._installed)

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span = Span(
                span_id=self._next_id,
                name=name,
                parent=stack[-1].span_id if stack else None,
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration

    # ------------------------------------------------------------------
    def named(self, name: str, since: int = 0) -> list[Span]:
        return [s for s in self.spans[since:] if s.name == name]

    def total(self, name: str, since: int = 0) -> float:
        return sum(s.duration for s in self.named(name, since))

    def self_total(self, name: str, since: int = 0) -> float:
        return sum(s.self_s for s in self.named(name, since))

    def rows(self, name: str, since: int = 0) -> int:
        return sum(s.rows for s in self.named(name, since))

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (relative times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "name": s.name,
                            "parent": s.parent,
                            "thread": s.thread,
                            "start": s.start - t0,
                            "end": s.end - t0,
                            "self": s.self_s,
                            "rows": s.rows,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# summary statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    """Median of ``values``; 0 when there are none."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, sample count)``.  With 10 samples or
    fewer no such percentile exists and the maximum is returned as the
    100th percentile.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(values[-1]), 100.0, n
    return float(values[n - 11]), 100.0 * (n - 10) / n, n


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
