"""In-memory span tracer for the benchmark's traced run.

The tracer wraps module globals and class attributes that blockdec calls
through, so ``src/`` stays untouched. A wrapped call becomes either a span
(name, start, end, parent, run id) or, for calls made once per masked
position, a counter with summed time, so that the trace stays bounded.
Counter time is charged to the enclosing span as child time. Spans stay in
memory until the run ends; the helpers below turn them into self times,
percentiles and the context-length slope.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

# Span record fields (lists, so that end and child time can be filled in).
NAME, START, END, PARENT, RUN, SIZE, COUNTED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # (name, parent span name, run id) -> [calls, ns]
        self.counters: dict[tuple[str, str, str], list[int]] = {}
        self.run_id = "setup"
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str, size: int = -1) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id, size, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def current(self) -> str:
        return self.spans[self._stack[-1]][NAME] if self._stack else ""

    def spanned(self, name, fn, size_of=None):
        """Wrap ``fn`` so each call records a span. ``name`` may be a
        callable of the current parent name, to label a call by its path."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(tracer.current()) if callable(name) else name
            idx = tracer.open(label, size_of(args) if size_of else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` so each call adds to a counter keyed by its parent
        span's name and the run id."""
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack = tracer._stack
                parent = tracer.spans[stack[-1]] if stack else None
                if parent is not None:
                    parent[COUNTED] += dt
                key = (name, parent[NAME] if parent is not None else "", tracer.run_id)
                entry = tracer.counters.setdefault(key, [0, 0])
                entry[0] += 1
                entry[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, patches):
        """Apply ``(owner, attribute, make_wrapper)`` patches for the body,
        then restore every original in ``finally`` and check the restore."""
        saved = []
        try:
            for owner, attr, make in patches:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, make(raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            for owner, attr, raw in saved:
                if owner.__dict__[attr] is not raw:
                    raise RuntimeError(f"tracer left {owner.__name__}.{attr} wrapped")


# -- analysis -----------------------------------------------------------


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus the part of its
    interval that its child spans cover, minus the counter time charged to it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered - s[COUNTED])
    return out


PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def _rank(p: float, n: int) -> int:
    # Exact arithmetic: 99.9 / 100 * 10000 must be 9990, not 9990.000000000002.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest percentile of the ladder with at least ``min_beyond`` of
    ``n`` samples above its nearest rank; None when even the median lacks them."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= min_beyond:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def slope(xs, ys) -> float:
    """Least-squares slope of ``ys`` against ``xs``."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("xs are all equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
