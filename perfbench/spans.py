"""In-memory span recorder for the traced runs.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one started (-1 at the root). Spans are
recorded by wrapping callables, so they nest exactly like the calls they
wrap; nothing is written until :meth:`SpanRecorder.dump` at the end of
the run.

A span's self time is its duration minus the durations of its direct
children. Calls on one thread never overlap, so the children of a span
are disjoint intervals inside it and the subtraction is exact.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "self_times", "check_tree", "totals"]


class SpanRecorder:
    """Records nested spans around wrapped callables (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, *, on_result=None):
        """``fn`` wrapped in a span named ``name``.

        ``on_result(args, result)`` runs after the span closes, so the work
        counting it does lands in the parent's self time, not this span's.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table plus ``[name_id, start,
        end, parent]`` rows."""
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(n, len(names)), s, e, p] for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def check_tree(spans: list[list], *, slack: float = 1e-9) -> list[str]:
    """Problems with the span tree; empty when it is well formed.

    Well formed: every span ends after it starts, its parent precedes it,
    it lies inside its parent, and its self time is not negative.
    """
    problems = []
    for i, ((name, start, end, parent), own) in enumerate(
        zip(spans, self_times(spans))
    ):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= i:
            problems.append(f"span {i} ({name}) has parent {parent} recorded after it")
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
        if own < -slack:
            problems.append(f"span {i} ({name}) has negative self time {own:.3g}")
    return problems


def totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, total duration ``s`` and total ``self_s``."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
    return dict(out)
