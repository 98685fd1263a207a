"""In-memory span tracer that wraps the package's layer boundaries from outside.

Nothing in the package is edited: :meth:`Tracer.patch` replaces a name in
the namespace of the module that *calls* it (``evidfuse.tracker.combine``
is the ``combine`` that ``tracker`` calls) and :meth:`Tracer.restore` puts
the originals back. A span is ``(name, start_ns, end_ns, parent, info)``;
``parent`` is the index of the enclosing span or -1. Spans only cover calls
made in this process, so traced runs use one worker.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, describe: Callable | None = None,
             degenerate: tuple[type, ...] = ()) -> Callable:
        """Return ``fn`` recording one span per call.

        ``describe(args, result)`` supplies the span's ``info``; an exception
        listed in ``degenerate`` is recorded as ``info = ("degenerate", ...)``
        and re-raised.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            outcome = "ok"
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except degenerate:
                outcome = "degenerate"
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                info = describe(args, result) if describe is not None else None
                spans[index] = (name, start, end, parent, (outcome, info))

        return traced

    def patch(self, module: object, attr: str, name: str, **kwargs) -> bool:
        """Wrap ``module.attr`` in place; False if the module has no such name."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **kwargs))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "outcome"])
            for i, (name, start, end, parent, (outcome, _)) in enumerate(self.spans):
                writer.writerow([i, name, start, end, parent, outcome])


class SpanSummary:
    """Per-name totals, call counts and self times of one list of spans.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (single thread), so this
    is the part of the interval no child covers.
    """

    def __init__(self, spans: list[tuple]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.child_ns: dict[str, int] = defaultdict(int)
        self.nested_ok = True
        for name, start, end, parent, _ in spans:
            duration = end - start
            self.calls[name] += 1
            self.total_ns[name] += duration
            if parent >= 0:
                pname, pstart, pend, _, _ = spans[parent]
                self.child_ns[pname] += duration
                if start < pstart or end > pend:
                    self.nested_ok = False

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return (self.total_ns.get(name, 0) - self.child_ns.get(name, 0)) / 1e9

    def us_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_ns[name] / calls / 1e3 if calls else 0.0

    def accounts(self) -> bool:
        """Every child span lies inside its parent's interval, so each
        parent's total is its children's totals plus a nonnegative self time."""
        return self.nested_ok and all(
            total >= self.child_ns.get(name, 0) for name, total in self.total_ns.items())
