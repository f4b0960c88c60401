"""In-memory spans around the benchmark's calls into the program.

A traced pass wraps every public call in a span (name, start, end,
parent, problem id); the parent of a call span is the span of the
problem it serves.  Spans stay in memory and are written out when the
run ends.  Self time is a span's duration minus the time its child spans
cover, so a problem span's self time is the harness's own share.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    problem: str
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Records spans; ``call`` is the traced counterpart of ``direct``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._problem: Span | None = None

    def open_problem(self, problem_id: str) -> None:
        self._problem = self._new(None, problem_id, "problem")

    def close_problem(self) -> None:
        self._problem.end = perf_counter()
        self._problem = None

    def call(self, name, fn, *args):
        span = self._new(self._problem.id, self._problem.problem, name)
        try:
            return fn(*args)
        finally:
            span.end = perf_counter()

    def _new(self, parent, problem_id, name) -> Span:
        span = Span(len(self.spans), parent, problem_id, name, perf_counter())
        self.spans.append(span)
        return span

    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds of self time by (span name, problem id)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: dict[tuple[str, str], float] = {}
        for span in self.spans:
            key = (span.name, span.problem)
            out[key] = out.get(key, 0.0) + span.end - span.start - covered[span.id]
        return out


def direct(name, fn, *args):
    """The untraced call: no span, no clock."""
    return fn(*args)
