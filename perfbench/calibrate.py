"""Times scaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host, where the same code
runs up to twice as slow from one second or minute to the next.  So the
clock that times each call also samples the machine's speed, by timing
a short fixed reference routine (a *unit*) that never touches the
program: ``BRACKET_UNITS`` units back to back before and after each
call, and one unit every ``PERIOD_S`` during it, from a timer signal.
A call's time is reported as it would read on a machine that runs a
unit in ``NOMINAL_UNIT_S``:

    seconds = measured * NOMINAL_UNIT_S / mean time of those units

The mean leaves out the fastest and slowest tenth of the units, so one
disturbed unit moves nothing.  The units run during a call are not part
of its measured time.  A change to the program moves the scaled times
as much as the measured ones; a change in the host's load mostly moves
neither.  The measured times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

BRACKET_UNITS = 10
PERIOD_S = 0.01
UNIT_LEAVES = 64
# About a unit's time on a 2-vCPU VM with CPython 3.11.7 when the host
# is quiet; it only sets the scale.
NOMINAL_UNIT_S = 0.00012


class _Node:
    __slots__ = ("name", "args", "key")

    def __init__(self, name: str, args: tuple, key: int) -> None:
        self.name = name
        self.args = args
        self.key = key


def _unit() -> float:
    """Seconds to build a small term tree and count its nodes by hash:
    the object, tuple and dict work the program does.  Iterative, so it
    needs few frames when it runs from the timer inside deep recursion,
    and run with the collector off, so that the program's live objects
    cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = perf_counter()
        level = []
        for i in range(UNIT_LEAVES):
            name = "c%d" % (i & 7)
            level.append(_Node(name, (), hash(name)))
        while len(level) > 1:
            pairs = zip(level[::2], level[1::2])
            level = [_Node("f", (a, b), hash(("f", a.key, b.key))) for a, b in pairs]
        seen: dict[int, int] = {}
        stack = [level[0]]
        while stack:
            node = stack.pop()
            seen[node.key] = seen.get(node.key, 0) + 1
            stack.extend(node.args)
        return perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def _trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


@dataclass
class Timing:
    elapsed: float = 0.0  # wall-clock seconds of the call, units included
    measured: float = 0.0  # the same without the units run during the call
    seconds: float = 0.0  # measured, scaled to the nominal machine


class Clock:
    """Times calls in a single-threaded process; see the module notes.
    Owns SIGALRM while a call runs."""

    def __init__(self) -> None:
        self.units: list[float] = []
        self._in_calls = 0.0  # seconds of units run from the timer
        self._bracket()

    def _bracket(self) -> None:
        self.units.extend(_unit() for _ in range(BRACKET_UNITS))

    def _tick(self, signum, frame) -> None:
        begin = perf_counter()
        self.units.append(_unit())
        self._in_calls += perf_counter() - begin

    @contextmanager
    def timed(self):
        """Time the body; the yielded Timing is filled in when it ends."""
        timing = Timing()
        first = len(self.units) - BRACKET_UNITS
        in_calls = self._in_calls
        previous = signal.signal(signal.SIGALRM, self._tick)
        begin = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            timing.elapsed = perf_counter() - begin
            signal.signal(signal.SIGALRM, previous)
            timing.measured = timing.elapsed - (self._in_calls - in_calls)
            self._bracket()
            unit = _trimmed_mean(self.units[first:])
            timing.seconds = timing.measured * NOMINAL_UNIT_S / unit
