"""The host's speed, from a fixed piece of work the program never runs.

The shared 2-vCPU host this benchmark was built on changes speed by up to
half within seconds, and the mix of speeds drifts over tens of minutes.
CPU time follows wall time, so it is not time lost to other guests but
every instruction running slower.  Raw check times of the same code
therefore spread more between runs than any bound could allow.

While ``Pace.running``, a timer interrupts the process every
``SAMPLE_EVERY_S`` and times ``reference()``, so a long check gets samples
from inside it.  ``Pace.timed`` takes a check's start and end, leaves out
the samples taken inside it, and scales what remains by how far the host
was from its nominal speed around it: a time reported in seconds is the
time the check would take on a host where ``reference()`` takes
``NOMINAL_S``.  ``reference()`` is made of what the engine does most
(small objects, frozensets, dict lookups, recursive calls) but calls
nothing of the program, so a change to the program moves the scaled times
as it moves raw ones; only the host's speed cancels.
"""
from __future__ import annotations

import signal
from bisect import bisect_left
from contextlib import contextmanager
from statistics import mean, median
from time import perf_counter

# About what ``reference()`` takes on that host (Python 3.11.7, a Xeon VM)
# at its faster speed.  It only sets the scale: a timing reported in
# seconds is raw seconds times NOMINAL_S over the reference time measured
# around it.
NOMINAL_S = 0.0005
# The timer's period.  A sample takes about 1.5 ms, so sampling costs about
# 3% of a run.
SAMPLE_EVERY_S = 0.05


class _Node:
    __slots__ = ("key", "tag", "kids")

    def __init__(self, key, tag, kids):
        self.key = key
        self.tag = tag
        self.kids = kids


def _weight(node) -> int:
    return node.key + sum(_weight(kid) for kid in node.kids)


def reference() -> int:
    """A fixed piece of pure-Python work, about half a millisecond long."""
    nodes = [_Node(i, str(i % 50), ()) for i in range(200)]
    seen: dict[frozenset, list] = {}
    for i in range(200, 600):
        node = _Node(i, str(i % 50), (nodes[i % 197], nodes[(i * 7) % 189]))
        nodes.append(node)
        key = frozenset((node.tag, i % 11, (i % 5, node.tag)))
        seen.setdefault(key, []).append(node)
    return len(seen) + sum(_weight(nodes[-k]) for k in range(1, 20))


def reference_s() -> float:
    """The least of three timings of ``reference()``: an interrupt or a
    collection inside one of them does not count."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        reference()
        best = min(best, perf_counter() - started)
    return best


class Pace:
    """Reference samples along a run, and check times scaled by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []
        self.busy = False

    def sample(self, *_signal) -> None:
        """Times ``reference()``; also the timer's signal handler.  A tick
        that comes during another sample is skipped, so samples never
        overlap and stay in order."""
        if self.busy:
            return
        self.busy = True
        try:
            started = perf_counter()
            ref = reference_s()
            self.starts.append(started)
            self.ends.append(perf_counter())
            self.refs.append(ref)
        finally:
            self.busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, start: float, end: float) -> tuple[float, float]:
        """The time from ``start`` to ``end`` less the samples taken inside
        it, raw and scaled by the mean of those samples and the one on each
        side.  There must be a sample after ``end``."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        raw = end - start - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        return raw, raw * NOMINAL_S / mean(self.refs[max(lo - 1, 0):hi + 1])

    def slowdown(self) -> float:
        """How much slower than nominal the host ran, as a median."""
        return median(self.refs) / NOMINAL_S
