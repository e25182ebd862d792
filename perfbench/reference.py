"""A fixed reference probe that tracks how fast the machine runs right now.

On a shared host other tenants slow every process down, often by 1.5-2x
for seconds to minutes at a time.  The end-to-end times are therefore
measured against a probe: a fixed piece of pure-Python work, run between
the ops of a pass, that slows down with them.  An op's time is scaled by
``REFERENCE_S / probe`` where ``probe`` is the median of the probes made
right before, inside and right after it, so a time reads as seconds on a
machine on which one probe takes ``REFERENCE_S``.  The machine's speed
also changes within tenths of a second, so the probes that bracket an op
track it better than probes further away.

The probe mixes the kinds of work detkit does (``Fraction`` sums, big
integers, dict and list churn, sorting), because under contention they
slow down by different factors: no one of them alone tracks every
workload.  It does not touch detkit, so a change to detkit cannot move
it.  Imports only the standard library.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

# One probe's time on an idle core of the machine the benchmark was
# written on (2-vCPU KVM guest, CPython 3.11): the unit the scaled
# times are expressed in.
REFERENCE_S = 0.008


def _fractions():
    s = Fraction(0)
    for k in range(1, 500):
        s += Fraction(1, k * k + 1)
    return s


def _dict_and_strings():
    d = {}
    for i in range(15000):
        d[i % 977] = d.get(i % 977, 0) + i
    return sorted(str(i) for i in range(4000))


def _fraction_table():
    rows = [[Fraction(i * j + 1, j + 2) for j in range(12)] for i in range(50)]
    table = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return sorted(table.values())


def _big_ints():
    rng = random.Random(1)
    xs = [rng.getrandbits(90) for _ in range(400)]
    d = {}
    for i, x in enumerate(xs):
        d[x % 1009] = Fraction(x, i + 1) + d.get(x % 1009, 0)
    return sorted(map(str, d.values())), {tuple(xs[i:i + 4]) for i in range(400)}


def probe() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    _fractions()
    _dict_and_strings()
    _fraction_table()
    _big_ints()
    return time.perf_counter() - start


class Pacer:
    """Probes the machine's speed during a pass and keeps the time spent
    probing apart from the pass's own time.  Times are seconds since the
    pacer was made.

    A probing pacer runs a probe on entry, at every tick() (a pass ticks
    before each op) and on exit, and with ``timer_s`` also every
    ``timer_s`` seconds from an interval timer, inside ops too, for ops
    that run for seconds.  A pacer made with ``probing=False`` never
    probes.  A pass uses the pacer as a context manager and times its
    ops with work_s(), which leaves the probes out."""

    def __init__(self, probing: bool = False, timer_s: float | None = None):
        if timer_s is not None and (not probing or timer_s <= 0):
            raise ValueError("a probe timer needs a probing pacer and a period > 0")
        self.probing = probing
        self.timer_s = timer_s
        self.origin = time.perf_counter()
        self.probes = []        # [at, seconds], in the order made
        self.probing_s = 0.0
        self.in_probe = False

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def work_s(self) -> float:
        """Time since the pacer was made, less the time spent probing."""
        return self.now() - self.probing_s

    def _probe(self, *_) -> None:
        # A timer tick that lands in a slow probe would run a probe inside
        # it and count the inner one twice in probing_s; skip it.
        if self.in_probe:
            return
        self.in_probe = True
        try:
            at = self.now()
            seconds = probe()
            self.probes.append([at, seconds])
            self.probing_s += self.now() - at
        finally:
            self.in_probe = False

    def tick(self) -> None:
        if self.probing:
            self._probe()

    def __enter__(self):
        self.tick()
        if self.timer_s:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.timer_s, self.timer_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.tick()


def local_probe(probes, start: float, end: float) -> float:
    """Median of the probes made around the interval [start, end]: the
    last one begun at or before `start`, every one begun inside, and the
    first one begun at or after `end`.  `probes` are in the order made."""
    ats = [at for at, _ in probes]
    lo = max(bisect.bisect_right(ats, start) - 1, 0)
    near = probes[lo:bisect.bisect_left(ats, end) + 1]
    if not near:
        raise ValueError("no probes")
    return statistics.median(seconds for _, seconds in near)


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while a probe took `probe_s`, in reference units."""
    return seconds * REFERENCE_S / probe_s
