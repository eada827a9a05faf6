"""Correction for the speed of the machine while a run measures.

On the 2-core virtual machine where the benchmark was defined, the host
slows this process by 10% to 70% for phases of seconds to minutes.  A
fixed pure-Python loop took 36 ms in one phase and 60 ms in the next, and
whole 30-second runs fell inside one slow phase.  No statistic over one
run removes a slowdown that lasts the whole run.

So the benchmark times a fixed kernel of its own, the probe, on a timer
ten times a second, wherever the program is: the SIGALRM handler runs it
between two bytecodes of the main thread.  Each measured time has the
probes that ran inside it taken out, and is scaled by the probe's
reference time over the probe's mean time around it:

    reported = (measured - probes inside) * PROBE_REFERENCE_S / (mean probe time)

The mean is over the probes that ran inside the measurement, or over the
3 probes nearest to it if fewer ran inside.  The slow spells are bursty,
so the probes closest in time follow them best: on repeated `verify`
calls of 0.5 s, this left a coefficient of variation of 0.096 where the
mean of the probes within 2 s left 0.124 (0.150 uncorrected).

A change to `nakayama` moves the measured times and not the probe, so it
moves the reported times by the same share.  A slow phase moves both.  The
probe mixes the work `nakayama` does: exact integer elimination, subsets
kept in tuples and dicts, and reads scattered over a heap of 65,536
tuples.  It runs with the garbage collector off and frees all it makes.
So it never pays for a collection of the program's heap, and a change
that grows or shrinks that heap (a memo table, say) does not move the
probe.  Its allocations do bring the program's next young-generation
collection nearer, by the same amount whatever the program does.  A
probe that allocated nothing followed the machine's slow spells less
well: over five runs of `rad-power`, the spread of its figures rose from
0.06-0.10 to 0.10-0.15 of their median.

The probe must not run while the program's own worker processes compete
for the cores, so no workload here uses them.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from itertools import combinations

clock = time.perf_counter

# The probe's time at the reference speed: about its median in the fast
# phases of the machine where the benchmark was defined.  It only sets the
# scale of the reported times.
PROBE_REFERENCE_S = 0.0025
INTERVAL_S = 0.1
NEAREST = 3  # a measurement with fewer probes inside it takes this many nearest


def _matrix():
    rng = random.Random(20191101)
    return [[rng.choice((0, 0, 0, 1, -1)) for _ in range(24)] for _ in range(24)]


def _heap():
    """Pairs (next, i) whose `next` links run once through all of them in a
    random order."""
    rng = random.Random(20191102)
    order = list(range(1 << 16))
    rng.shuffle(order)
    nxt = [0] * len(order)
    for k, node in enumerate(order):
        nxt[node] = order[(k + 1) % len(order)]
    return [(nxt[i], i) for i in range(len(order))]


MATRIX = _matrix()
HEAP = _heap()


def _rank(matrix) -> int:
    m = [row[:] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def _subsets(n: int = 10, short: int = 5) -> int:
    kept = {}
    for k in range(2, 7):
        for s in combinations(range(1, n + 1), k):
            gaps = tuple(s[t + 1] - s[t] if t < k - 1 else n - s[-1] + s[0] for t in range(k))
            if all(g < short for g in gaps):
                kept[s] = gaps
    return len(kept)


def _walk(steps: int = 3000) -> int:
    i = 0
    for _ in range(steps):
        i = HEAP[i][0]
    return i


def probe() -> None:
    """The fixed kernel.  No collection runs inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _rank(MATRIX)
        _subsets()
        _walk()
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Probe times over a run, and the correction they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._previous = None

    def measure(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = clock()
            probe()
            self.starts.append(start)
            self.ends.append(clock())
        finally:
            self._busy = False

    def start(self) -> None:
        """Probe now, then on a timer until `stop`."""
        self.measure()
        self._previous = signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.measure()

    @property
    def took(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def net(self, start: float, end: float) -> float:
        """The time from start to end, without the probes that ran inside it."""
        first, last = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end)
        return end - start - sum(self.ends[i] - self.starts[i] for i in range(first, last))

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed from start to end: the
        factor that takes a time measured then to the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        if hi - lo < NEAREST:
            middle = (start + end) / 2
            lo = hi = bisect.bisect_left(self.starts, middle)
            while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
                if hi == len(self.starts) or (lo > 0 and middle - self.starts[lo - 1] <= self.starts[hi] - middle):
                    lo -= 1
                else:
                    hi += 1
        near = statistics.fmean(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return PROBE_REFERENCE_S / near

    def corrected(self, start: float, end: float) -> float:
        """The time from start to end, without the probes that ran inside
        it, at the reference speed."""
        return self.net(start, end) * self.scale(start, end)
