"""The machine's speed, sampled with a fixed reference workload.

On a shared machine the same pure-Python code runs up to half again as
slow from one few-second stretch to the next.  Every time the benchmark
reports is therefore scaled to a nominal machine: the reference
workload below is timed every CAL_EVERY seconds of operations, and a
time t measured between two samples a and b is reported as
t * REF_S / ((a + b) / 2); a long call is scaled by the mean of more
samples (see Speed.scale).  The reference is pure Python and imports
nothing from trx, so a change to trx moves the reported times and a
change in the machine's speed does not.  It is a small scanner over
bytes with a dict, tuples, lists and object allocation, because that
tracks the interpreter's slow-downs much more closely than an integer
loop does.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Nominal time of one reference run, in seconds: roughly its time on
#: the machine of the reference figures in README.md when that machine
#: was quiet.  Reported times are in seconds (or ms) of that machine.
REF_S = 0.0015

#: Seconds of operations between two samples of the machine's speed.
CAL_EVERY = 0.1

_TEXT = b"(12+3)*(4+(56*7))+8*9+" * 200


class _Cell:
    __slots__ = ("key", "next")

    def __init__(self, key, nxt):
        self.key = key
        self.next = nxt


def reference_work() -> int:
    data = _TEXT
    n = len(data)
    table = {}
    stack = []
    out = []
    cell = None
    pos = 0
    while pos < n:
        c = data[pos]
        if c == 40:
            stack.append(len(out))
        elif c == 41:
            k = stack.pop()
            out[k:] = [tuple(out[k:])]
        elif 48 <= c <= 57:
            key = (pos & 31, c)
            hit = table.get(key)
            if hit is None:
                table[key] = hit = [c - 48]
            out.append(hit[0])
        else:
            cell = _Cell(c, cell)
        pos += 1
    return len(out)


class Speed:
    """Samples of the reference time and when each was taken; window w
    lies between sample w and sample w + 1."""

    def __init__(self):
        self.samples = []
        self.taken = []

    def sample(self):
        # The fastest of three back-to-back runs: the machine's state
        # lasts seconds, interrupts last microseconds.
        clock = time.perf_counter
        best = None
        for _ in range(3):
            t0 = clock()
            reference_work()
            dt = clock() - t0
            if best is None or dt < best:
                best = dt
        self.samples.append(best)
        self.taken.append(clock())

    @property
    def window(self) -> int:
        return len(self.samples) - 1

    def scale(self, w: int, t0: float, t1: float) -> float:
        """Factor from measured to nominal seconds for a call that ran
        from t0 to t1 in window w.

        A short call is scaled by the two samples around it.  A long one
        lives through several changes of speed, which those two need not
        show, so it is scaled by every sample within twice its length
        of it.
        """
        reach = 2 * (t1 - t0)
        lo = min(w, bisect.bisect_left(self.taken, t0 - reach))
        hi = max(w + 2, bisect.bisect_right(self.taken, t1 + reach))
        return REF_S / statistics.fmean(self.samples[lo:hi])
