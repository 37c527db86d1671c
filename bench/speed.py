"""Machine-speed sampling, so that timings survive a noisy shared host.

On a host shared with other tenants the same CPU work can take twice as
long from one minute to the next; a pure-Python loop measured here had
an interquartile range of about a fifth of its median over 10-second
windows.  No statistic over the run's own timings removes that drift.
Instead, while a child runs its timed region, a fixed reference task
runs every PERIOD_S seconds from a SIGALRM handler in the same thread,
and each stretch of time between two samples is rescaled by

    REF_NOMINAL_S / (median duration of the nearest reference samples)

Reported times are therefore "reference seconds": the time the work
would take on this machine when the reference task takes REF_NOMINAL_S,
which is about its time on an idle 2-core x86 sandbox (Python 3.11).
The time spent in the handler itself is excluded from every interval.
The raw measured times are reported alongside.
"""

import bisect
import gc
import signal
import statistics
import time

# The host's speed changes within a tenth of a second, so sampling often
# with little smoothing tracked it best: on the product table, 20 ms
# with a 3-sample running median left about half the spread that 50 ms
# with a 9-sample median did.
PERIOD_S = 0.02
REF_NOMINAL_S = 0.00045
SMOOTH = 1                  # samples on each side in the running median

_ACC = {}


def reference():
    """Fixed work: int-keyed dict updates, allocating no tracked objects."""
    acc = _ACC
    get = acc.get
    for i in range(4000):
        k = i % 97
        acc[k] = get(k, 0) + i
    acc.clear()


def reference_time(repeats=15):
    """Median duration of a few back-to-back reference runs."""
    out = []
    for _ in range(repeats):
        t = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t)
    return statistics.median(out)


class SpeedSampler:
    """Reference samples taken during one timed region, and the map from
    perf_counter readings to raw and reference seconds."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._old = None

    def _sample(self, *_):
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if gc_was_on:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self._build()

    def state(self):
        return {"starts": self.starts, "ends": self.ends}

    @classmethod
    def from_state(cls, state):
        obj = cls()
        obj.starts, obj.ends = list(state["starts"]), list(state["ends"])
        obj._build()
        return obj

    def _build(self):
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(dur)
        # rate[k] applies to the gap that ends where sample k starts
        self.rate = [REF_NOMINAL_S / statistics.median(
            dur[max(0, k - SMOOTH):k + SMOOTH + 1]) for k in range(n)]
        self.ref_at_start, self.raw_at_start = [], []
        ref = raw = 0.0
        for k in range(n):
            if k:
                gap = self.starts[k] - self.ends[k - 1]
                ref += gap * self.rate[k]
                raw += gap
            self.ref_at_start.append(ref)
            self.raw_at_start.append(raw)

    def _position(self, t, scaled):
        """Seconds from the first sample to t, handler time excluded."""
        k = bisect.bisect_right(self.starts, t) - 1
        at = self.ref_at_start if scaled else self.raw_at_start
        if k < 0:
            rate = self.rate[0] if scaled else 1.0
            return (t - self.starts[0]) * rate
        if t <= self.ends[k]:
            return at[k]
        nxt = min(k + 1, len(self.rate) - 1)
        rate = self.rate[nxt] if scaled else 1.0
        return at[k] + (t - self.ends[k]) * rate

    def ref_seconds(self, a, b):
        """Reference seconds between perf_counter readings a <= b."""
        return self._position(b, True) - self._position(a, True)

    def raw_seconds(self, a, b):
        """Measured seconds between a and b, minus sampling time."""
        return self._position(b, False) - self._position(a, False)
