"""Machine-speed correction for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed moves by
up to 2x, in swings that last from milliseconds to tens of seconds.  A
wall-clock time is the program's work divided by the machine's speed at
the time, so two runs of the same code can differ by more than any
useful regression bound.

While a run measures, an interval timer interrupts it every ``PERIOD``
seconds and times a short, fixed, pure-Python loop (the probe): a few
hundred lookups of scattered keys in a table of a few thousand
entries, so that it feels both the processor's clock and other
tenants' contention for its caches.  The probe allocates nothing the
garbage collector tracks and calls nothing in the package.  A timed
interval is then converted to seconds at the reference speed, the
speed at which the probe takes ``REF_PROBE_S``: its length, less the
probes that ran inside it, times the mean of ``REF_PROBE_S / probe``
over the probes inside it (or, for an interval too short to hold one,
over the probe just before and just after it).  A change to the
program changes these times in full; a change in the machine's speed,
which moves the probe too, largely cancels.

Signals are handled on the main thread between bytecodes, so a probe
never overlaps a clock reading taken there: every probe lies wholly
inside or wholly outside an interval.
"""

import random
import signal
import statistics
import time
from array import array
from bisect import bisect_left
from itertools import accumulate

PERIOD = 0.0025        # seconds between probes
# A probe is the fastest of this many loops: the first brings the
# table back into cache after the program has run, so the probe does
# not depend on how much of the cache the program uses.
PROBE_REPEATS = 3
REF_PROBE_S = 2.6e-5   # probe time at the reference speed

_TABLE = {k * 7919: k for k in range(1 << 12)}
_KEYS = [k * 7919 for k in random.Random(5).choices(range(1 << 12), k=300)]


def _probe_loop():
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    return total


class Meter:
    """Probes the machine's speed while started; converts intervals of
    ``time.perf_counter`` readings to seconds at the reference speed."""

    def __init__(self):
        # Arrays, not lists, so that memory stays small and does not
        # depend on the machine's speed.
        self.starts = array("d")   # probe start times, increasing
        self.ends = array("d")     # probe end times
        self.probes = array("d")   # fastest loop time of each probe
        self._previous = None

    def _sample(self, signum=None, frame=None):
        clock = time.perf_counter
        start = clock()
        best = None
        for _ in range(PROBE_REPEATS):
            t = clock()
            _probe_loop()
            t = clock() - t
            if best is None or t < best:
                best = t
        self.starts.append(start)
        self.probes.append(best)
        self.ends.append(clock())

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()
        self._finish()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def _finish(self):
        self._busy = array("d", accumulate(
            (e - s for s, e in zip(self.starts, self.ends)), initial=0.0))
        self._speed = array("d", accumulate(
            (REF_PROBE_S / p for p in self.probes), initial=0.0))

    def scaled(self, a, b):
        """Seconds at the reference speed for the interval [a, b]; call
        after ``stop``."""
        i = bisect_left(self.starts, a)
        j = bisect_left(self.starts, b)
        busy = self._busy[j] - self._busy[i]
        if j > i:
            speed = (self._speed[j] - self._speed[i]) / (j - i)
        else:
            near = [k for k in (i - 1, i) if 0 <= k < len(self.probes)]
            speed = statistics.fmean(REF_PROBE_S / self.probes[k]
                                     for k in near)
        return (b - a - busy) * speed

    def summary(self):
        """Probe count and the probe's median and quartiles in us."""
        q = statistics.quantiles(self.probes, n=4)
        return (f"speed probes {len(self.probes)}: median "
                f"{statistics.median(self.probes) * 1e6:.4g} us, quartiles "
                f"{q[0] * 1e6:.4g}-{q[2] * 1e6:.4g} us, reference "
                f"{REF_PROBE_S * 1e6:.4g} us")
