"""How fast the machine runs Python code right now.

The benchmark's machine is shared: for seconds at a time other tenants
make every Python loop in this process run up to twice as slow, which
moves wall times far more than the bounds in BENCHMARK.json allow.  A
fixed pure-Python loop, timed while the workload runs, slows by about the
same factor as the workload, so the benchmark reports times rescaled to
the speed at which that loop takes REFERENCE_S.  On the 2-vCPU reference
machine, ten gb-ladder passes of 55 to 67 s wall time read 31.0 to 32.6 s
once rescaled.  The loop does not touch valmon, so no change to valmon
can change the scale.
"""

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

LOOPS = 4000
# The loop's time on the reference machine (Intel Xeon at 2.1 GHz,
# Python 3.11) when nothing else competes for the CPU.
REFERENCE_S = 0.0009
INTERVAL_S = 0.1


def calibration_loop():
    table = {}
    acc = 0
    for i in range(LOOPS):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + i * 12345678901
        acc += table[k] % 97
    return acc


def timed_loop():
    """The loop's time, run once untimed first so that the workload's
    memory footprint does not decide how cold the loop starts."""
    calibration_loop()
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


def scale(samples):
    """Factor turning a wall time into a time at the reference speed, from
    loop times sampled evenly over it (the mean speed, not the mean time,
    so one preempted sample weighs no more than its share)."""
    return sum(REFERENCE_S / took for took in samples) / len(samples)


class SpeedProbe:
    """Times the calibration loop every INTERVAL_S while active.

    The loop runs from a SIGALRM handler in the main thread, between the
    workload's bytecodes; ``spent`` is the time the loop took, which callers
    subtract from what they time.
    """

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        self.times.append(t0)
        self.samples.append(timed_loop())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start=None, end=None):
        """The scale over all samples, or over those taken between start
        and end; an interval with none gets the sample nearest to it."""
        if start is None:
            return scale(self.samples)
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi > lo:
            return scale(self.samples[lo:hi])
        mid = (start + end) / 2
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - mid))
        return scale(self.samples[near:near + 1])
