"""Timings corrected for the speed of the host at the moment they were made.

The benchmark runs on a few cores of a shared machine.  On the 2-core host
where it was defined, a fixed pure-Python loop took anywhere from 0.14 to
0.21 s on the same core, in episodes of 5 to 60 s, and the two cores
changed speed independently of each other, so wall times of whole runs
spread by a quarter of their median and more.

A Sampler interrupts the measured thread every PERIOD seconds (SIGALRM)
and times a fixed reference loop there, on the same core and under the
same contention as the work around it.  The work between two samples is
charged its wall time divided by the reference time measured at its end:
its cost in reference loops.  Times REF_S, the reference loop's typical
time on the host where the benchmark was defined, that reads as seconds at
that host's typical speed.  The samples' own time is charged to nothing.
The wall times stay in the details line of every run.
"""

import bisect
import signal
import time

clock = time.perf_counter

PERIOD = 0.1
REF_S = 0.0005


def reference():
    """A fixed amount of interpreter work of the kinds milnork does most:
    tuple-keyed dict updates and modular big-int arithmetic."""
    table = {}
    acc = 1
    for i in range(600):
        key = (i % 37, i % 11)
        value = table.get(key, 0)
        acc = (acc * 1000003 + value) % 2305843009213693951
        table[key] = (value + acc) % 65521
    return acc + len(sorted(table.values()))


class Sampler:
    """Reference-loop samples of the current thread, taken while it works."""

    def __init__(self):
        self.starts = []
        self.refs = []
        reference()  # the interpreter specialises it on the first call
        self.sample()

    def sample(self):
        start = clock()
        reference()
        self.starts.append(start)
        self.refs.append(clock() - start)

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start, end):
        """Seconds at the reference speed of the work done between start
        and end, samples excluded.  Each stretch between samples is charged
        at the speed of the sample that ends it; the last stretch at that
        of the latest sample before end."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        cost, t = 0.0, start
        for k in range(first, last):
            cost += (self.starts[k] - t) / self.refs[k]
            t = self.starts[k] + self.refs[k]
        cost += max(0.0, end - t) / self.refs[max(last - 1, 0)]
        return cost * REF_S
