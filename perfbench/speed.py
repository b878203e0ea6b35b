"""Host-speed correction of set-up and pass times.

The benchmark's host shares its cores with other tenants, and a busy
neighbour slows this process down, for stretches of a fraction of a second to
tens of seconds, by 2x and more.  The process still runs all that time: no
scheduling gaps show and steal time stays near 0, so CPU time slows with wall
time.  A median over passes cannot remove a slowdown that lasts as long as a
run.

So every child process measures the host's speed while it runs.  A SIGALRM
every INTERVAL_S runs a fixed kernel and records how long it took.  When the
kernel takes k times its quiet-host duration, the measured code is taken to
run k ** exponent times slower than on a quiet host, so an interval between
two samples counts as

    interval * (reference_s / kernel time sampled at its end) ** exponent

On a quiet host of the reference machine a corrected time equals the clock
time.  The kernels never touch noetherdyn, so a change to the program cannot
change the yardstick.  README.md gives the measurements behind the constants.

Two kernels, because the phases differ:

- set-up (interpreter start and imports) is sampled with pure-Python
  arithmetic, which the imports barely slow by evicting its caches;
- a pass is sampled with interpreted Python calling numpy on small arrays,
  like the workloads.  Of the kernels tried, its slowdown tracked theirs
  best, though it slows more than they do; the exponent 0.75 was fitted on
  them.

The sampling costs about 1% of the time it covers.
"""

import math
import signal
import time

INTERVAL_S = 0.005


class Kernel:
    """A fixed piece of work, its duration on a quiet host of the reference
    machine, and log(measured code's slowdown) / log(its own slowdown)."""

    def __init__(self, work, reference_s, exponent):
        self.work = work
        self.reference_s = reference_s
        self.exponent = exponent


def _python_work():
    total = 0.0
    for i in range(1, 360):
        total += math.sqrt(i) * 0.5
    return total


SETUP_KERNEL = Kernel(_python_work, 30e-6, 1.0)


def pass_kernel():
    """The pass kernel; it imports numpy, so build it only after set-up."""
    import numpy as np

    vector = np.ones(3)

    def work():
        total = 0.0
        for i in range(30):
            total += float(vector @ vector) + math.sqrt(i)
        return total

    return Kernel(work, 35e-6, 0.75)


class SpeedSampler:
    """Integrates a kernel's speed, sampled every INTERVAL_S from start() to stop().

    Nothing is stored per sample, so the memory a pass uses does not grow
    with its length.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        kernel.work()  # the first call in a process runs cold; keep it out
        self.samples = 0
        self._total = 0.0  # corrected seconds from the first sample to the last
        self._first_t = self._first_weight = self._last_t = self._last_weight = None

    def _tick(self, signum, frame):
        start = time.monotonic()
        self.kernel.work()
        end = time.monotonic()
        weight = (self.kernel.reference_s / (end - start)) ** self.kernel.exponent
        if self.samples:
            self._total += (end - self._last_t) * weight
        else:
            self._first_t, self._first_weight = end, weight
        self._last_t, self._last_weight = end, weight
        self.samples += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self, since, until):
        """Stops sampling and returns the corrected seconds between two
        time.monotonic() readings around the sampled span.

        Time before the first sample runs at the first sample's speed, and
        time after the last at the last sample's speed.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # an alarm already on its way is dropped
        if not self.samples:
            return until - since
        return (self._total + (self._first_t - since) * self._first_weight
                + (until - self._last_t) * self._last_weight)
