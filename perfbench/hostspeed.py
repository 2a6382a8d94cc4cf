"""Host-speed probe: CPU time scaled to a fixed reference host speed.

On a shared virtual machine the same code takes a varying amount of CPU
time: while another tenant keeps the physical core busy, this process
runs about 1.7x slower, in spells of a fraction of a second to minutes.
Every clock a process can read counts the slowdown, and it moves whole
runs at once, so no choice of estimator over the program's own timings
removes it.

The probe measures the host's speed directly.  Every ``INTERVAL``
seconds a timer signal runs a fixed pure-Python kernel (twice; the
second, warm run is timed), so each stretch of CPU time between two
samples has a measured speed.  :meth:`Timeline.scaled` weighs each
stretch by ``REFERENCE_KERNEL_SECONDS / kernel time``: a stretch run at
half the reference speed counts half.  The probe's own CPU time counts
for nothing.  The result is the CPU time the same work would have taken
on a host that runs the kernel in the reference time; the program's
work itself is unchanged, so a program that does more work still takes
proportionally longer.
"""

import bisect
import json
import signal
import time

#: Seconds between samples (wall clock; see :class:`SpeedProbe`).
INTERVAL = 0.01

#: The kernel's time at the reference speed: about its time on a two-vCPU
#: Xeon virtual machine while no other tenant slows the core.  A fixed
#: reference, rather than one taken from each run's own samples, adds no
#: noise of its own; on another host all figures move by one factor.
REFERENCE_KERNEL_SECONDS = 12e-6

#: Percentile of a run's kernel times reported as its fast speed.
FAST_PERCENTILE = 0.01

cpu_clock = time.process_time


_SLOTS = [0] * 64


def _kernel():
    # Small ints only (CPython caches them), so the kernel allocates
    # nothing and can never set off a garbage collection of the
    # program's heap while it is being timed.
    slots = _SLOTS
    x = 0
    for i in range(200):
        x = (x * 7 + i) & 255
        slots[x & 63] = x
    return x


class SpeedProbe:
    """Samples the kernel's time every ``INTERVAL`` seconds while started.

    ``marks`` holds one ``(cpu before, cpu after, kernel seconds)`` per
    sample.  The timer is ``ITIMER_REAL``: a CPU-time timer would make
    the kernel account this process's CPU time only at clock ticks, which
    would blur every reading of ``process_time``.  Stop the probe while
    the process waits for a child, so that it does not sample an idle
    process.
    """

    def __init__(self):
        self.marks = []
        self._previous = None

    def _sample(self, signum, frame):
        before = cpu_clock()
        _kernel()
        start = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - start
        self.marks.append((before, cpu_clock(), seconds))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def dump(self):
        """The samples as one JSON line."""
        return json.dumps(self.marks)


def fast_kernel_seconds(kernel_seconds):
    """The run's fast speed: a low percentile of its kernel times."""
    ordered = sorted(kernel_seconds)
    return ordered[int(FAST_PERCENTILE * (len(ordered) - 1))]


class Timeline:
    """One process's samples, turned into scaled CPU seconds.

    The stretch of CPU time that ends at a sample runs at that sample's
    speed; the stretch after the last sample at the last sample's speed.
    """

    def __init__(self, marks):
        self.before = [m[0] for m in marks]
        self.after = [m[1] for m in marks]
        self.factor = [REFERENCE_KERNEL_SECONDS / m[2] for m in marks]

    def scaled(self, start, end):
        """Scaled CPU seconds of the CPU interval ``[start, end]``."""
        if not self.before:
            return end - start
        total = 0.0
        i = bisect.bisect_right(self.after, start)
        at = start
        while at < end:
            if i == len(self.before):
                return total + (end - at) * self.factor[-1]
            stop = min(end, self.before[i])
            if stop > at:
                total += (stop - at) * self.factor[i]
            at = max(at, self.after[i])
            i += 1
        return total
