"""Measures that keep benchmark times about coxkit rather than about the host.

The benchmark runs on a share of a host whose cores slow down and speed up
by up to 2x, in phases of seconds to minutes, with little steal time to
show for it: the same instructions simply take longer, and each core has
phases of its own. Two things are done about it.

**Host-speed scaling.** `SpeedSampler` measures the host's speed on the
benchmark's own thread while the workload runs: an interval timer
interrupts the workload every `interval` seconds and times a fixed probe, a
short interpreter loop that never calls coxkit. A probe that takes
REFERENCE_S means the host runs at reference speed. The work done in an
interval is its wall time times the mean speed sampled in it, so

    scaled seconds = wall seconds x mean(REFERENCE_S / probe seconds)

is the time the same work takes on a host at reference speed: it moves with
coxkit's own cost, not with the host's phase. On the host below, this cut
the interquartile spread of single coxkit commands from 10-27% to 4-7% of
their median. A pure interpreter loop tracked the workloads as well as a
probe that also ran small numpy kernels, and better than probes that swept
memory, whose time depends on what the workload left in the caches. The
probe costs about 1.5% of the run, the same for every commit.

**A heap that keeps its pages.** By default glibc serves every array above
a threshold with a fresh mmap and unmaps it when freed, so each large
temporary (fit_cph's n x d x d tensor is 110 MiB) is paid for again in page
faults: 0.5-1.0 s of kernel time in each 3.0-4.0 s fit_cph call on the host
below, varying from call to call, which the probe does not see.
`keep_heap()` makes malloc serve everything from one heap it never trims,
so after the first iteration large temporaries reuse pages that are
already mapped. The memory traffic of building a temporary is still
measured; only the page-fault cost is taken out.
"""

from __future__ import annotations

import ctypes
import signal
import statistics
import time

# Probe time in a fast phase of the host the bounds were set on (2 vCPUs of
# an Intel Xeon at 2.0 GHz with a 105 MiB L3). It only fixes the unit of the
# scaled metrics.
REFERENCE_S = 0.00025

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def keep_heap() -> bool:
    """Serve all allocations from a never-trimmed heap; False if not glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_MAX, 0) and mallopt(_M_TRIM_THRESHOLD, 2**31 - 1))


def probe() -> int:
    """A fixed unit of interpreter work; returns a checksum so none is skipped."""
    total = 0
    for i in range(3000):
        total += (i * 7919) % 1021
    return total


class SpeedSampler:
    """Times `probe()` from a SIGALRM handler while the main thread works."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """Mean host speed (1.0 = reference) sampled between two perf_counter times."""
        inside = [seconds for at, seconds in self.samples if start <= at <= end]
        if not inside:
            raise ValueError(f"no speed sample in {end - start:.3f} s; lengthen the interval")
        return statistics.fmean(REFERENCE_S / seconds for seconds in inside)
