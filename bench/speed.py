"""Times scaled to a reference speed of the CPU the run is pinned to.

On a shared host the speed of one vCPU moves with its neighbours' load, by
20-40 % within seconds, and a fixed pure-Python loop slows by as much in CPU
time as in wall time.  Timing the program alone therefore measures the host.
``SpeedMeter`` samples the CPU's speed while the program runs: every
``PERIOD_S`` of wall time a SIGALRM handler on the main thread runs a fixed
stdlib-only loop (``probe``) and records the CPU time it took on that thread.
The time between two marks is then its wall time minus the probes' CPU time,
divided by the mean probe time over the reference probe time: the seconds the
span would have taken on the CPU at its reference speed.

The probe depends on nothing in the program, so a change in the program
moves a scaled time exactly as it moves the raw one; only the host's speed
is divided out.  The probes take about 5 % of the CPU.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
PROBE_ITERATIONS = 300
# CPU time of one probe on the reference machine (2-vCPU VM, Python 3.11,
# the median over several minutes of runs).
REFERENCE_S = 0.0055
MIN_SAMPLES = 8  # a shorter span borrows the latest probes before it


def probe(n: int = PROBE_ITERATIONS) -> int:
    """Small strings, lists, dicts and sorting, as the program's own work."""
    acc = 0
    for i in range(n):
        words = [f"w{(i * 7 + k) % 97}" for k in range(24)]
        counts: dict[str, int] = {}
        for w in words:
            counts[w] = counts.get(w, 0) + len(w)
        words.sort()
        acc += sum(counts.values()) + len(" ".join(words).split("w"))
    return acc


class SpeedMeter:
    """Probes the CPU's speed from ``start()`` to ``stop()``.  A mark is a
    (wall time, probes so far) pair; probes run on the main thread between
    two of its statements, so no probe straddles a mark."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        probe()
        self.samples.append(time.thread_time() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), len(self.samples)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def busy(self, since: tuple[float, int], until: tuple[float, int]) -> float:
        """Wall time between two marks, less the probes' CPU time."""
        return until[0] - since[0] - sum(self.samples[since[1]:until[1]])

    def slowdown(self, since: tuple[float, int], until: tuple[float, int]) -> float:
        """Mean probe time between two marks over the reference one; a span
        with fewer than ``MIN_SAMPLES`` probes borrows the latest before it."""
        first = max(0, min(since[1], until[1] - MIN_SAMPLES))
        basis = self.samples[first:until[1]]
        return statistics.fmean(basis) / REFERENCE_S if basis else 1.0

    def scaled(self, since: tuple[float, int], until: tuple[float, int]) -> float:
        """Seconds between two marks at the reference speed."""
        return self.busy(since, until) / self.slowdown(since, until)
