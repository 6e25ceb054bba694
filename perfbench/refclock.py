"""Times normalised to the speed of the host, measured while they are taken.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same job can take 40 % longer from one minute to the next, while CPU time
equals wall time, so the job is not waiting but running slower.  Such drift
hits a fixed pure-Python reference kernel much as it hits nilrigid, so each
timed call is divided by the kernel's time sampled around and during it:

- one sample just before the call and one just after it;
- one sample every ``INTERVAL_S`` during the call, from a ``SIGALRM``
  handler, so that a call of several seconds is normalised by the speed of
  the host over its whole length and not only at its ends.

The time spent in samples during the call is subtracted from its raw time.
The normalised time is ``raw * REF_S / mean(samples)``: the seconds the call
would take on a host where one kernel repetition takes ``REF_S``.  The kernel
uses only the standard library, so a change to nilrigid cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0025  # seconds of one kernel repetition on the nominal host; sets the scale only
REPS = 5  # repetitions per sample; their median is the sample
INTERVAL_S = 0.25  # seconds between samples during a call


def kernel() -> int:
    """Fixed work like nilrigid's: rational row elimination and monomial dicts."""
    n = 10
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        pivot = rows[k][k]
        if not pivot:
            continue
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            if factor:
                row, top = rows[i], rows[k]
                for j in range(k, n):
                    row[j] -= factor * top[j]
    counts: dict = {}
    for a in range(25):
        for b in range(25):
            key = tuple(sorted((a % 7, b % 5, (a * b) % 11)))
            counts[key] = counts.get(key, 0) + a - b
    return len(counts)


def sample() -> float:
    """Seconds of one kernel repetition now: the median of ``REPS``."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def normalise(raw: float, samples) -> float:
    """``raw`` seconds at the host speed the ``samples`` show, in seconds at ``REF_S``."""
    return raw * REF_S / statistics.fmean(samples)


class RefClock:
    """Times calls and normalises them by reference samples taken with them."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._busy = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self._samples.append(sample())
        self._busy += perf_counter() - t0

    def time(self, fn, *args):
        """``(result, raw seconds, normalised seconds)`` of ``fn(*args)``.

        An exception from ``fn`` propagates after the timer is stopped.
        """
        self._samples = [sample()]
        self._busy = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        raw = t1 - t0 - self._busy
        self._samples.append(sample())
        return result, raw, normalise(raw, self._samples)
