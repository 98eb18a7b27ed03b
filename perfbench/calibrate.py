"""Host-speed normalisation of the benchmark's times.

On a shared host the same call's time swings by up to 2x: the speed of the
core changes within a fraction of a second (a 10 ms slice of fixed work
varies by 22%, correlated over about half a second) and whole minutes run
faster or slower.  Medians within one run remove the fast part but not the
slow part, so runs minutes apart disagree by more than any useful bound.

The benchmark therefore times a fixed reference chunk -- interpreter
arithmetic and ``scipy.special`` calls, the mix the exact routes spend
their time in -- throughout each timed call, and reports each call time as
``raw seconds * REF_CHUNK_S / mean chunk time during the call``: seconds at
the speed where one chunk takes ``REF_CHUNK_S``.  A faster program still
reads as proportionally faster; a slower host period no longer does.

While a ``Sampler`` is active, a ``SIGALRM`` handler in the main thread
times one chunk every ``PERIOD_S`` of wall time.  The handler runs between
bytecodes, never inside a C call, and its time is taken out of the call's
raw time.  One more chunk is timed after each call, so a call too short
(or too long inside C code) to be interrupted still has a sample.

Set-up (``setup_s``) is timed raw.  It runs in a fresh child process,
which the sampler cannot interrupt, and both proxies tried made it
noisier: the run's mean chunk time doubled its spread over ten runs (25%
against 11% on ``thermal``), and chunks timed in the parent while it waits
for the child run at half speed and swing by 50%.
"""

from __future__ import annotations

import math
import signal
import time

import scipy.special

# The chunk's typical time, timed between the workloads' calls, on the host
# the baseline was measured on (2-vCPU x86_64 VM, Xeon at 2.1 GHz, Python
# 3.11.7, scipy 1.17.1).
REF_CHUNK_S = 2.0e-3
# One chunk per 80 ms, about 2.5% of the time.  A chunk of 0.4 ms every
# 50 ms over-corrected in busy host periods: on ``vacuum`` a run at 1.34x
# the reference chunk time read 7% below the median.
PERIOD_S = 0.08


def chunk() -> float:
    """The fixed reference work: about 2 ms of interpreter arithmetic and
    scalar ``scipy.special.ive`` calls."""
    s = 0.0
    for i in range(1, 800):
        x = i * 0.01
        s += math.log1p(x) * scipy.special.ive(2.5, x) - x / (x + 1.0)
    return s


def normalise(raw_s: float, chunk_times) -> float:
    """``raw_s`` in seconds at the reference speed, given the chunk times
    measured around it."""
    chunk_times = list(chunk_times)
    if not chunk_times:
        raise ValueError("no reference chunk was timed")
    return raw_s * REF_CHUNK_S * len(chunk_times) / sum(chunk_times)


class Sampler:
    """Times the reference chunk every ``period`` seconds of wall time while
    active; ``timed`` measures one call against the chunks timed during it.

    Use as a context manager; it puts back the previous ``SIGALRM`` handler
    and stops the timer on exit.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_chunk_s(self) -> float:
        """Mean chunk time over everything sampled so far."""
        if not self.samples:
            raise ValueError("no reference chunk was timed")
        return sum(d for _, d in self.samples) / len(self.samples)

    def timed(self, fn):
        """Run ``fn``; returns (outcome, raised exception or None, raw
        seconds, normalised seconds).  Raw seconds exclude the chunks the
        handler ran during the call."""
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            outcome, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - the caller decides what a raise means
            outcome, error = None, exc
        t1 = time.perf_counter()
        during = [d for start, d in self.samples[first:] if start < t1]
        self._handler(None, None)  # the chunk after the call
        raw = (t1 - t0) - sum(during)
        return outcome, error, raw, normalise(raw, during + [self.samples[-1][1]])
