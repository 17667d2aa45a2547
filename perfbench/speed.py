"""Machine-speed reference for rescaling the benchmark's times.

The measuring host is shared.  The speed it gives one process switches
between a fast and a slow state every few seconds (a fixed slice of work
takes about 0.6x or 1x its slow-state time), and the share of time spent in
each state drifts over minutes.  A run lasts under a minute, so its raw
times follow that drift, and ten runs made one after another spread by more
than a regression bound.

A `Reference` times one fixed slice of work of the same kind as evolver's
hot loops: interpreted Python, small-matrix numpy products in a per-step
loop, and small `scipy.linalg.expm` calls.  Inside `Reference.timing()` a
wall-clock timer interrupts the program every `INTERVAL_S` and takes one
sample, so the samples are spread evenly over the time the program ran.
`factor()` over a stretch of samples is NOMINAL_S divided by the mean speed
(NOMINAL_S / sample) the slices saw; a time divided by it is the time the
same work would take at the nominal speed.  The slice never changes with
the program, so a change to evolver moves the rescaled times and not the
factor.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.linalg

# slice time at the nominal speed: about the slice's median on a 2-vCPU
# Intel Xeon VM (2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS, 1 thread)
NOMINAL_S = 0.02
INTERVAL_S = 0.25

_rng = np.random.default_rng(20150501)
_STEPS = 0.3 * _rng.standard_normal((256, 6, 6))
_GENERATORS = _rng.standard_normal((48, 6, 6))


def _interpreted(n: int = 50_000) -> int:
    acc, table = 0, {}
    for i in range(n):
        acc += i * i % 7
        table[i & 255] = acc
    return acc


def _small_arrays(reps: int = 3) -> float:
    z = np.ones((8, 6))
    J = np.zeros((8, 6))
    for _ in range(reps):
        for E in _STEPS:
            J = (J + 0.1 * z) @ E.T
            z = z @ E.T
            z /= np.linalg.norm(z) + 1.0
    return float(J[0, 0])


def _small_expm(reps: int = 3) -> float:
    total = 0.0
    for _ in range(reps):
        for M in _GENERATORS:
            total += scipy.linalg.expm(0.1 * M)[0, 0]
    return total


def reference_slice() -> float:
    """Seconds taken by one fixed slice of reference work."""
    t0 = time.perf_counter()
    _interpreted()
    _small_arrays()
    _small_expm()
    return time.perf_counter() - t0


class Reference:
    """Samples of the reference slice taken during one run."""

    def __init__(self):
        reference_slice()  # first call loads scipy's expm code: not a sample
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        self.samples.append(reference_slice())

    @contextlib.contextmanager
    def timing(self):
        """Sample every INTERVAL_S of wall time while the body runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Slowdown against the nominal speed over samples[start:stop]."""
        window = self.samples[start:stop] or self.samples
        return 1.0 / statistics.fmean(NOMINAL_S / s for s in window)
