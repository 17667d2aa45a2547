"""Tests of the machine-speed reference.

Run with: python3 -m pytest -q perfbench
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def test_timing_samples_while_the_body_runs_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    ref = speed.Reference()
    with ref.timing():
        end = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(ref.samples) >= 2
    assert all(s > 0 for s in ref.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_factor_is_the_slowdown_of_the_mean_speed():
    ref = speed.Reference()
    # one slice at the nominal speed and one at half of it: mean speed 3/4
    ref.samples = [speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert abs(ref.factor() - 4 / 3) < 1e-12
    assert ref.factor(1) == 2.0
    # a window with no sample falls back to the whole run
    assert ref.factor(2) == ref.factor()
