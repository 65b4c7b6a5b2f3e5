"""The host's current speed, from a fixed reference kernel timed between calls.

The benchmark gets a few cores of a shared host, whose speed drifts by up to
1.5x over tens of seconds as other tenants come and go; every time a run
measures moves with it. So after each measured call the runner times a
reference kernel, fixed code that never touches the library, and scales the
call's time by

    nominal / mean(kernel time just before the call, kernel time just after)

The reported times are thus seconds at the host speed at which one kernel
unit takes its nominal time. A change to the library moves them; a change in
the host's load mostly does not.

A kernel tracks a workload only if it slows down with the host as the
workload does. Two kernels cover the workloads:
- SMALL_CALLS makes short numpy calls from a Python loop, as the adaptive
  quadrature does; its time tracks `bsp_payoff` and `payoff_quadrature`
  closely (slope 0.97-1.0 in log time over 3 s windows of a drifting host).
  It also scales every workload's set-up, which is Python and scipy
  construction code (slope 0.87-0.88);
- LARGE_ARRAYS interpolates, searches and clips 16k-point arrays, as the
  Monte Carlo grid layer does. Monte Carlo slows down less than SMALL_CALLS
  does, and one `arrays` plus four `calls` tracks it with slope 1.0.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

# the kernel runs after each call for at least this share of the call's
# time, and at least once
SHARE = 0.1

_ROWS = np.random.default_rng(0).random(4096)
_GRID = np.linspace(0.0, 1.0, 2048)
_GRID_VALUES = np.sqrt(_GRID)
_POINTS = np.random.default_rng(1).random(16384)


def calls():
    total = 0.0
    for j in range(40):
        total += float(np.sum(_ROWS[j:j + 16] * 2.0))
    return total


def arrays():
    v = np.interp(_POINTS, _GRID, _GRID_VALUES)
    i = np.searchsorted(_GRID_VALUES, v)
    w = np.where(v > 0.5, v * 2.0 - 1.0, 0.0)
    return float(np.clip(v - w, 0.0, 1.0).sum()) + int(i[0])


@dataclass(frozen=True)
class Kernel:
    """One unit of reference work, and its time at the nominal host speed."""

    parts: tuple  # ((function, repeats), ...)
    nominal_s: float

    def unit(self):
        t0 = time.perf_counter()
        for fn, repeats in self.parts:
            for _ in range(repeats):
                fn()
        return time.perf_counter() - t0


SMALL_CALLS = Kernel(((calls, 1),), 0.25e-3)
LARGE_ARRAYS = Kernel(((arrays, 1), (calls, 4)), 5.0e-3)


class HostSpeed:
    """Scales times measured on a drifting host to the kernel's nominal speed."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.units = []
        self.last = self._sample(0.0)

    def _sample(self, after_s):
        """Mean time of the kernel unit, run for at least SHARE * after_s."""
        units, t0 = [], time.perf_counter()
        while not units or time.perf_counter() - t0 < SHARE * after_s:
            units.append(self.kernel.unit())
        self.units.extend(units)
        return statistics.fmean(units)

    def scale(self, seconds):
        """`seconds`, just measured, at nominal speed; samples the kernel again."""
        before, self.last = self.last, self._sample(seconds)
        return seconds * 2 * self.kernel.nominal_s / (before + self.last)

    def median_unit_s(self):
        return statistics.median(self.units)
