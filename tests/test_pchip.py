"""dist._pchip, the one PCHIP builder, against scipy's PchipInterpolator.

The builder must give scipy's coefficients and breakpoints byte for byte on
2, 3 and up to 3,000 knots, equispaced or geometric, through zero slopes,
sign changes and both of the end-slope rules (the slope set to 0 where its
sign differs from the end secant's, and the clamp to 3 m0 where the data
turn). It must also refuse exactly the inputs scipy refuses, raising the
library's InvalidParams or NonMonotone where scipy raises ValueError. scipy
is the oracle here only; the library builds no table with it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from shadecraft import dist
from shadecraft.errors import InvalidParams, NonMonotone


def assert_same_coefficients(x, y):
    got = dist._pchip(x, y)
    want = PchipInterpolator(x, y, extrapolate=True)
    assert got.c.shape == want.c.shape and got.c.dtype == want.c.dtype
    assert got.c.tobytes() == want.c.tobytes()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.extrapolate is True
    return got


def knots(draw):
    n = draw(st.sampled_from([2, 3]) | st.integers(2, 3000))
    lo = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        return np.linspace(lo, lo + draw(st.floats(1e-3, 1e3)), n)
    # widest over narrowest interval up to 1e5
    return lo + np.geomspace(1.0, draw(st.floats(2.0, 1e5)), n)


@st.composite
def tables(draw):
    x = knots(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["increasing", "normal", "steps", "spikes"]))
    if shape == "increasing":
        y = np.cumsum(rng.exponential(size=x.size))
    elif shape == "normal":
        y = rng.normal(size=x.size)
    elif shape == "steps":
        # few levels: runs of zero slope and frequent sign changes
        y = rng.integers(-2, 3, size=x.size).astype(float)
    else:
        # smooth data with isolated spikes: sharp turns next to flat runs
        y = np.sin(x) + 50.0 * (rng.random(x.size) < 0.05)
    y[rng.random(x.size) < 0.05] = draw(st.sampled_from([0.0, -0.0]))
    return x, y


@settings(max_examples=200, deadline=None)
@given(tables())
def test_coefficients_are_scipys(table):
    assert_same_coefficients(*table)


# the end-slope rules: h0 = h1 = 1 with secants m0 and m1, so the one-sided
# slope is (3 m0 - m1) / 2
@pytest.mark.parametrize("y, first_slope", [
    ([0.0, 1.0, 10.0, 12.0], 0.0),   # (3 - 9) / 2 < 0 against m0 = 1: set to 0
    ([0.0, 1.0, -9.0, -8.0], 3.0),   # (3 + 10) / 2 = 6.5 > 3 m0 at a turn: clamped
    ([0.0, 1.0, 1.5, 3.0], 1.25),    # (3 - 0.5) / 2: kept
    ([0.0, 0.0, 1.0, 2.0], 0.0),     # m0 = 0
])
def test_end_slope_rules(y, first_slope):
    x = np.arange(4.0)
    pp = assert_same_coefficients(x, y)
    assert pp.c[2, 0] == first_slope
    # the same rule, mirrored, at the top end
    pp = assert_same_coefficients(x, -np.asarray(y)[::-1])
    assert pp(x[-1], nu=1) == pytest.approx(first_slope, abs=1e-15)


def test_two_knots_are_the_line():
    pp = assert_same_coefficients(np.array([1.0, 3.0]), np.array([2.0, 6.0]))
    np.testing.assert_array_equal(pp.c[:, 0], [0.0, 0.0, 2.0, 2.0])


def test_integer_and_view_inputs():
    x = np.arange(0, 40, 2)
    y = (x - 15) ** 2
    assert_same_coefficients(x, y)
    assert_same_coefficients(list(x), list(y))
    wide_x, wide_y = np.linspace(0.0, 1.0, 201), np.cos(np.linspace(0.0, 9.0, 201))
    assert_same_coefficients(wide_x[::3], wide_y[::3])
    assert_same_coefficients(wide_x[10:150], wide_y[10:150])


def test_knots_are_copied():
    x, y = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 9)
    pp = dist._pchip(x, y)
    want = pp(0.3)
    x[:] = 0.0
    y[:] = 0.0
    assert pp(0.3) == want and pp.x[-1] == 1.0


REFUSED = {
    "nan-knot": ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], InvalidParams),
    "inf-value": ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0], InvalidParams),
    "repeated-knot": ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], NonMonotone),
    "decreasing-knots": ([2.0, 1.0, 0.0], [0.0, 1.0, 2.0], NonMonotone),
    "one-knot": ([0.0], [1.0], InvalidParams),
    "length-mismatch": ([0.0, 1.0, 2.0], [0.0, 1.0], InvalidParams),
    "two-d-knots": ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]], InvalidParams),
    # a secant that overflows: the line's slope is inf
    "two-knot-inf-slope": ([0.0, 1e-300], [0.0, 1e10], InvalidParams),
    # the first secant overflows and the one-sided end slope with it
    "inf-end-slope": ([0.0, 1e-300, 1.0], [0.0, 1e10, 2e10], InvalidParams),
    # the harmonic mean of two 2e299 secants underflows to 0
    "inf-interior-slope": ([0.0, 1e-300, 2e-300, 0.5, 0.9, 1.0],
                           [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], InvalidParams),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refuses_what_scipy_refuses(case):
    x, y, error = REFUSED[case]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError):
            PchipInterpolator(x, y, extrapolate=True)
    with pytest.raises(error):
        dist._pchip(x, y)


@st.composite
def extreme_tables(draw):
    # spacings and values across the whole float range, where slopes and
    # their harmonic means overflow or underflow
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.sampled_from([1e-300, 1e-200, 1e-8, 1.0, 1e200]),
                          min_size=n - 1, max_size=n - 1))
    x = np.concatenate([[0.0], np.cumsum(steps)])
    y = np.array(draw(st.lists(st.sampled_from([0.0, -1e300, -1.0, 1e-300, 2.0, 1e300]),
                               min_size=n, max_size=n)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(extreme_tables())
def test_refuses_exactly_when_scipy_does(table):
    x, y = table
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            PchipInterpolator(x, y, extrapolate=True)
        except ValueError:
            with pytest.raises((InvalidParams, NonMonotone)):
                dist._pchip(x, y)
        else:
            assert_same_coefficients(x, y)
