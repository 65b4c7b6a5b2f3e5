"""Property tests for payoff._clearing_point, the reserve-clearing rule.

The reference is the 80-step bisection over the whole support that the rule
replaced, preceded by the 257-point regularity probe that used to run in
payoff_quadrature.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadecraft import payoff
from shadecraft.errors import NonRegular


def _reference(h, lo, hi):
    if np.any(np.diff(h(np.linspace(lo, hi, 257))) < -1e-9):
        raise NonRegular("induced virtualized bid must be increasing")
    fn = lambda x: float(h(np.asarray(x, dtype=float)))
    if fn(lo) >= 0:
        return lo
    if fn(hi) <= 0:
        return None
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if fn(mid) < 0:
            a = mid
        else:
            b = mid
    return b


bounds = st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 5.0)).map(
    lambda t: (t[0], t[0] + t[1]))
# where the zero sits, as a fraction of [lo, hi]: inside, at either end, outside
zero_at = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]),
                    st.floats(-3.0, -1e-3), st.floats(1.001, 4.0))
slopes = st.floats(1e-3, 1e3)


def _root(lo, hi, frac):
    return lo + frac * (hi - lo)


@st.composite
def increasing(draw):
    lo, hi = draw(bounds)
    r = _root(lo, hi, draw(zero_at))
    c1 = draw(slopes)
    if draw(st.booleans()):
        return lo, hi, lambda x: c1 * (np.asarray(x, dtype=float) - r)
    c3 = draw(st.floats(0.0, 1e3))

    def h(x):
        d = np.asarray(x, dtype=float) - r
        return c3 * d ** 3 + c1 * d

    return lo, hi, h


@settings(max_examples=400, deadline=None)
@given(increasing())
def test_matches_the_bisection(case):
    lo, hi, h = case
    got, want = payoff._clearing_point(h, lo, hi), _reference(h, lo, hi)
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= 1e-12 * (hi - lo)


@settings(max_examples=200, deadline=None)
@given(increasing())
def test_endpoints(case):
    lo, hi, h = case
    got = payoff._clearing_point(h, lo, hi)
    if float(h(np.asarray(lo))) >= 0:
        assert got == lo
    if float(h(np.asarray(hi))) <= 0:
        assert got is None


@settings(max_examples=200, deadline=None)
@given(bounds, zero_at, slopes, st.booleans())
def test_decreasing_probe_raises(lohi, frac, slope, cubic):
    lo, hi = lohi
    r = _root(lo, hi, frac)
    mid = 0.5 * (lo + hi)
    if cubic:
        # a cubic whose slope is -slope/span at the middle of [lo, hi]
        span = hi - lo
        h = lambda x: ((np.asarray(x, dtype=float) - mid) ** 3 / span ** 2
                       - slope * (np.asarray(x, dtype=float) - mid) / span + r - mid)
    else:
        h = lambda x: -slope * (np.asarray(x, dtype=float) - r)
    with pytest.raises(NonRegular):
        _reference(h, lo, hi)
    with pytest.raises(NonRegular):
        payoff._clearing_point(h, lo, hi)
