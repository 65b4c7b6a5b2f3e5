"""The clamped virtual-value pair on both model families.

Inside the valid range the clamped pair is bit-equal to the checked
virtual_value / inverse_virtual_value; outside it, it returns its value at
the nearest endpoint of the range; and the inverse round-trips within the
grid tolerance 1e-8.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadecraft import dist
from shadecraft.errors import OutOfSupport

ROUNDTRIP_TOL = 1e-8
_XS = np.linspace(0.0, 1.0, 129)
_BETA = dist.GridFunction(_XS, _XS ** 2 / 2 + _XS)
GRID_MODELS = (
    dist.make_grid(_XS, 1.0 - (1.0 - _XS) ** 2, 2.0 * (1.0 - _XS)),  # Beta(1, 2)
    # B = X^2/2 + X for X ~ Unif[0, 1]
    dist.push_forward(dist.make_uniform(), _BETA, _BETA.derivative,
                      dist.make_uniform().default_grid(_BETA.knots)),
)
gp_models = st.builds(
    dist.make_gp,
    st.floats(-1.0, 1.0),
    st.floats(0.1, 3.0),
    st.one_of(st.just(0.0), st.just(-1.0), st.floats(-3.0, 0.0, allow_subnormal=False)),
)
models = st.one_of(gp_models, st.sampled_from(GRID_MODELS))
unit = st.floats(0.0, 1.0)
gap = st.floats(1e-9, 10.0)


def valid_range(m):
    """(lo, hi) of the values where virtual_value is defined; hi may be inf."""
    return m.psi_domain


def inner(m, u):
    """A point of the valid range; u in [0, 1] sweeps it, or its first 20
    units when it is unbounded."""
    lo, hi = valid_range(m)
    top = hi if np.isfinite(hi) else lo + 20.0
    return min(lo + u * (top - lo), top)


@settings(max_examples=300, deadline=None)
@given(models, unit)
def test_forward_bit_equal_inside(m, u):
    x = np.asarray([inner(m, u)])
    assert np.array_equal(m.virtual_value_clamped(x), m.virtual_value(x))


@settings(max_examples=300, deadline=None)
@given(models, gap, st.booleans())
def test_forward_clamped_outside(m, d, above):
    lo, hi = valid_range(m)
    if above and not np.isfinite(hi):
        return
    end = hi if above else lo
    x = end + d if above else end - d
    assert m.virtual_value_clamped(np.asarray([x]))[0] == m.virtual_value(np.asarray([end]))[0]


@settings(max_examples=300, deadline=None)
@given(models, unit)
def test_inverse_bit_equal_inside(m, u):
    lo, hi = valid_range(m)
    t = m.virtual_value(np.asarray([inner(m, u)]))
    checked = m.inverse_virtual_value(t)[0]
    got = m._inverse_virtual_clamped(t)[0]
    if lo <= checked <= hi:
        assert got == checked
    else:
        # the unclipped closed form rounded past an endpoint by a few ulps
        assert got == (lo if checked < lo else hi)
        assert abs(checked - got) <= 1e-12 * max(1.0, abs(got))


@settings(max_examples=300, deadline=None)
@given(models, gap, st.booleans())
def test_inverse_clamped_outside(m, d, above):
    lo, hi = valid_range(m)
    if above and not np.isfinite(hi):
        return
    end = hi if above else lo
    t_end = m.virtual_value(np.asarray([end]))
    t = t_end + d if above else t_end - d
    x = m._inverse_virtual_clamped(t)[0]
    farther = m._inverse_virtual_clamped(t + 1.0 if above else t - 1.0)[0]
    assert x == farther
    assert abs(x - end) <= ROUNDTRIP_TOL * max(1.0, abs(end))


@settings(max_examples=300, deadline=None)
@given(models, unit)
def test_inverse_roundtrip(m, u):
    x = np.asarray([inner(m, u)])
    t = m.virtual_value_clamped(x)
    scale = max(1.0, abs(float(x[0])), abs(float(t[0])))
    assert abs(m._inverse_virtual_clamped(t)[0] - x[0]) <= ROUNDTRIP_TOL * scale
    assert abs(m.virtual_value_clamped(m._inverse_virtual_clamped(t))[0] - t[0]) \
        <= ROUNDTRIP_TOL * scale


@pytest.mark.parametrize("m", [dist.make_uniform(), dist.make_gp(0.2, 1.0, -0.5),
                               dist.make_gp(0.1, 2.0, 0.0), *GRID_MODELS])
def test_inverse_refuses_targets_outside_virtual_range(m):
    # the range check is in t: 1e-6 of the range's span (1 when unbounded)
    # beyond either end is refused, and the ends themselves are not
    lo, hi = m.virtual_range
    assert (lo, hi) == tuple(m.virtual_value(np.asarray(m.psi_domain)))
    ends = [lo, hi] if np.isfinite(hi) else [lo]
    span = hi - lo if np.isfinite(hi) else 1.0
    np.testing.assert_allclose(m.inverse_virtual_value(np.asarray(ends)),
                               m.psi_domain[:len(ends)], rtol=0, atol=ROUNDTRIP_TOL)
    for t in [lo - 1e-6 * span] + ([hi + 1e-6 * span] if np.isfinite(hi) else []):
        with pytest.raises(OutOfSupport):
            m.inverse_virtual_value(np.asarray([t]))
