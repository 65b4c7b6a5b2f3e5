"""The strategy-side rules, each written once: the transform identity
(shade.virtualize), the tabulation grid (DistributionModel.default_grid),
and the regularity checks that guard the clearing point and the inverse
virtual value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadecraft import dist, payoff, shade
from shadecraft.dist import GRID_N
from shadecraft.errors import NonMonotone, NonRegular

UNIFORM = dist.make_uniform()
GP = dist.make_gp(0.2, 1.0, -0.5)
_XS = np.linspace(0.0, 1.0, 2048)
STRATEGIES = (
    shade.truthful(UNIFORM),
    shade.linear_shading(GP, 0.6),
    shade.gp_reparam_shading(UNIFORM, dist.GPParams(0.1, 0.5, -0.4)),
    shade.gp_reparam_shading(GP, dist.GPParams(0.0, 1.0, 0.0)),
    shade.GridShading(GP, lambda x: x ** 2 / 2 + x),
    shade.equilibrium_shading(UNIFORM, 3),
    shade.one_vs_uniform_shading(UNIFORM, 3),
)


def _points(s, u):
    lo, hi = s.base.support[0], s.base.grid_upper()
    return lo + np.asarray(u) * (hi - lo)


# the closed forms and the identity part ways at the top of a bounded support,
# where a GP reparametrization's bid diverges; stay below it
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STRATEGIES), st.lists(st.floats(0.0, 0.99), min_size=1, max_size=8))
def test_virtualize_is_the_virtualized_bid(s, u):
    x = _points(s, u)
    got = shade.virtualize(s.base, s.bid, s.bid_derivative, x)
    inline = s.bid(x) + s.bid_derivative(x) * (s.base.virtual_value_clamped(x) - x)
    assert np.array_equal(got, inline)
    # every strategy's virtualized bid is a closed form of the same identity,
    # and agrees with it up to rounding
    np.testing.assert_allclose(s.virtualized_bid(x), got, rtol=1e-9, atol=1e-12)


class _Cubic(shade.ShadingStrategy):
    """bid (x - 1/2)^3 on Unif[0, 1]: increasing, with a zero slope at the knot 1/2."""

    base = UNIFORM
    kinks = (0.5,)

    def bid(self, x):
        return (np.asarray(x, dtype=float) - 0.5) ** 3

    def bid_derivative(self, x):
        return 3 * (np.asarray(x, dtype=float) - 0.5) ** 2


def test_push_forward_refuses_a_zero_slope():
    s = _Cubic()
    xs = UNIFORM.default_grid(s.kinks)
    with pytest.raises(NonMonotone):
        dist.push_forward(UNIFORM, s.bid, s.bid_derivative, xs)
    # a strategy's bid law is that push-forward, with its own bid derivative
    with pytest.raises(NonMonotone):
        s.bid_distribution()
    assert dist.push_forward(UNIFORM, s.bid, lambda x: 1.0 + s.bid_derivative(x), xs).support \
        == (-0.125, 0.125)


@pytest.mark.parametrize("model", [UNIFORM, GP, dist.make_gp(0.0, 1.0, 0.0)])
def test_default_grid_keeps_only_interior_extras(model):
    lo, hi = model.support[0], model.grid_upper()
    inside = lo + np.array([0.25, 0.5 + 1e-7]) * (hi - lo)
    xs = model.default_grid([lo - 1.0, lo, *inside, hi, hi + 1.0])
    base = model.default_grid()
    assert base.size == GRID_N and base[0] == lo and base[-1] == hi
    assert np.array_equal(xs, np.unique(np.concatenate([base, inside])))


def test_as_grid_function_stays_inside_the_support():
    s = shade.linear_shading(GP, 0.5)
    lo, hi = GP.support[0], GP.grid_upper()
    s.kinks = (lo - 0.5, 0.5 * (lo + hi), hi + 0.5)
    g = s.as_grid_function()
    assert g.knots[0] == lo and g.knots[-1] == hi
    assert g.knots.size == GRID_N + 1 and 0.5 * (lo + hi) in g.knots


def test_directional_derivative_rejects_a_dipping_virtualized_bid():
    # beta(x) = x^3 + 0.01 x increases, but its virtualized bid on Unif[0, 1],
    # 4x^3 - 3x^2 + 0.02x - 0.01, decreases on (0.0034, 0.4966)
    beta = dist.GridFunction.from_callable(lambda x: x ** 3 + 0.01 * x, 0.0, 1.0)
    rho = dist.GridFunction(_XS, _XS)
    z = payoff.competition_distribution([UNIFORM, UNIFORM])
    with pytest.raises(NonRegular):
        payoff.directional_derivative(UNIFORM, beta, rho, z)


def test_non_regular_grid_raises_non_regular():
    # PCHIP's endpoint slope makes the tabulated psi of X^2 + X dip at the
    # bottom, so the law is non-regular at the grid's resolution
    xs = np.linspace(0.0, 1.0, 129)
    beta = dist.GridFunction(xs, xs ** 2 + xs)
    m = dist.push_forward(UNIFORM, beta, beta.derivative, UNIFORM.default_grid(beta.knots))
    assert not m.is_regular
    t = np.array([0.0, 0.5])
    for method in (m._inverse_virtual_clamped, m._virtual_law, m.inverse_virtual_value):
        with pytest.raises(NonRegular):
            method(t)
