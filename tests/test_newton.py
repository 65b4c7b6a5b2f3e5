"""`dist._Table.invert` against the plain 3-step Newton loop.

A point whose Newton step is exactly 0 is a fixed point: every later step
would give it the same x, value and step. `invert` runs the first step on
every point and the later ones only on the points that moved, and stops
when none moves. These tests keep the plain loop as the reference and
require the same bytes (so a signed zero counts) on random tables, targets
inside, at and beyond the table ends, scalar and array guesses, 0-d, 1-d and
2-d targets, batches either side of `_NUMPY_MIN_POINTS` and of
`_NUMPY_MIN_PAIR_POINTS`, with and without a step cap, and on the symmetric
case where the target is read from an equal table and the steps reach 0.
One more test takes its reference steps from scipy's PchipInterpolator, on
0-d, empty and 2-d targets on both sides of the crossovers, and checks that
the caller's arrays are not written to.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from shadecraft import dist, shade


def three_steps(table, y, x, lo, hi, cap=None):
    for _ in range(3):
        x = np.clip(x, lo, hi)
        value, slope = table.value_and_slope(x)
        step = (value - y) / np.clip(slope, 1e-12, None)
        if cap is not None:
            step = np.where(np.abs(step) > cap, 0.0, step)
        x = x - step
    return np.clip(x, lo, hi)


def assert_same(a, b):
    assert type(a) is type(b)
    assert np.shape(a) == np.shape(b)
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


SIZES = [0, 1, 7, dist._NUMPY_MIN_PAIR_POINTS - 1, dist._NUMPY_MIN_PAIR_POINTS,
         dist._NUMPY_MIN_PAIR_POINTS + 1, dist._NUMPY_MIN_POINTS - 1, dist._NUMPY_MIN_POINTS,
         dist._NUMPY_MIN_POINTS + 1, 3000]


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 2500))
    lo = draw(st.floats(-5.0, 5.0))
    span = draw(st.floats(1e-2, 1e2))
    knots = lo + span * (np.linspace(0.0, 1.0, n) if draw(st.booleans())
                         else np.cumsum(rng.exponential(size=n)) / n)
    shape = draw(st.sampled_from(["increasing", "steep-and-flat", "any"]))
    if shape == "increasing":
        values = np.cumsum(rng.exponential(size=n))
    elif shape == "steep-and-flat":  # slopes floored at 1e-12, steps over the cap
        values = np.cumsum(rng.exponential(size=n) ** 8)
    else:
        values = rng.normal(size=n)
    values[rng.random(n) < 0.05] *= 0.0  # signed zeros
    table = dist._Table(knots, values)
    twin = dist._Table(knots.copy(), values.copy())  # an equal table
    x_lo, x_hi = float(table.x[0]), float(table.x[-1])
    if draw(st.booleans()):  # a clip range inside the table
        a, b = sorted(rng.uniform(x_lo, x_hi, 2))
        x_lo, x_hi = float(a), float(b)

    size = draw(st.sampled_from(SIZES))
    dims = draw(st.sampled_from([0, 1, 2])) if size else 1
    if dims == 0:
        size = 1
    # points inside, at the knots and beyond both ends (where clipping applies)
    pts = rng.uniform(table.x[0] - 0.2 * span, table.x[-1] + 0.2 * span, size)
    at_knots = rng.random(size) < 0.1
    pts[at_knots] = rng.choice(table.x, int(at_knots.sum()))
    target = draw(st.sampled_from(["symmetric", "table", "random"]))
    if target == "random":
        y = rng.uniform(values.min() - 1.0, values.max() + 1.0, size)
    else:
        y = (twin if target == "symmetric" else table)(np.clip(pts, x_lo, x_hi))
    guess_kind = draw(st.sampled_from(["near", "exact", "scalar"]))
    if guess_kind == "scalar":
        x = float(rng.uniform(table.x[0], table.x[-1]))
    else:
        x = pts + (0.0 if guess_kind == "exact" else rng.normal(scale=0.01 * span, size=size))
    if dims == 0:
        y = y.reshape(())
        x = x if guess_kind == "scalar" else x.reshape(())
    elif dims == 2 and size % 2 == 0:
        y = y.reshape(2, -1)
        x = x if guess_kind == "scalar" else x.reshape(2, -1)
    elif dims == 2:
        # a guess row broadcast against a (3, size) target
        y = np.vstack([y, y[::-1], -y])
    cap = draw(st.sampled_from([None, 0.05 * (x_hi - x_lo), 1e-6 * span]))
    return table, y, x, x_lo, x_hi, cap


@settings(max_examples=300, deadline=None)
@given(cases())
def test_invert_is_byte_equal_to_three_steps(case):
    table, y, x, lo, hi, cap = case
    with np.errstate(all="ignore"):
        expected = three_steps(table, y, x, lo, hi, cap)
        got = table.invert(y, x, lo, hi, cap)
    assert_same(got, expected)


def scipy_steps(knots, values, y, x, lo, hi, cap=None):
    """three_steps with each value and slope read by scipy, and new arrays at
    every step."""
    value = PchipInterpolator(knots, values, extrapolate=True)
    slope = value.derivative()
    for _ in range(3):
        x = np.clip(x, lo, hi)
        step = (value(x) - y) / np.clip(slope(x), 1e-12, None)
        if cap is not None:
            step = np.where(np.abs(step) > cap, 0.0, step)
        x = x - step
    return np.clip(x, lo, hi)


@pytest.mark.parametrize("limit", [0, np.inf], ids=["numpy", "compiled"])
@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3), (2, 700)])
@pytest.mark.parametrize("guess", ["array", "scalar"])
@pytest.mark.parametrize("cap", [None, 0.05])
def test_invert_keeps_shape_and_bytes_on_both_sides_of_the_crossovers(shape, limit, guess, cap):
    rng = np.random.default_rng(len(shape))
    knots = np.linspace(-1.0, 2.0, 300)
    values = np.cumsum(rng.exponential(size=knots.size) ** 4)
    table = dist._Table(knots, values)
    y = rng.uniform(values[0] - 1.0, values[-1] + 1.0, size=shape)
    x = 0.5 if guess == "scalar" else rng.uniform(-1.5, 2.5, size=shape)
    given_x, given_y = np.copy(x), np.copy(y)
    expected = scipy_steps(knots, values, y, x, -1.0, 1.5, cap)
    with mock.patch.multiple(dist, _NUMPY_MIN_POINTS=limit, _NUMPY_MIN_PAIR_POINTS=limit):
        got = table.invert(y, x, -1.0, 1.5, cap)
    assert_same(got, expected)
    # the caller's target and guess are not written to
    assert_same(x, given_x if guess == "array" else 0.5)
    assert_same(y, given_y)


@pytest.fixture(scope="module")
def uniform_bid_law():
    return shade.equilibrium_shading(dist.make_uniform(), 3).bid_distribution()


def test_symmetric_equilibrium_steps_stop(uniform_bid_law, monkeypatch):
    """On the uniform K=3 equilibrium bid law, t = psi(b) has the root b; after
    the first step at most 20% of the points are still moving."""
    m = uniform_bid_law
    b = m.sample(22_000, seed=3)
    t = np.maximum(0.0, m.virtual_value_clamped(b))
    lo, hi = m.psi_domain
    cap = 0.05 * (hi - lo)
    t_in = np.clip(t, m._psi_values[0], m._psi_values[-1])
    expected = three_steps(m._psi, t_in, m._psi_inv(t_in), lo, hi, cap)

    sizes = []
    evaluate = m._psi.value_and_slope

    def counted(q):
        sizes.append(np.size(q))
        return evaluate(q)

    monkeypatch.setattr(m._psi, "value_and_slope", counted)
    assert_same(m._inverse_virtual_clamped(t), expected)
    assert sizes[0] == t.size
    assert len(sizes) == 1 or sizes[1] <= 0.2 * t.size
    assert sum(sizes) < 1.5 * t.size


@pytest.mark.parametrize("model", [
    dist.make_grid(np.linspace(0, 1, 64), np.linspace(0, 1, 64) ** 2),
    shade.equilibrium_shading(dist.make_gp(0.2, 1.0, -0.5), 3).bid_distribution(),
])
def test_grid_callers_match_three_steps(model):
    q = np.concatenate([[0.0, 1.0], np.random.default_rng(5).random(2000)])
    qc = np.clip(q, model.cdf_values[0], model.cdf_values[-1])
    expected = three_steps(model._F, qc, model._Q(qc), model.knots[0], model.knots[-1])
    assert_same(model.quantile(q), expected)
    lo, hi = model.psi_domain
    t = np.clip(np.linspace(-2, 2, 1500), model._psi_values[0], model._psi_values[-1])
    assert_same(model._inverse_virtual_clamped(t),
                three_steps(model._psi, t, model._psi_inv(t), lo, hi, cap=0.05 * (hi - lo)))
    # 0-d targets, as monopoly_price passes
    t0 = np.asarray(np.mean(model.virtual_range))
    assert_same(model.inverse_virtual_value(t0),
                three_steps(model._psi, t0, model._psi_inv(t0), lo, hi, cap=0.05 * (hi - lo)))
    q0 = np.asarray(0.3)
    assert_same(model.quantile(q0),
                three_steps(model._F, q0, model._Q(q0), model.knots[0], model.knots[-1]))


@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP Known defects): Newton reaches "
                   "the top knot, where the density is 0, and the 1e-12 slope floor sends "
                   "the next step to the low end")
def test_quantile_near_one_where_the_density_ends_at_zero():
    # the K=2 equilibrium bid law of GP(0, 1, -0.5): its cdf table passes
    # 1 - 1e-9 inside the last knot interval, at ~0.666666666, yet quantile
    # returns the support's low end, 0.292836925937669. When a fix lands, this
    # xfail turns into a failure (strict), and the marker comes off
    bids = shade.equilibrium_shading(dist.make_gp(0.0, 1.0, -0.5), 2).bid_distribution()
    q = bids.quantile([1 - 1e-9, 1 - 1e-12])
    assert np.all((q > bids.knots[-2]) & (q <= bids.knots[-1]))
