"""`dist._Table.invert` against the plain bracketed 3-step Newton loop.

`invert(y, inverse)` clips y into the knot range of `inverse`, a table of
the inverse, brackets each point by the inverse's values at the knots
around y, and starts it from inverse(y) clipped into that bracket; a Newton
step that would leave the bracket bisects it instead. A point that a step leaves where it was is a
fixed point: every later step would leave it there. `invert` runs the
first step on every point and the later ones only on the points that
moved, and stops when none moves. These tests keep the plain loop,
which finds each bracket by np.searchsorted and steps every point 3 times,
as the reference, and require the same bytes (so a signed zero counts) on
random tables, increasing, steep-and-flat (where steps leave their
brackets) and of any shape, with targets inside, at and beyond the table
ends, 0-d, 1-d and 2-d, batches either side of `_NUMPY_MIN_POINTS`, the
one crossover of every table read, and on the symmetric case where the target is
read from an equal table and the steps reach 0; one more fixes a guess
that rounds out of its bracket and is clipped into it. Another reads the
reference's guesses, values and slopes from scipy's PchipInterpolator, on
0-d, empty and 2-d targets on both sides of the crossovers, and checks that
the caller's target is not written to.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from shadecraft import dist, shade


def three_steps(value_and_slope, guess, inverse_knots, inverse_values, y):
    t = np.clip(y, inverse_knots[0], inverse_knots[-1])
    i = np.searchsorted(inverse_knots[1:-1], t, side="right")
    lo, hi = inverse_values[i], inverse_values[i + 1]
    x = np.clip(guess(t), lo, hi)
    for _ in range(3):
        value, slope = value_and_slope(x)
        step = (value - t) / np.clip(slope, 1e-12, None)
        new = x - step
        # a step out of the bracket bisects the side of x that the value shows
        x = np.where((new < lo) | (new > hi), 0.5 * (x + np.where(step > 0, lo, hi)), new)
    return x[()]  # a float64 for a 0-d target, as np.clip gives it


def table_steps(table, inverse, y):
    """three_steps on the table's reads, guessed and bracketed by `inverse`."""
    return three_steps(table.value_and_slope, inverse, inverse.x, inverse.y, y)


def envelope(values):
    """The knots of the strictly increasing envelope of values, which a grid
    law inverts in place of its psi table."""
    return np.concatenate([[True], np.diff(np.maximum.accumulate(values)) > 0])


def assert_same(a, b):
    assert type(a) is type(b)
    assert np.shape(a) == np.shape(b)
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


SIZES = [0, 1, 7, 256, dist._NUMPY_MIN_POINTS - 1, dist._NUMPY_MIN_POINTS,
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
    elif shape == "steep-and-flat":  # slopes floored at 1e-12, steps out of their brackets
        values = np.cumsum(rng.exponential(size=n) ** 8)
    else:
        values = rng.normal(size=n)
    values[rng.random(n) < 0.05] *= 0.0  # signed zeros
    if shape == "any":  # no inverse: any increasing table will do
        inverse_knots = np.unique(values)
        inverse_values = np.linspace(knots[0], knots[-1], inverse_knots.size)
    else:
        keep = envelope(values)
        inverse_knots, inverse_values = values[keep], knots[keep]
    assume(inverse_knots.size >= 2)
    table = dist._Table(knots, values)
    twin = dist._Table(knots.copy(), values.copy())  # an equal table
    inverse = dist._Table(inverse_knots, inverse_values)

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
        y = (twin if target == "symmetric" else table)(pts)
    if dims == 0:
        y = y.reshape(())
    elif dims == 2 and size % 2 == 0:
        y = y.reshape(2, -1)
    elif dims == 2:
        y = np.vstack([y, y[::-1], -y])
    return table, inverse, y


@settings(max_examples=300, deadline=None)
@given(cases())
def test_invert_is_byte_equal_to_three_steps(case):
    table, inverse, y = case
    with np.errstate(all="ignore"):
        expected = table_steps(table, inverse, y)
        got = table.invert(y, inverse)
    assert_same(got, expected)


def test_a_guess_outside_its_bracket_is_clipped_into_it():
    # inverse(3.35) rounds one ulp above the bracket's top, 3.38, where the
    # table reads 3.35, so that a step from there would be 0; the steps start
    # from 3.38 instead
    table = dist._Table([1.18, 1.32, 3.38], [1.81, 2.93, 3.35])
    inverse = dist._Table([1.81, 2.93, 3.35], [1.18, 1.32, 3.38])
    y = np.array([3.35])
    assert inverse(y)[0] > 3.38 and table(inverse(y))[0] == 3.35
    assert_same(table.invert(y, inverse), table_steps(table, inverse, y))
    assert table.invert(y, inverse)[0] < 3.38


def scipy_steps(knots, values, inverse_knots, inverse_values, y):
    """three_steps with each guess, value and slope read by scipy, and new
    arrays at every step."""
    value = PchipInterpolator(knots, values, extrapolate=True)
    slope = value.derivative()
    guess = PchipInterpolator(inverse_knots, inverse_values, extrapolate=True)
    return three_steps(lambda x: (value(x), slope(x)), guess, inverse_knots, inverse_values, y)


@pytest.mark.parametrize("limit", [0, np.inf], ids=["numpy", "compiled"])
@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3), (2, 700)])
@pytest.mark.parametrize("power", [4, 8], ids=["increasing", "steep-and-flat"])
@pytest.mark.parametrize("stride", [1, 2], ids=["every-knot", "every-other-knot"])
def test_invert_keeps_shape_and_bytes_on_both_sides_of_the_crossovers(shape, limit, power,
                                                                      stride):
    rng = np.random.default_rng(len(shape))
    knots = np.linspace(-1.0, 2.0, 300)
    values = np.cumsum(rng.exponential(size=knots.size) ** power)
    # an inverse on every other knot brackets a point by two of the table's intervals
    keep = envelope(values).nonzero()[0]
    keep = np.union1d(keep[::stride], keep[-1])
    table, inverse = dist._Table(knots, values), dist._Table(values[keep], knots[keep])
    y = rng.uniform(values[0] - 1.0, values[-1] + 1.0, size=shape)
    given_y = np.copy(y)
    expected = scipy_steps(knots, values, values[keep], knots[keep], y)
    with mock.patch.object(dist, "_NUMPY_MIN_POINTS", limit):
        got = table.invert(y, inverse)
    assert_same(got, expected)
    assert_same(y, given_y)  # the caller's target is not written to


@pytest.fixture(scope="module")
def uniform_bid_law():
    return shade.equilibrium_shading(dist.make_uniform(), 3).bid_distribution()


def test_symmetric_equilibrium_steps_stop(uniform_bid_law, monkeypatch):
    """On the uniform K=3 equilibrium bid law, t = psi(b) has the root b; after
    the first step at most 20% of the points are still moving."""
    m = uniform_bid_law
    b = m.sample(22_000, seed=3)
    t = np.maximum(0.0, m.virtual_value_clamped(b))
    expected = table_steps(m._psi, m._psi_inv, t)

    sizes = []
    evaluate = m._psi.value_and_slope

    def counted(q, guess=None):
        sizes.append(np.size(q))
        return evaluate(q, guess)

    monkeypatch.setattr(m._psi, "value_and_slope", counted)
    assert_same(m._inverse_virtual_clamped(t), expected)
    assert sizes[0] == t.size
    assert len(sizes) == 1 or sizes[1] <= 0.2 * t.size
    assert sum(sizes) < 1.5 * t.size


def test_newton_reads_guess_from_their_bracket(monkeypatch):
    # on the GP equilibrium bid law, whose psi table's knots are not
    # equispaced, every large read of psi^-1's Newton steps is guessed from
    # its bracket's interval, not left to the compiled loop
    law = shade.equilibrium_shading(dist.make_gp(0.0, 1.0, -0.5), 3).bid_distribution()
    assert law._psi._scale is None
    t = np.maximum(0.0, law.virtual_value_clamped(law.sample(21_845, seed=3)))
    locate, guesses = dist._Table._locate, []

    def recorded(table, q, guess=None):
        if table is law._psi:
            guesses.append(guess)
        return locate(table, q, guess)

    monkeypatch.setattr(dist._Table, "_locate", recorded)
    assert_same(law._inverse_virtual_clamped(t), table_steps(law._psi, law._psi_inv, t))
    assert guesses and all(guess is not None for guess in guesses)


@pytest.mark.parametrize("model", [
    dist.make_grid(np.linspace(0, 1, 64), np.linspace(0, 1, 64) ** 2),
    shade.equilibrium_shading(dist.make_gp(0.2, 1.0, -0.5), 3).bid_distribution(),
])
def test_grid_callers_match_three_steps(model):
    q = np.concatenate([[0.0, 1.0], np.random.default_rng(5).random(2000)])
    assert_same(model.quantile(q), table_steps(model._F, model._Q, q))
    t = np.linspace(-2, 2, 1500)
    assert_same(model._inverse_virtual_clamped(t), table_steps(model._psi, model._psi_inv, t))
    # 0-d targets, as monopoly_price and the psi table's cutoff quantile pass
    t0 = np.asarray(np.mean(model.virtual_range))
    assert_same(model.inverse_virtual_value(t0), table_steps(model._psi, model._psi_inv, t0))
    for q0 in (0.3, 1 - dist.TAIL_CDF_CUTOFF):
        q0 = np.asarray(q0)
        assert_same(model.quantile(q0), table_steps(model._F, model._Q, q0))


@pytest.mark.parametrize("model", [
    dist.make_grid(np.linspace(0, 1, 64), np.linspace(0, 1, 64) ** 2),
    shade.equilibrium_shading(dist.make_gp(0.2, 1.0, -0.5), 3).bid_distribution(),
])
def test_quantile_steps_on_the_cdf_tables_own_slope(model):
    # the reference's slope is scipy's derivative of the cdf PCHIP, not the
    # PCHIP of the tabulated density; batches and 0-d targets on both sides
    # of the crossover
    knots, cdf = model.knots, model.cdf_values
    q = np.concatenate([[0.0, 1.0, 1 - dist.TAIL_CDF_CUTOFF, 1 - 1e-15],
                        np.random.default_rng(5).random(2000)])
    for y in (q, q[:7], np.asarray(q[2]), np.asarray(0.3)):
        assert_same(model.quantile(y), scipy_steps(knots, cdf, cdf, knots, y))


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("mu", [0.0, 0.2])
def test_gp_bid_law_quantile_solves_its_cdf_table_near_the_top(mu, k):
    # the density ends at 0 at the top, but the cdf table's own slope does
    # not, so Newton converges inside the last knot interval: the cutoff
    # quantile's cdf is the cutoff to 2 ulps, and the quantile of 1 - 1e-15,
    # whose root is ~1e-15 below the top, is within 1e-14 of the top
    bids = shade.equilibrium_shading(dist.make_gp(mu, 1.0, -0.5), k).bid_distribution()
    cutoff = 1 - dist.TAIL_CDF_CUTOFF
    assert abs(bids.cdf(bids.quantile(np.asarray(cutoff))) - cutoff) <= 2 * np.spacing(cutoff)
    assert bids.knots[-1] - bids.quantile(1 - 1e-15) <= 1e-14


def test_quantile_near_one_where_the_density_ends_at_zero():
    # the K=2 equilibrium bid law of GP(0, 1, -0.5): its cdf table passes
    # 1 - 1e-9 inside the last knot interval, at ~0.666666666, where the
    # density falls to 0 at the top knot. Newton steps on the cdf table's own
    # slope, ~1.31 across that interval, and from the quantile table's guess
    # reaches the root in two steps, inside the bracket
    bids = shade.equilibrium_shading(dist.make_gp(0.0, 1.0, -0.5), 2).bid_distribution()
    q = bids.quantile([1 - 1e-9, 1 - 1e-12])
    assert np.all((q > bids.knots[-2]) & (q <= bids.knots[-1]))


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("mu", [0.0, 0.2])
def test_gp_bid_law_psi_table_reaches_its_cutoff(mu, k):
    # the psi table ends at the 1 - 1e-9 quantile, inside the last knot
    # interval, and not at the knot before it, 2.4e-7 of mass below the top
    bids = shade.equilibrium_shading(dist.make_gp(mu, 1.0, -0.5), k).bid_distribution()
    eps = np.finfo(float).eps
    assert dist.TAIL_CDF_CUTOFF - 4 * eps <= bids.sf(bids.psi_domain[1]) \
        <= dist.TAIL_CDF_CUTOFF + 4 * eps
    q = bids.quantile([1 - 1e-9, 1 - 1e-12])
    assert np.all((q > bids.knots[-2]) & (q <= bids.knots[-1]))
    # the quantile table's guess at 1 rounds above the top knot and is
    # clipped to it; unclipped, the bisections took it 2e-8 below the top
    assert bids.knots[-1] - bids.quantile(1.0) <= np.spacing(bids.knots[-1])
