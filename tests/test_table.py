"""The grid layer's PCHIP table against scipy's PchipInterpolator.

Batches at or above the crossover (dist._NUMPY_MIN_POINTS for a value or
slope read, dist._NUMPY_MIN_PAIR_POINTS for a value-and-slope read) are
evaluated in numpy with one interval lookup shared by value and slope;
smaller ones call the compiled loop that PPoly.__call__ ends in, without its
wrapper. These tests move both crossovers to either side of each batch, so
they exercise both paths whatever their values, and require every read to
give the same bits as scipy on equispaced knots, on default grids merged
with kink knots and on strongly non-uniform (geometric) knots, for queries
inside, exactly at the knots, one ulp either side of them, beyond both ends,
NaN, +-inf, 0-d, empty and 2-d. `dist._clip`, the clip ufunc that table
reads and the laws' clamps call in place of np.clip, must give np.clip's bits.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import PchipInterpolator

from shadecraft import dist, shade


def equispaced(draw):
    lo = draw(st.floats(-10.0, 10.0))
    span = draw(st.floats(1e-3, 1e3))
    return np.linspace(lo, lo + span, draw(st.integers(2, 3000)))


def default_grid_with_kinks(draw):
    model = draw(st.sampled_from([dist.make_uniform(), dist.make_gp(0.2, 1.0, -0.5),
                                  dist.make_gp(0.0, 1.0, -2.0)]))
    lo, hi = model.support[0], model.grid_upper()
    kinks = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=6))
    return model.default_grid(lo + (hi - lo) * np.asarray(kinks))


def geometric(draw):
    # spacing ratio between the widest and the narrowest interval >= 500
    ratio = draw(st.floats(600.0, 1e5))
    n = draw(st.integers(3, 3000))
    x = draw(st.floats(-5.0, 5.0)) + np.geomspace(1.0, ratio ** ((n - 1) / (n - 2)), n)
    assert np.diff(x).max() / np.diff(x).min() >= 500
    return x


@st.composite
def tables(draw):
    x = draw(st.sampled_from([equispaced, default_grid_with_kinks, geometric]))(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["increasing", "any"]))
    y = np.cumsum(rng.exponential(size=x.size)) if shape == "increasing" \
        else rng.normal(size=x.size)
    # signed zeros: scipy's sums start from 0.0, which drops the sign of -0.0
    y[rng.random(x.size) < 0.05] = draw(st.sampled_from([0.0, -0.0]))
    slopes = draw(st.sampled_from([None, rng.exponential(size=x.size)]))
    return x, y, slopes


@st.composite
def queries(draw, x):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    span = x[-1] - x[0]
    parts = [
        rng.uniform(x[0], x[-1], draw(st.integers(0, 3000))),
        x[rng.integers(0, x.size, draw(st.integers(0, 200)))],
        x[[0, -1]],
        x[0] - span * rng.exponential(size=draw(st.integers(0, 20))),
        x[-1] + span * rng.exponential(size=draw(st.integers(0, 20))),
        np.array(draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=4))),
    ]
    q = rng.permutation(np.concatenate(parts))
    return draw(st.sampled_from([q, q[:0], q[:1].reshape(()),
                                 q[: q.size // 2 * 2].reshape(2, -1)]))


def crossover(limit):
    """Both crossovers at limit: 0 sends every batch to numpy, a limit above
    the batch sends it to scipy's compiled loop."""
    return mock.patch.multiple(dist, _NUMPY_MIN_POINTS=limit, _NUMPY_MIN_PAIR_POINTS=limit)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_numpy_path_is_bit_equal_to_scipy(data):
    x, y, slopes = data.draw(tables())
    q = data.draw(queries(x))
    value = PchipInterpolator(x, y, extrapolate=True)
    slope = value.derivative() if slopes is None else PchipInterpolator(x, slopes)
    table = dist._Table(x, y, slopes)
    with crossover(0):
        assert_same_bits(table(q), value(q))
        assert_same_bits(table.slope(q), slope(q))
        both = table.value_and_slope(q)
    assert_same_bits(both[0], value(q))
    assert_same_bits(both[1], slope(q))
    # below the crossover every read calls scipy's compiled PPoly loop itself
    with crossover(q.size + 1):
        assert_same_bits(table(q), value(q))
        assert_same_bits(table.slope(q), slope(q))
        both = table.value_and_slope(q)
    assert_same_bits(both[0], value(q))
    assert_same_bits(both[1], slope(q))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interval_is_scipys_extrapolating_search(data):
    x, y, _ = data.draw(tables())
    q = np.ravel(data.draw(queries(x)))
    np.testing.assert_array_equal(dist._Table(x, y)._locate(q)[0],
                                  np.searchsorted(x[1:-1], q, side="right"))


@pytest.mark.parametrize("x, affine", [
    (np.linspace(0.0, 1.0, 2048), True),
    (np.linspace(-3.0, 7.0, 5), True),
    (dist.make_uniform().default_grid([0.3141, 0.5001, 0.77]), True),
    (np.geomspace(1.0, 1e3, 300), False),
])
def test_lookup_is_chosen_from_the_knots(x, affine):
    assert (dist._Table(x, np.arange(x.size, dtype=float))._scale is not None) == affine


def test_uniform_equilibrium_tables_take_the_affine_lookup():
    # the Monte Carlo hot path: the K=3 uniform equilibrium bid table and its
    # bid distribution's psi and psi^-1 tables
    strategy = shade.equilibrium_shading(dist.make_uniform(), 3)
    bids = strategy.bid_distribution()
    for table in (strategy.as_grid_function()._table, bids._psi, bids._psi_inv):
        assert table._scale is not None


# every float, and the ones where a clip is easiest to get wrong
EDGE_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))


def _clip_outcome(x, lo, hi, clip):
    out = clip(x, lo, hi)
    return type(out), np.shape(out), np.asarray(out).dtype, np.asarray(out).tobytes()


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=12),
                  elements=EDGE_FLOATS), EDGE_FLOATS, EDGE_FLOATS, st.booleans())
def test_clip_alias_is_np_clip(a, lo, hi, numpy_bounds):
    # dist._clip is the ufunc np.clip ends in: the same type, shape, dtype
    # and bytes (NaN payloads and the sign of zero too) for arrays, 0-d
    # arrays, numpy and Python scalars, Python or numpy bounds (psi_domain,
    # the knots' ends), lo above hi included
    if numpy_bounds:
        lo, hi = np.float64(lo), np.float64(hi)
    for x in (a, a[()], float(a)) if a.ndim == 0 else (a,):
        assert _clip_outcome(x, lo, hi, dist._clip) == _clip_outcome(x, lo, hi, np.clip)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3000), st.data())
def test_clip_alias_is_np_clip_on_the_interval_index(n, data):
    # _locate's corrected guess: an intp index, one off at most, clipped to
    # the intervals [0, n - 2] by Python int bounds
    i = data.draw(hnp.arrays(np.intp, hnp.array_shapes(min_dims=1, max_dims=1, max_side=50),
                             elements=st.integers(0, n - 2)))
    up = data.draw(hnp.arrays(np.bool_, i.shape))
    down = data.draw(hnp.arrays(np.bool_, i.shape))
    j = i + up - down
    assert _clip_outcome(j, 0, n - 2, dist._clip) == _clip_outcome(j, 0, n - 2, np.clip)


def test_signed_zero_at_a_knot():
    # scipy's sum starts from 0.0: a stored -0.0 on a decreasing run, where
    # every other term is -0.0 too, evaluates to +0.0
    x = np.arange(5.0)
    y = np.array([2.0, 0.2, -0.0, -0.5, -2.0])
    with mock.patch.object(dist, "_NUMPY_MIN_POINTS", 0):
        assert_same_bits(dist._Table(x, y)(x), PchipInterpolator(x, y)(x))


def ulp_neighbours(x):
    """Every knot and the floats one ulp below and above it."""
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def uniform_bid_law_psi():
    # the K=3 uniform equilibrium bid law's psi table: equispaced knots, then
    # the appended cutoff quantile, which is no knot of the law itself
    law = shade.equilibrium_shading(dist.make_uniform(), 3).bid_distribution()
    x = law._psi.x
    assert x[-1] not in law.knots and law.cdf(x[-1]) == pytest.approx(1 - 1e-9, abs=1e-15)
    return x, law._psi.y, law._psi


@pytest.mark.parametrize("x", [np.linspace(0.0, 1.0, 2048), np.linspace(-3.0, 7.0, 5),
                               np.linspace(-7.3, 116.1, 3000), np.linspace(0.1, 0.101, 129),
                               "psi"], ids=["2048", "5", "3000", "129", "psi"])
def test_one_ulp_either_side_of_every_knot(x):
    if isinstance(x, str):
        x, y, table = uniform_bid_law_psi()
    else:
        y = np.cumsum(np.random.default_rng(x.size).exponential(size=x.size))
        table = dist._Table(x, y)
    q = ulp_neighbours(x)
    q = np.concatenate([q, np.random.default_rng(0).permutation(q)])
    # the affine guess misses some of these points' intervals, so the
    # binary search places them
    assert table._scale is not None
    assert np.any(table._guess(q) != np.searchsorted(x[1:-1], q, side="right"))
    np.testing.assert_array_equal(table._locate(q)[0], np.searchsorted(x[1:-1], q, side="right"))
    value = PchipInterpolator(x, y, extrapolate=True)
    with crossover(0):
        assert_same_bits(table(q), value(q))
        assert_same_bits(table.slope(q), value.derivative()(q))
        both = table.value_and_slope(q)
    assert_same_bits(both[0], value(q))
    assert_same_bits(both[1], value.derivative()(q))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_locate_is_exact_for_any_guess(data):
    # the affine guess offset by whole intervals, any number of them, and
    # clipped into range: every point still gets searchsorted's interval and
    # the offset from its left knot, to the byte, at the knots, one ulp either
    # side of them, beyond both ends, NaN and +-inf
    x, y, _ = data.draw(tables())
    x = np.linspace(x[0], x[-1], x.size)
    table = dist._Table(x, y)
    assert table._scale is not None
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    q = np.concatenate([np.ravel(data.draw(queries(x))),
                        ulp_neighbours(x[rng.integers(0, x.size, 50)])])
    spread = data.draw(st.sampled_from([1, 2, 5, x.size]))
    offset = rng.integers(-spread, spread + 1, q.size)
    guess = table._guess
    table._guess = lambda q: np.clip(guess(q) + offset, 0, x.size - 2)
    i, s = table._locate(q)
    want = np.searchsorted(x[1:-1], q, side="right")
    np.testing.assert_array_equal(i, want)
    assert_same_bits(s, q - x[want])


@pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 2048), (0.0, 2.0, 2048), (0.3, 7.1, 2049),
                                       (-1.0, 1e3, 513)])
def test_a_table_guesses_its_own_knots(lo, hi, n):
    # tables are read at their own knots (gamma_from_target, push_forward):
    # on equispaced knots each knot, and each finite point at or past the last,
    # hits its guessed interval, however (q - x[0]) * _step rounds, so such
    # a read takes no miss
    x = np.linspace(lo, hi, n)
    table = dist._Table(x, x)
    assert table._scale is not None
    q = np.concatenate([x, [np.nextafter(hi, np.inf), 2 * hi + 1.0]])
    i = table._guess(q)
    np.testing.assert_array_equal(i, np.searchsorted(x[1:-1], q, side="right"))
    assert np.all((q >= x[i]) & (q < table._right[i]))


@pytest.mark.parametrize("limit", [0, np.inf], ids=["numpy", "compiled"])
@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3), (3, 700)])
def test_grid_function_keeps_the_shape_and_the_last_knot(shape, limit):
    # the stored last value at the last knot, the interpolant elsewhere, in
    # the query's shape, on either side of the crossover
    xs = np.linspace(0.0, 2.0, 2048)
    g = dist.GridFunction(xs, np.exp(xs))
    rng = np.random.default_rng(len(shape))
    q = rng.choice(np.concatenate([xs[-3:], ulp_neighbours(xs[-1:]), [-1.0, 3.0, np.nan],
                                   rng.uniform(0.0, 2.0, 50)]), size=shape)
    want = np.where(q == xs[-1], np.exp(xs[-1]), PchipInterpolator(xs, np.exp(xs))(q))
    with crossover(limit):
        got = g(q)
    assert type(got) is type(want)
    assert_same_bits(got, want)


def test_first_numpy_reads_from_many_threads_agree():
    # a table checks its knots on its first numpy-sized read, and Monte Carlo
    # workers are threads that may make that read together: every thread
    # must see the finished check. _locate is exact for any guess, so each
    # thread also returns the check it read, which must be None on knots
    # that are not equispaced and _step on knots that are. Fresh tables, 8
    # threads on 2 cores, and a 1 us switch interval
    q = np.linspace(1.0, 1e3, 2048)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for x in [np.geomspace(1.0, 1e3, 300), np.linspace(1.0, 1e3, 300)] * 15:
            table = dist._Table(x, np.arange(x.size, dtype=float))
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda q: (table._locate(q)[0], table._scale), [q] * 8))
            want = None if x[1] - x[0] < x[-1] - x[-2] else table._step
            for i, scale in got:
                np.testing.assert_array_equal(i, np.searchsorted(x[1:-1], q, side="right"))
                assert scale is want
    finally:
        sys.setswitchinterval(interval)
