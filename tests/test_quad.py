"""Tests for the level-by-level quadrature engine in shadecraft._quad.

The reference is the depth-first recursive engine that the level loop
replaced: one 15-point panel per integrand call, the same acceptance rule.
The level loop itself is pinned byte for byte against its earlier form,
which made one integrand call for the whole segments and another for their
halves; `integrate` now evaluates both in its first call. Neither reference
warns at the depth cap, where `integrate` now does: the tests expect that
warning exactly where the recursive reference leaves a panel unresolved at
depth 48, and allow it only where the two-call reference ran all 49 levels.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from shadecraft import _quad, dist, payoff, shade

_N15, _W15 = np.polynomial.legendre.leggauss(15)
_N10, _W10 = np.polynomial.legendre.leggauss(10)


def _ref_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_W15, f(mid + half * _N15)))


def _ref_refine(f, a, b, whole, tol, depth, budget, capped):
    mid = 0.5 * (a + b)
    left = _ref_panel(f, a, mid)
    right = _ref_panel(f, mid, b)
    total = left + right
    budget[0] -= 2
    resolved = abs(total - whole) <= max(tol, 4e-16 * abs(total))
    if depth <= 0 and not resolved:
        capped.append((a, b))
    if depth <= 0 or budget[0] <= 0 or resolved:
        return total
    child_tol = max(0.5 * tol, 1e-16 * abs(total))
    return (_ref_refine(f, a, mid, left, child_tol, depth - 1, budget, capped)
            + _ref_refine(f, mid, b, right, child_tol, depth - 1, budget, capped))


def _ref_integrate(f, a, b, breakpoints=(), capped=None):
    """The recursive engine's integral; each panel it leaves unresolved at
    depth 48 is appended to capped."""
    capped = [] if capped is None else capped
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    rough = sum(abs(_ref_panel(f, lo, hi)) for lo, hi in zip(pts[:-1], pts[1:]))
    total = 0.0
    budget = [100000]
    for lo, hi in zip(pts[:-1], pts[1:]):
        tol = max(1e-13, 1e-9 * rough) * (hi - lo) / (b - a)
        total += _ref_refine(f, lo, hi, _ref_panel(f, lo, hi), tol, 48, budget, capped)
    return total


def _is_depth_warning(category, message):
    return issubclass(category, IntegrationWarning) and "reached depth 48" in message


def _integrate_seeing_the_cap(f, a, b, breakpoints=()):
    """(_quad.integrate's result, whether it warned at the depth cap); any other
    warning, or a second one, fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _quad.integrate(f, a, b, breakpoints=breakpoints)
    depth = [_is_depth_warning(w.category, str(w.message)) for w in caught]
    assert depth in ([], [True])
    return got, bool(depth)


def _ref_panel_integrals(f, knots):
    knots = np.asarray(knots, dtype=float)
    mids = 0.5 * (knots[1:] + knots[:-1])
    halfs = 0.5 * (knots[1:] - knots[:-1])
    pts = mids[:, None] + halfs[:, None] * _N10[None, :]
    vals = np.asarray(f(pts.ravel()))
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    return halfs * (vals @ _W10)


def _bound(f, a, b, breakpoints=()):
    return 1e-9 * _ref_integrate(lambda x: np.abs(f(x)), a, b, breakpoints) + 1e-13


intervals = st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0)).map(
    lambda t: (t[0], t[0] + t[1]))


def _between(antiderivative):
    return lambda lo, hi: antiderivative(hi) - antiderivative(lo)


@st.composite
def integrands(draw):
    """(f, exact, a, b, breakpoints): a cubic, exp(kx), sqrt|x - c| or |x - c|,
    with exact(lo, hi) its integral over [lo, hi] in closed form."""
    a, b = draw(intervals)
    c = a + draw(st.floats(0.0, 1.0)) * (b - a)
    kind = draw(st.sampled_from(["cubic", "exp", "sqrt", "abs", "abs-kink"]))
    if kind == "cubic":
        c0, c1, c2, c3 = draw(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
        return ((lambda x: ((c3 * x + c2) * x + c1) * x + c0),
                _between(lambda x: (((c3 / 4 * x + c2 / 3) * x + c1 / 2) * x + c0) * x),
                a, b, ())
    if kind == "exp":
        k = draw(st.floats(-5.0, 5.0))
        exact = lambda lo, hi: np.exp(k * lo) * (np.expm1(k * (hi - lo)) / k if k else hi - lo)
        return (lambda x: np.exp(k * x)), exact, a, b, ()
    if kind == "sqrt":
        return ((lambda x: np.sqrt(np.abs(x - c))),
                _between(lambda x: np.sign(x - c) * np.abs(x - c) ** 1.5 * 2 / 3), a, b, ())
    return ((lambda x: np.abs(x - c)), _between(lambda x: np.sign(x - c) * (x - c) ** 2 / 2),
            a, b, ((c,) if kind == "abs-kink" else ()))


@settings(max_examples=200, deadline=None)
@given(integrands())
def test_agrees_with_recursive_reference(case):
    # some draws (sqrt|x - c| with c at an end, say) reach the depth cap: there,
    # and only there, the engine warns once, naming the depth
    f, _, a, b, breaks = case
    capped = []
    ref = _ref_integrate(f, a, b, breaks, capped)
    got, warned = _integrate_seeing_the_cap(f, a, b, breaks)
    assert warned == bool(capped)
    assert isinstance(got, float)
    assert abs(got - ref) <= _bound(f, a, b, breaks)


@settings(max_examples=100, deadline=None)
@given(integrands(), integrands())
def test_rows_integrate_together(first, second):
    # Rows refine jointly, so each row is at least as accurate as its scalar
    # integral: within the bound of it, or closer to the exact value. A row can
    # be closer when the other row forces refinement near a kink that both
    # halves of a coarse panel miss, e.g. |x - 2^-9| on [0, 1]. A row's panels
    # stay open together with the other row's, so where a row alone reaches the
    # depth cap, the rows together reach it too, and warn.
    f, f_exact, a, b, breaks = first
    g, g_exact = second[:2]
    got, warned = _integrate_seeing_the_cap(lambda x: np.stack([f(x), g(x)]), a, b, breaks)
    assert got.shape == (2,)
    for row, fn, exact in zip(got, (f, g), (f_exact, g_exact)):
        alone, alone_warned = _integrate_seeing_the_cap(fn, a, b, breaks)
        assert warned or not alone_warned
        bound = _bound(fn, a, b, breaks)
        assert abs(row - alone) <= bound \
            or abs(row - exact(a, b)) <= abs(alone - exact(a, b)) + bound


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60, unique=True))
def test_panel_integrals_bit_equal_to_reference(knots):
    knots = np.sort(knots)
    f = lambda x: np.sin(x) * x ** 2 + 1.0
    np.testing.assert_array_equal(_quad.panel_integrals(f, knots),
                                  _ref_panel_integrals(f, knots))


@pytest.mark.parametrize("model", [dist.make_uniform(), dist.make_gp(0.2, 1.0, -0.5),
                                   dist.make_gp(0.0, 1.0, 0.0)])
def test_panel_integrals_bit_equal_on_gamma_integrand(model):
    # the integrand gamma_from_target builds for h(x) = max(0, 2/3 (x - 1/2))
    h = lambda x: np.maximum(0.0, (2 / 3) * (np.asarray(x, dtype=float) - 0.5))
    f = lambda t: np.asarray(h(t)) * model.pdf(t)
    xs = model.default_grid((0.5,))
    np.testing.assert_array_equal(_quad.panel_integrals(f, xs), _ref_panel_integrals(f, xs))


# panel_integrals' block in intervals: it calls its integrand on at most
# 5,120 points (512 intervals of 10) at a time
_BLOCK = 512
_BLOCK_MODELS = [(0.0, 1.0, -1.0), (0.0, 1.0, -0.5), (0.0, 1.0, -0.2), (0.0, 1.0, 0.0)]


def _first_price_integrand(model, k):
    # the integrand shade._first_price_table builds
    return lambda t: t * (k - 1) * model.cdf(t) ** (k - 2) * model.pdf(t)


def _gamma_integrand(model):
    # the integrand gamma_from_target builds for the K=2 first-price bid
    h = shade.first_price_bid(model, 2)
    return lambda t: np.asarray(h(t)) * model.pdf(t)


def _assert_blocked_bytes(f, knots):
    """panel_integrals(f, knots) is byte-equal to the one-call reference, and
    each of its integrand calls takes at most one block of intervals."""
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return f(t)

    got = _quad.panel_integrals(counted, knots)
    want = _ref_panel_integrals(f, knots)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    intervals = len(knots) - 1
    assert len(sizes) == -(-intervals // _BLOCK)
    assert sum(sizes) == 10 * intervals and max(sizes) <= 10 * _BLOCK


@pytest.mark.parametrize("params", _BLOCK_MODELS, ids=["uniform", "gp-0.5", "gp-0.2", "gp0"])
@pytest.mark.parametrize("kinks", [(), ((1 + 1e-6) / 2,)], ids=["grid", "grid+x_eps"])
def test_panel_integrals_bit_equal_across_blocks(params, kinks):
    # the set-up tables' integrands on their 2,048-knot grids (4 blocks), with
    # the one-vs-uniform kink x_eps at K=3 as an extra knot
    model = dist.make_gp(*params)
    xs = model.default_grid(kinks)
    for f in [_first_price_integrand(model, k) for k in range(2, 7)] + [_gamma_integrand(model)]:
        _assert_blocked_bytes(f, xs)


@pytest.mark.parametrize("intervals", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_panel_integrals_bit_equal_at_block_edges(intervals):
    model = dist.make_gp(0.0, 1.0, -0.5)
    xs = model.default_grid()[:intervals + 1]
    f, g = _first_price_integrand(model, 3), _gamma_integrand(model)
    for integrand in (f, g, lambda t: np.stack([f(t), g(t)])):
        _assert_blocked_bytes(integrand, xs)


def test_budget_exhaustion_warns():
    with pytest.warns(IntegrationWarning, match=r"\[0\.0, 1\.0\].*40 panels"):
        _quad.integrate(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, max_panels=40)


def test_paper_quadratures_do_not_warn():
    u = dist.make_uniform()
    z = payoff.competition_distribution([u, u])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert payoff.payoff_quadrature(u, shade.truthful(u), z).mean \
            == pytest.approx(11 / 192, abs=1e-9)
        payoff.bsp_payoff_gradient(u, dist.GPParams(0.0, 1 / 3, -1.0), z)


def _two_call_panels(f, lo, hi, nodes, weights):
    mids = 0.5 * (hi + lo)
    halfs = 0.5 * (hi - lo)
    pts = mids[:, None] + halfs[:, None] * nodes[None, :]
    vals = np.asarray(f(pts.ravel()))
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    return halfs * (vals @ weights)


def _two_call_integrate(f, a, b, breakpoints=(), max_panels=100000):
    """The level loop as it was when the whole segments and their halves were
    evaluated in two integrand calls."""
    if not b > a:
        return 0.0
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    lo, hi = pts[:-1], pts[1:]
    whole = _two_call_panels(f, lo, hi, _N15, _W15)
    rough = np.abs(whole).sum(axis=-1, keepdims=True)
    tol = np.maximum(1e-13, 1e-9 * rough) * (hi - lo) / (b - a)
    total = 0.0
    budget = max_panels
    for depth in range(48, -1, -1):
        k = lo.size
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        halves = _two_call_panels(f, lo, hi, _N15, _W15)
        both = halves[..., :k] + halves[..., k:]
        budget -= 2 * k
        ok = np.abs(both - whole) <= np.maximum(tol, 4e-16 * np.abs(both))
        done = ok.reshape(-1, k).all(axis=0)
        if depth == 0 or budget <= 0:
            if depth and not done.all():
                warnings.warn(f"integral over [{a}, {b}] used up its budget of "
                              f"{max_panels} panels", IntegrationWarning, stacklevel=2)
            done[:] = True
        total = total + both[..., done].sum(axis=-1)
        if done.all():
            break
        keep = np.tile(~done, 2)
        lo, hi, whole = lo[keep], hi[keep], halves[..., keep]
        tol = np.tile(np.maximum(0.5 * tol, 1e-16 * np.abs(both))[..., ~done], 2)
    return total if np.ndim(total) else float(total)


def _traced(engine, f, a, b, **kwargs):
    """engine's result, the points of each integrand call and the warnings."""
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = engine(g, a, b, **kwargs)
    return got, calls, [(w.category, str(w.message)) for w in caught]


def _assert_same_as_two_calls(f, a, b, **kwargs):
    got, calls, warned = _traced(_quad.integrate, f, a, b, **kwargs)
    ref, ref_calls, ref_warned = _traced(_two_call_integrate, f, a, b, **kwargs)
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    # the two-call engine is silent at the depth cap; this one warns there
    # once, so only when the reference ran all 49 levels (50 calls)
    capped = [w for w in warned if _is_depth_warning(*w)]
    assert [w for w in warned if w not in capped] == ref_warned
    assert capped == [] or (len(capped) == 1 and len(ref_calls) == 50)
    assert len(calls) == max(len(ref_calls) - 1, 0)
    points = np.sort(np.concatenate(calls)) if calls else np.zeros(0)
    ref_points = np.sort(np.concatenate(ref_calls)) if ref_calls else np.zeros(0)
    assert points.tobytes() == ref_points.tobytes()
    return calls, ref_calls


@st.composite
def row_integrands(draw):
    """(f, a, b, breakpoints): one integrand, or 2 to 5 stacked as rows, with
    the first one's interval and kink and up to 4 further breakpoints."""
    first = draw(integrands())
    rest = [case[0] for case in draw(st.lists(integrands(), max_size=4))]
    _, _, a, b, breaks = first
    fs = [first[0]] + rest
    f = fs[0] if len(fs) == 1 else (lambda x: np.stack([g(x) for g in fs]))
    extra = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    return f, a, b, tuple(breaks) + tuple(a + t * (b - a) for t in extra)


@settings(max_examples=300, deadline=None)
@given(row_integrands(), st.one_of(st.just(100000), st.integers(1, 64)))
def test_first_call_merges_segments_and_halves_bit_for_bit(case, max_panels):
    f, a, b, breaks = case
    _assert_same_as_two_calls(f, a, b, breakpoints=breaks, max_panels=max_panels)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0)])
def test_empty_interval_is_zero_without_a_call(a, b):
    calls, ref_calls = _assert_same_as_two_calls(np.cos, a, b)
    assert _quad.integrate(np.cos, a, b) == 0.0
    assert calls == ref_calls == []


@pytest.mark.parametrize("max_panels", [2, 10, 40])
def test_exhausted_budget_warns_with_the_same_value(max_panels):
    f = lambda x: np.sqrt(np.abs(x - 0.3))
    _, ref_calls = _assert_same_as_two_calls(f, 0.0, 1.0, max_panels=max_panels)
    with pytest.warns(IntegrationWarning, match=f"{max_panels} panels"):
        _quad.integrate(f, 0.0, 1.0, max_panels=max_panels)
    assert len(ref_calls) >= 2


@pytest.mark.parametrize("rows", [1, 3])
def test_depth_cap_gives_the_same_bytes(rows):
    # a jump never satisfies the halving test, so refinement runs to depth 48
    step = lambda x: np.where(x > 1 / 3, 1.0, 0.0)
    f = step if rows == 1 else (lambda x: np.stack([step(x) * (j + 1) for j in range(rows)]))
    calls, ref_calls = _assert_same_as_two_calls(f, 0.0, 1.0, breakpoints=(0.75,))
    assert len(ref_calls) == 50
    assert len(calls) == 49
    # the panel holding the jump is still open at depth 48: the cap warns
    with pytest.warns(IntegrationWarning, match=r"\[0\.0, 1\.0\] reached depth 48 unresolved"):
        _quad.integrate(f, 0.0, 1.0, breakpoints=(0.75,))


@pytest.mark.parametrize("rows", [1, 3])
def test_levels_over_a_block_give_the_same_bytes(rows):
    # 299 breakpoints put 900 panels in the first level, and the 300 cusps of
    # sqrt|sin(300 pi x)|, each the midpoint of a segment, keep ~2,400 panels
    # open for 40-odd levels: each level over 512 panels takes one integrand
    # call per block of 512
    cusp = lambda x: np.sqrt(np.abs(np.sin(300 * np.pi * x)))
    f = cusp if rows == 1 else (lambda x: np.stack([cusp(x) * (j + 1) for j in range(rows)]))
    breaks = tuple(np.linspace(0.0, 1.0, 301)[1:-1] + 1 / 600)
    got, calls, warned = _traced(_quad.integrate, f, 0.0, 1.0, breakpoints=breaks)
    ref, ref_calls, ref_warned = _traced(_two_call_integrate, f, 0.0, 1.0, breakpoints=breaks)
    assert warned == ref_warned == []
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    assert max(c.size for c in calls) <= 15 * _BLOCK
    assert max(c.size for c in ref_calls) > 15 * _BLOCK
    assert len(calls) > len(ref_calls)
    points = np.sort(np.concatenate(calls))
    assert points.tobytes() == np.sort(np.concatenate(ref_calls)).tobytes()


def _smooth_case(rng, rows):
    """(f, a, b, breakpoints): random cubics over 8 to 170 segments, so that
    the first level is one integrand call, and each segment resolves there;
    rows=None gives a 1-d result."""
    a = rng.uniform(-5.0, 5.0)
    b = a + rng.uniform(1e-2, 10.0)
    k = int(rng.integers(8, 171))
    breaks = tuple(np.sort(a + (b - a) * rng.uniform(size=k - 1)).tolist())
    coefs = rng.uniform(-10.0, 10.0, (rows or 1, 4))
    f = lambda x: np.stack([((c3 * x + c2) * x + c1) * x + c0 for c0, c1, c2, c3 in coefs])
    return (lambda x: f(x)[0]) if rows is None else f, a, b, breaks


def _accepted_panels(f, a, b, breaks):
    """The first level's sums of both halves of each segment, in segment
    order: what `integrate` adds up when they are all accepted."""
    pts = np.array([a, *sorted(set(breaks)), b])
    n = pts.size - 1
    assert n >= 8
    left, right = pts[:-1], pts[1:]
    mid = 0.5 * (left + right)
    _, halves = _quad._panels(f, np.concatenate([left, left, mid]),
                              np.concatenate([right, mid, right]), _N15, _W15, (n,))
    return halves[..., :n] + halves[..., n:]


def _left_to_right(row):
    total = row[0]
    for v in row[1:]:
        total += v
    return total


def _one_level_total(f, a, b, breaks):
    got, calls, warned = _traced(_quad.integrate, f, a, b, breakpoints=breaks)
    assert len(calls) == 1 and warned == []
    return np.asarray(got)


def test_each_row_of_a_multi_row_total_sums_left_to_right():
    # both[..., done] is an F-ordered copy, so its sum over the last axis adds
    # each row's accepted panels one by one, left to right; a C-ordered copy
    # would take numpy's pairwise sum of each row, and other bits
    rng = np.random.default_rng(2024)
    pairwise = 0
    for _ in range(300):
        f, a, b, breaks = _smooth_case(rng, int(rng.integers(2, 6)))
        both = _accepted_panels(f, a, b, breaks)
        got = _one_level_total(f, a, b, breaks)
        want = np.array([0.0 + _left_to_right(row.tolist()) for row in both])
        assert got.tobytes() == want.tobytes()
        pairwise += (0.0 + np.ascontiguousarray(both).sum(axis=-1)).tobytes() == got.tobytes()
    assert pairwise < 150  # the two orders differ, so the test tells them apart


@pytest.mark.parametrize("rows", [None, 1], ids=["1-d", "1-row"])
def test_a_one_row_total_is_numpys_pairwise_sum(rows):
    rng = np.random.default_rng(2025)
    sequential = 0
    for _ in range(300):
        f, a, b, breaks = _smooth_case(rng, rows)
        both = _accepted_panels(f, a, b, breaks).reshape(-1)
        got = _one_level_total(f, a, b, breaks)
        assert got.tobytes() == (0.0 + np.add.reduce(both)).reshape(got.shape).tobytes()
        sequential += (0.0 + _left_to_right(both.tolist())) == got.reshape(())
    assert sequential < 150
