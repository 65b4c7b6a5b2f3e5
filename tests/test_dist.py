import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from shadecraft import dist, shade
from shadecraft._quad import integrate, panel_integrals
from shadecraft.errors import ConfigError, InvalidParams, NonMonotone, OutOfSupport


def numeric_virtual_value(model, x, dx=1e-6):
    # independent oracle: psi = x - (1 - F)/f with f by central differences
    f = (model.cdf(x + dx) - model.cdf(x - dx)) / (2 * dx)
    return x - (1.0 - model.cdf(x)) / f


class TestGPParams:
    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParams):
            dist.make_gp(0.0, -1.0, -1.0)
        with pytest.raises(InvalidParams):
            dist.make_gp(0.0, 0.0, -1.0)
        with pytest.raises(InvalidParams):
            dist.make_gp(0.0, 1.0, 0.5)

    def test_rejects_xi_whose_endpoint_overflows(self):
        # mu - sigma/xi overflows for a subnormal xi; the optimizer's cap
        # and the exponential branch still construct
        with pytest.raises(InvalidParams):
            dist.make_gp(0.0, 1.0, -1e-311)
        assert dist.make_gp(0.0, 1.0, -1e-6).support == (0.0, 1e6)
        assert dist.make_gp(0.0, 1.0, 0.0).support[1] == np.inf

    def test_support(self):
        assert dist.make_gp(0, 2, -1).support == (0.0, 2.0)
        assert dist.make_gp(1, 1, -0.5).support == (1.0, 3.0)
        assert dist.make_gp(0, 1, 0).support[1] == np.inf


class TestMakeGP:
    def test_uniform_cdf(self):
        u = dist.make_uniform()
        assert u.cdf(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_uniform_mean(self):
        assert dist.make_uniform().mean() == pytest.approx(0.5)

    def test_exponential_cdf(self):
        e = dist.make_gp(0, 1, 0)
        assert e.cdf(1.0) == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_quantile_roundtrip(self):
        m = dist.make_gp(0.5, 2.0, -0.7)
        xs = np.linspace(0.6, 3.2, 17)
        np.testing.assert_allclose(m.quantile(m.cdf(xs)), xs, atol=1e-10)

    @pytest.mark.parametrize("xi", [-1.0, -0.3, 0.0])
    def test_isf_is_quantile_of_complement(self, xi):
        m = dist.make_gp(0.2, 0.7, xi)
        qs = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(m.isf(1.0 - qs), m.quantile(qs))
        with pytest.raises(InvalidParams):
            m.isf(1.5)

    def test_isf_finite_where_one_minus_u_rounds_to_one(self):
        e = dist.make_gp(0.0, 1.0, 0.0)
        u = np.array([1e-20, 1e-300])
        np.testing.assert_allclose(e.isf(u), -np.log(u), rtol=1e-15)
        assert np.all(np.isinf(e.quantile(1.0 - u)))


@pytest.mark.parametrize("params", [(0.3, 2.0, -3.0), (0.0, 1.0, -1.5), (-0.5, 0.25, -8.0)])
def test_gp_sf_and_pdf_near_a_bounded_top_against_mpmath(params):
    """Where xi < -1, sf and pdf at x = hi - d, d from one ulp of the top hi
    to most of the support, within 1e-14 relative of 50-digit values of the
    law whose top is hi. At the top, sf is 0, cdf 1 and pdf 0 exactly."""
    mu, sigma, xi = params
    m = dist.make_gp(mu, sigma, xi)
    hi = m.support[1]
    assert m.sf(hi) == 0.0 and m.cdf(hi) == 1.0 and m.pdf(hi) == 0.0
    ulp = abs(np.spacing(hi))
    ds = [ulp, 7 * ulp, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3,
          0.5 * (hi - mu), 0.99 * (hi - mu)]
    xs = np.array([hi - d for d in ds])
    with mpmath.workdps(50):
        bases = [-mpmath.mpf(xi) * (mpmath.mpf(hi) - mpmath.mpf(x)) / sigma for x in xs]
        sf = [float(b ** (-1 / mpmath.mpf(xi))) for b in bases]
        pdf = [float(b ** (-1 / mpmath.mpf(xi) - 1) / sigma) for b in bases]
    np.testing.assert_allclose(m.sf(xs), sf, rtol=1e-14, atol=0)
    np.testing.assert_allclose(m.cdf(xs), 1.0 - np.array(sf), rtol=1e-15, atol=0)
    np.testing.assert_allclose(m.pdf(xs), pdf, rtol=1e-14, atol=0)


def _masked_gp_pdf(model, x):
    """GPDistribution.pdf as a boolean gather and scatter: the power is taken
    only inside the support, and the xi = -1 top is set to 1/sigma."""
    p = model.params
    x = np.asarray(x, dtype=float)
    z = (x - p.mu) / p.sigma
    if p.xi == 0:
        return np.where(z < 0, 0.0, np.exp(-z) / p.sigma)
    base = model._base(x, z)
    inside = (z >= 0) & (base > 0)
    out = np.zeros_like(z)
    out[inside] = base[inside] ** (-1.0 / p.xi - 1.0) / p.sigma
    if p.xi == -1:
        out[(z >= 0) & (base == 0)] = 1.0 / p.sigma
    return out


def _pdf_outcome(pdf, x, **errstate):
    """(type, shape, bytes) of pdf(x), or the floating-point error it raises."""
    with np.errstate(**errstate):
        try:
            out = pdf(x)
        except FloatingPointError as e:
            return str(e)
    return type(out), np.shape(out), np.asarray(out).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.01, 10.0),
       st.one_of(st.sampled_from([-1.0, -3.0, 0.0, -0.5]), st.floats(-3.0, 0.0)))
def test_gp_pdf_is_the_masked_formula_byte_for_byte(mu, sigma, xi):
    # inside the support, at both ends, one ulp beyond each, at +-inf and at
    # NaN; as 1-d, 2-d and 0-d arrays, with every floating-point error
    # raising (the benchmark runs with RuntimeWarning as an error), and again
    # with underflow, which the power can reach inside, ignored
    try:
        model = dist.make_gp(mu, sigma, xi)
    except InvalidParams:  # xi so close to 0 that the top overflows
        reject()
    lo, hi = model.support
    span = hi - lo if np.isfinite(hi) else 40.0 * sigma
    x = np.concatenate([lo + span * np.linspace(0.0, 1.0, 18)[1:-1],
                        [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                         np.inf, -np.inf, np.nan, np.nan]])
    for xs in (x, x.reshape(6, 4), *x):
        for errstate in ({"all": "raise"}, {"all": "raise", "under": "ignore"}):
            assert _pdf_outcome(model.pdf, xs, **errstate) \
                == _pdf_outcome(lambda v: _masked_gp_pdf(model, v), xs, **errstate)


def _scalar_misses(rule, points):
    """The points where rule on the 0-d point gives other bytes, or another
    shape, than the same point's place in rule(points)."""
    batch = rule(points)
    reads = [rule(np.asarray(v)) for v in points]
    return [float(v) for v, read, want in zip(points, reads, batch)
            if np.shape(read) != () or np.asarray(read).tobytes() != want.tobytes()]


def _assert_scalar_reads_are_batched_reads(model, n=1000):
    # points inside the support, at both ends and beyond them; probabilities
    # across [0, 1] for the inverse rules
    lo, hi = model.support
    span = hi - lo if np.isfinite(hi) else 40.0 * model.params.sigma
    x = np.concatenate([lo + span * np.linspace(0.0, 1.0, n),
                        [np.nextafter(lo, -np.inf), lo - span, hi + span]])
    u = np.linspace(0.0, 1.0, n)
    for name, points in (("sf", x), ("cdf", x), ("pdf", x), ("isf", u), ("quantile", u)):
        assert _scalar_misses(getattr(model, name), points) == [], name


@pytest.mark.parametrize("params", [(0.0, 1.0, -0.2), (0.3, 2.0, -3.0)])
def test_gp_scalar_reads_are_batched_reads(params):
    # a 0-d sf read is taken as a batch of one: numpy's scalar ** rounds
    # differently from its array loop, and with the scalar power 47 sf and 11
    # cdf reads of GP(0, 1, -0.2) and 59 and 58 of GP(0.3, 2, -3) differed
    _assert_scalar_reads_are_batched_reads(dist.make_gp(*params))


@settings(max_examples=40, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.01, 10.0),
       st.one_of(st.sampled_from([-1.0, -3.0, 0.0, -0.5]), st.floats(-3.0, 0.0)))
def test_gp_scalar_reads_are_batched_reads_on_any_shape(mu, sigma, xi):
    try:
        model = dist.make_gp(mu, sigma, xi)
    except InvalidParams:  # xi so close to 0 that the top overflows
        reject()
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        _assert_scalar_reads_are_batched_reads(model, n=200)


class TestVirtualValue:
    def test_uniform_closed_form(self):
        u = dist.make_uniform()
        assert u.virtual_value(0.75) == pytest.approx(0.5)
        assert u.virtual_value(0.5) == pytest.approx(0.0)

    def test_gp_matches_numeric_ratio(self):
        m = dist.make_gp(0, 2, -1)
        assert m.virtual_value(1.5) == pytest.approx(1.0, abs=1e-9)
        assert m.virtual_value(1.5) == pytest.approx(numeric_virtual_value(m, 1.5), abs=1e-6)

    @pytest.mark.parametrize("mu,sigma,xi", [(0, 1, -1), (0, 1, -0.5), (0.3, 2, -0.2), (0, 1.5, 0)])
    def test_closed_form_vs_ratio_on_grid(self, mu, sigma, xi):
        m = dist.make_gp(mu, sigma, xi)
        lo, hi = m.support
        hi = m.grid_upper()
        xs = np.linspace(lo + 0.05 * (hi - lo), lo + 0.8 * (hi - lo), 50)
        ratio = xs - m.sf(xs) / m.pdf(xs)
        np.testing.assert_allclose(m.virtual_value(xs), ratio, atol=1e-10)

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            dist.make_uniform().virtual_value(1.5)


class TestInverseVirtualValue:
    def test_uniform(self):
        u = dist.make_uniform()
        assert u.inverse_virtual_value(0.0) == pytest.approx(0.5)
        assert u.inverse_virtual_value(0.2) == pytest.approx(0.6)

    def test_roundtrip(self):
        m = dist.make_uniform()
        for x in (0.55, 0.7, 0.9):
            assert m.inverse_virtual_value(m.virtual_value(x)) == pytest.approx(x, abs=1e-10)

    def test_monopoly_price_is_gp_mean(self):
        m = dist.make_gp(0, 2, -0.5)
        assert m.monopoly_price() == pytest.approx(m.mean())


class TestHazardRate:
    def test_uniform(self):
        u = dist.make_uniform()
        assert u.hazard_rate(0.5) == pytest.approx(2.0)
        assert u.hazard_rate(0.9) == pytest.approx(10.0)

    def test_exponential_constant(self):
        e = dist.make_gp(0, 1, 0)
        np.testing.assert_allclose(e.hazard_rate(np.array([0.1, 1.0, 3.0])), 1.0)


class TestConditionalTailExpectation:
    def test_gp_closed_form(self):
        u = dist.make_uniform()
        assert dist.conditional_tail_expectation(u, None, 0.2) == pytest.approx(0.6)

    def test_at_lower_endpoint_equals_mean(self):
        m = dist.make_gp(0, 2, -0.5)
        assert dist.conditional_tail_expectation(m, None, 0.0) == pytest.approx(m.mean())

    def test_uniform_with_h(self):
        u = dist.make_uniform()
        # oracle: integral of 2t/3 over [0,1] is 1/3
        oracle = integrate(lambda t: 2 * t / 3, 0.0, 1.0)
        assert oracle == pytest.approx(1 / 3, abs=1e-12)
        got = dist.conditional_tail_expectation(u, lambda t: 2 * t / 3, 0.0)
        assert got == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("sigma,xi", [(1, -1), (2, -0.5), (1, -0.25)])
    def test_gp_closed_vs_quadrature_grid(self, sigma, xi):
        m = dist.make_gp(0, sigma, xi)
        xs = np.linspace(0.0, 0.9 * m.grid_upper(), 50)
        for x in xs:
            closed = (x + sigma) / (1 - xi)
            quad = integrate(lambda t: t * m.pdf(t), x, m.grid_upper()) / m.sf(x)
            assert closed == pytest.approx(quad, abs=1e-8)
            assert dist.conditional_tail_expectation(m, None, x) == pytest.approx(closed, abs=1e-8)


class TestGridFunction:
    def test_exact_at_knots(self):
        xs = np.linspace(0, 1, 33)
        g = dist.GridFunction(xs, np.exp(xs))
        np.testing.assert_array_equal(g(xs), np.exp(xs))

    @pytest.mark.parametrize("xs", [
        np.unique(np.concatenate([np.linspace(0, 1, 4097), [0.1234, 0.5e-3, 0.777]])),
        dist.make_uniform().default_grid(np.linspace(0, 1, 4097)),
    ])
    def test_exact_at_knots_in_a_large_batch(self, xs):
        # a batch this large takes the numpy evaluation, which must return
        # every stored value exactly, the last knot's included
        assert xs.size >= dist._NUMPY_MIN_POINTS
        values = np.exp(xs)
        g = dist.GridFunction(xs, values)
        np.testing.assert_array_equal(g(xs), values)
        np.testing.assert_array_equal(g(xs[::-1]), values[::-1])

    def test_rejects_non_monotone(self):
        with pytest.raises(NonMonotone):
            dist.GridFunction([0, 1, 2], [0, 2, 1])

    def test_derivative_positive(self):
        xs = np.linspace(0, 1, 65)
        g = dist.GridFunction(xs, xs ** 3 + xs)
        assert np.all(g.derivative(np.linspace(0, 1, 200)) > 0)

    @pytest.mark.parametrize("y", [[0.0, 1.0, 10.0, 12.0], [0.0, 1.0, 3.0, 3.1]],
                             ids=["first", "last"])
    def test_rejects_a_flat_end(self, y):
        # increasing values whose PCHIP end slope is set to 0, where the
        # one-sided slope's sign differs from the end secant's: at the first
        # knot (a zero among the pieces' slopes), or only at the last knot,
        # whose slope is read from the last piece
        with pytest.raises(NonMonotone, match="derivative must be positive"):
            dist.GridFunction(np.arange(4.0), y)


class TestTransformDistribution:
    def test_linear_shading_virtual_value(self):
        u = dist.make_uniform()
        beta = dist.GridFunction.from_callable(lambda x: 0.5 * x, 0, 1, 512)
        b = dist.push_forward(u, beta, beta.derivative, u.default_grid(beta.knots))
        assert b.virtual_value(0.5 * 0.75) == pytest.approx(0.25, abs=1e-8)

    def test_identity_preserves_virtual_value(self):
        u = dist.make_uniform()
        beta = dist.GridFunction.from_callable(lambda x: x, 0, 1, 512)
        b = dist.push_forward(u, beta, beta.derivative, u.default_grid(beta.knots))
        xs = np.linspace(0.05, 0.95, 40)
        np.testing.assert_allclose(b.virtual_value(xs), u.virtual_value(xs), atol=1e-8)

    def test_affine_target(self):
        u = dist.make_uniform()
        beta = dist.GridFunction.from_callable(lambda x: (1 + x) / 3, 0, 1, 512)
        b = dist.push_forward(u, beta, beta.derivative, u.default_grid(beta.knots))
        for x in (0.25, 0.5, 0.75):
            assert b.virtual_value(beta(x)) == pytest.approx(2 * x / 3, abs=1e-8)

    def test_transform_identity_property(self):
        # |psi_B(beta(x)) - [beta(x) + beta'(x)(psi_X(x) - x)]| < 1e-6 on the grid
        m = dist.make_gp(0, 1, -0.5)
        beta = dist.GridFunction.from_callable(lambda x: x + 0.2 * np.sin(x) + 0.1 * x ** 2,
                                               0, m.grid_upper(), 1024)
        b = dist.push_forward(m, beta, beta.derivative, m.default_grid(beta.knots))
        xs = np.linspace(0.02, 0.9 * m.grid_upper(), 100)
        lhs = b.virtual_value(beta(xs))
        rhs = beta(xs) + beta.derivative(xs) * (m.virtual_value(xs) - xs)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestSampling:
    def test_gp_mean_lln(self):
        m = dist.make_uniform()
        s = m.sample(10 ** 6, seed=7)
        se = s.std() / 1000
        assert abs(s.mean() - 0.5) < 3 * se

    def test_determinism(self):
        m = dist.make_gp(0, 2, -0.7)
        np.testing.assert_array_equal(m.sample(1000, seed=42), m.sample(1000, seed=42))

    def test_support_bound_and_mean(self):
        m = dist.make_gp(0, 2, -1)
        s = m.sample(10 ** 6, seed=3)
        assert s.max() <= 2.0
        assert abs(s.mean() - 1.0) < 3 * s.std() / 1000

    @pytest.mark.parametrize("model", [dist.make_gp(0, 1, -1), dist.make_gp(0, 1, -0.4),
                                       dist.make_gp(0, 1, 0)])
    def test_ks_distance(self, model):
        n = 10 ** 5
        s = np.sort(model.sample(n, seed=11))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        f = model.cdf(s)
        d = max(np.abs(ecdf_hi - f).max(), np.abs(f - ecdf_lo).max())
        assert d < 0.01


class TestGridModel:
    def test_quantile_roundtrip(self):
        u = dist.make_uniform()
        beta = dist.GridFunction.from_callable(lambda x: (1 + x) / 2, 0, 1, 512)
        b = dist.push_forward(u, beta, beta.derivative, u.default_grid(beta.knots))
        xs = np.linspace(0.51, 0.99, 25)
        np.testing.assert_allclose(b.quantile(b.cdf(xs)), xs, atol=1e-9)
        us = np.linspace(0.0, 1.0, 33)
        np.testing.assert_array_equal(b.isf(us), b.quantile(1.0 - us))

    def test_grid_sampling_ks(self):
        u = dist.make_uniform()
        beta = dist.GridFunction.from_callable(lambda x: x ** 2 + x, 0, 1, 512)
        b = dist.push_forward(u, beta, beta.derivative, u.default_grid(beta.knots))
        n = 10 ** 5
        s = np.sort(b.sample(n, seed=5))
        d = np.abs(np.arange(1, n + 1) / n - b.cdf(s)).max()
        assert d < 0.01

    def test_uniform_grid_mean_and_tail_expectation(self):
        xs = np.linspace(0.0, 1.0, 129)
        g = dist.make_grid(xs, xs, np.ones_like(xs))
        assert g.mean() == pytest.approx(0.5, abs=1e-15)
        assert dist.conditional_tail_expectation(g, None, 0.3) == pytest.approx(0.65, abs=1e-15)
        # no tail above the top: E[X | X >= 1] is the top itself
        assert dist.conditional_tail_expectation(g, None, 1.0) == 1.0

    @pytest.mark.parametrize("n", [7, 2048])  # below and above dist._NUMPY_MIN_POINTS
    def test_cdf_at_and_below_the_first_knot_is_the_first_value(self, n):
        # the cdf table's first piece starts at the first knot, where it is
        # cdf_values[0], so the clip into the support reads that value below it
        xs = np.linspace(1.0, 1.01, 257)
        g = dist.make_grid(xs, 0.1 + 0.9 * (xs - 1.0) / 0.01, np.full_like(xs, 90.0))
        below = np.resize([xs[0], np.nextafter(xs[0], -np.inf), 0.5, -1e300, -np.inf, np.nan], n)
        out = g.cdf(below)
        nan = np.isnan(below)
        assert np.isnan(out[nan]).all()
        assert out[~nan].tobytes() == np.full(np.count_nonzero(~nan), 0.1).tobytes()
        # the first piece one ulp below the first knot is not cdf_values[0]: a
        # read that missed the first knot by an ulp would fail the test
        assert (g._F(np.full(n, np.nextafter(xs[0], -np.inf))) != 0.1).all()

    @pytest.mark.parametrize("model", [
        dist.make_grid(np.linspace(0, 1, 50), np.linspace(0, 1, 50) ** 3),
        shade.linear_shading(dist.make_grid(np.linspace(0, 1, 300), np.linspace(0, 1, 300) ** 2),
                             0.7).bid_distribution(),
    ], ids=["cube", "linear-0.7-of-square"])
    def test_cdf_of_quantile_is_q_to_4_eps(self, model):
        # quantile inverts the cdf table on its own slope, so Newton meets
        # the root of the table it reads back
        q = np.random.default_rng(33).random(20_000)
        assert np.abs(model.cdf(model.quantile(q)) - q).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("density", [True, False], ids=["given", "from-cdf"])
    @pytest.mark.parametrize("n", [300, 2048])  # below and above dist._NUMPY_MIN_POINTS
    def test_density_is_the_pchip_of_its_values(self, n, density):
        # pdf reads a table of pdf_values, bit for bit scipy's PCHIP of them;
        # without a density, pdf_values are the cdf PCHIP's derivative at the
        # knots, and pdf is that derivative everywhere
        rng = np.random.default_rng(n)
        xs = np.cumsum(rng.exponential(size=n))
        cdf = np.cumsum(rng.exponential(size=n))
        cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])
        g = dist.make_grid(xs, cdf, rng.exponential(size=n) if density else None)
        if density:
            pdf = PchipInterpolator(xs, g.pdf_values)
        else:
            pdf = PchipInterpolator(xs, cdf).derivative()
            assert g.pdf_values.tobytes() == np.clip(pdf(xs), 0.0, None).tobytes()
        for size in (500, 3000):  # reads below and above dist._NUMPY_MIN_POINTS
            x = np.concatenate([rng.uniform(xs[0], xs[-1], size - 20), rng.choice(xs, 20)])
            assert g.pdf(x).tobytes() == np.maximum(pdf(x), 0.0).tobytes()

    @pytest.mark.parametrize("n", [50, 300, 2048])
    def test_cdf_alone_defines_one_law(self, n):
        # a grid given only its cdf reads its density off that table's slope,
        # so its density has the table's mass and mean to a few ulps
        xs = np.linspace(0, 1, n)
        g = dist.make_grid(xs, xs ** 3)
        slope = PchipInterpolator(xs, xs ** 3).derivative()
        rng = np.random.default_rng(n)
        for size in (500, 3000):  # reads below and above dist._NUMPY_MIN_POINTS
            x = np.concatenate([rng.uniform(0, 1, size - 20), rng.choice(xs, 20)])
            assert g.pdf(x).tobytes() == np.maximum(slope(x), 0.0).tobytes()
        eps = np.finfo(float).eps
        assert abs(panel_integrals(g.pdf, xs).sum() - 1.0) <= 4 * eps
        assert abs(g.mean() - (xs[-1] - panel_integrals(g.cdf, xs).sum())) <= 4 * eps

    def test_non_regular_grid_rejected_for_inverse(self):
        # bimodal-ish density gives a non-monotone virtual value
        xs = np.linspace(0.0, 1.0, 400)
        pdf = 0.2 + 4.0 * np.exp(-200 * (xs - 0.3) ** 2) + 4.0 * np.exp(-200 * (xs - 0.7) ** 2)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
        pdf = pdf / cdf[-1]
        cdf = cdf / cdf[-1]
        m = dist.make_grid(xs, cdf, pdf)
        assert not m.is_regular
        with pytest.raises(Exception):
            m.inverse_virtual_value(0.1)


@pytest.mark.parametrize("cdf, pdf, error", [
    # the quantile table's harmonic-mean slope over two 1e-300 steps is inf
    ([0, 1e-300, 2e-300, 0.5, 0.9, 1.0], None, InvalidParams),
    # two values below 0 clip to the same 0: the clipped cdf repeats a value
    ([-1e-13, -5e-14, 0.3, 0.5, 0.9, 1.0], np.ones(6), NonMonotone),
    # the quantile table's slopes are finite (~2e159) but t / h overflows, so
    # its coefficients are inf and NaN and quantiles near 0 would be NaN
    ([0, 1e-160, 2e-160, 0.5, 0.9, 1.0], None, InvalidParams),
])
def test_grid_whose_tables_cannot_be_built_is_refused(cdf, pdf, error):
    with pytest.raises(error):
        dist.make_grid([0, 0.2, 0.4, 0.6, 0.8, 1.0], cdf, pdf)


@pytest.mark.parametrize("knots, error", [
    ([0, 0.2, np.inf, 0.6, 0.8, 1.0], InvalidParams),
    ([0, 0.2, np.nan, 0.6, 0.8, 1.0], InvalidParams),
    ([-np.inf, 0.2, 0.4, 0.6, 0.8, 1.0], InvalidParams),
    ([0, 0.4, 0.2, 0.6, 0.8, 1.0], NonMonotone),
    ([0, 0.2, 0.2, 0.6, 0.8, 1.0], NonMonotone),
    ([1.0, 0.8, 0.6, 0.4, 0.2, 0], NonMonotone),
])
@pytest.mark.parametrize("pdf", [np.ones(6), None])
def test_bad_knots_are_refused_by_the_table_builder(knots, error, pdf):
    # the grid leaves its knots to dist._pchip, which refuses them as scipy does
    with pytest.raises(error):
        dist.make_grid(knots, [0, 0.2, 0.4, 0.6, 0.8, 1.0], pdf)


@pytest.mark.parametrize("pdf", [np.ones(6), None])
def test_cdf_is_checked_for_increase_after_clipping(pdf):
    # both values below 0 clip to 0: the refusal names the cdf, not the knots
    with pytest.raises(NonMonotone, match="cdf values must be strictly increasing"):
        dist.make_grid([0, 0.2, 0.4, 0.6, 0.8, 1.0], [-1e-13, -5e-14, 0.3, 0.5, 0.9, 1.0], pdf)


class TestZeroDensityAtBottomKnot:
    """psi = x - (1 - F)/f is -inf where f = 0: the psi table starts at the
    first knot with positive density."""

    xs = np.linspace(0.0, 1.0, 2048)

    def test_square_law_table_is_finite(self):
        m = dist.make_grid(self.xs, self.xs ** 2, 2 * self.xs)
        assert m.psi_domain[0] == self.xs[1]
        assert np.all(np.isfinite(m.virtual_range))
        assert m.virtual_range[0] == pytest.approx(self.xs[1] - (1 - self.xs[1] ** 2)
                                                   / (2 * self.xs[1]), rel=1e-12)
        np.testing.assert_array_equal(m.virtual_value_clamped(np.array([0.0, 1e-4])),
                                      m.virtual_range[0])
        with pytest.raises(OutOfSupport):
            m.virtual_value(np.array([0.0, 1e-4]))
        x = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(m.virtual_value(x), x - (1 - x ** 2) / (2 * x),
                                   rtol=1e-6, atol=1e-9)
        assert m.monopoly_price() == pytest.approx(1 / np.sqrt(3), abs=1e-9)

    def test_shaded_bid_law_table_is_finite(self):
        m = dist.make_grid(self.xs, self.xs ** 2, 2 * self.xs)
        b = shade.linear_shading(m, 0.6).bid_distribution()
        assert np.all(np.isfinite(b.virtual_range))
        with pytest.raises(OutOfSupport):
            b.inverse_virtual_value(b.virtual_range[0] - 1.0)

    def test_bimodal_law_is_not_regular(self):
        x = self.xs
        f = x * (np.exp(-((x - 0.2) / 0.08) ** 2) + np.exp(-((x - 0.8) / 0.08) ** 2) + 0.05)
        cdf = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2 * np.diff(x))])
        f, cdf = f / cdf[-1], cdf / cdf[-1]
        assert f[0] == 0.0
        assert not dist.make_grid(x, cdf, f).is_regular
        # the same law without its zero-density knot
        top = 1.0 - cdf[1]
        assert not dist.make_grid(x[1:], (cdf[1:] - cdf[1]) / top, f[1:] / top).is_regular

    def test_positive_density_table_starts_at_the_bottom_knot(self):
        m = dist.make_grid(self.xs, (self.xs + self.xs ** 2) / 2, (1 + 2 * self.xs) / 2)
        assert m.psi_domain[0] == self.xs[0]
        assert m.virtual_range[0] == -2.0  # 0 - (1 - 0) / (1/2)


class TestInvertVirtualFromSamples:
    def setup_method(self):
        rng = np.random.default_rng(123)
        self.w = rng.uniform(-1, 1, 10 ** 6)

    def test_at_zero(self):
        assert dist.invert_virtual_from_samples(self.w, 0.0) == pytest.approx(0.5, abs=5e-3)

    def test_at_half(self):
        assert dist.invert_virtual_from_samples(self.w, 0.5) == pytest.approx(0.75, abs=5e-3)

    def test_degenerate_denominator(self):
        with pytest.raises(InvalidParams):
            dist.invert_virtual_from_samples(self.w, 2.0)

    def test_population_version(self):
        w_model = dist.make_gp(-1, 2, -1)  # Unif[-1, 1]
        for t in np.linspace(-0.8, 0.8, 9):
            got = dist.invert_virtual_from_distribution(w_model, t)
            assert got == pytest.approx((t + 1) / 2, abs=1e-8)


class TestConfig:
    def test_gp_roundtrip(self):
        m = dist.model_from_config({"kind": "gp", "mu": 0.0, "sigma": 2.0, "xi": -0.5})
        assert m.params == dist.GPParams(0.0, 2.0, -0.5)

    def test_grid_config(self):
        xs = np.linspace(0, 1, 64)
        m = dist.model_from_config({"kind": "grid", "knots": xs.tolist(),
                                    "cdf": (xs ** 2).tolist()})
        assert isinstance(m, dist.GridDistribution)
        assert m.cdf(0.5) == pytest.approx(0.25, abs=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            dist.model_from_config({"kind": "weird"})

    @pytest.mark.parametrize("cfg,field", [
        ({"kind": "gp", "mu": 0}, "sigma"),
        ({"kind": "gp", "mu": 0, "sigma": "wide", "xi": -1}, "sigma"),
        ({"kind": "gp", "mu": None, "sigma": 1, "xi": -1}, "mu"),
        ({"kind": "grid", "cdf": [0, 0.5, 0.9, 1]}, "knots"),
        ({"kind": "grid", "knots": [0, 1, 2, 3], "cdf": [0, "a", 0.9, 1]}, "cdf"),
        ({"kind": "grid", "knots": [0, 1, 2, 3], "cdf": [0, 0.5, 0.9, 1],
          "pdf": [[1], [1, 2]]}, "pdf"),
        ({"kind": "gp", "mu": "0", "sigma": 1, "xi": -1}, "mu"),
        ({"kind": "gp", "mu": 0, "sigma": True, "xi": -1}, "sigma"),
        ({"kind": "grid", "knots": [0, 1, 2, 3], "cdf": [0, 0.5, 0.9, True]}, "cdf"),
    ])
    def test_bad_field_is_named(self, cfg, field):
        with pytest.raises(ConfigError, match=rf"^{field}\b"):
            dist.model_from_config(cfg)
