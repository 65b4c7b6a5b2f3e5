import copy
import functools
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.stats import qmc

from shadecraft import _quad, dist, mech, opt, payoff, shade
from shadecraft.errors import InvalidParams, NonMonotone, OutOfSupport


KINDS = ["myerson", "vcg-lazy", "vcg-eager"]


def uniforms(k):
    return [dist.make_uniform() for _ in range(k)]


@pytest.fixture(scope="module")
def z_two_uniform():
    return payoff.competition_distribution(uniforms(2))


@pytest.fixture(scope="module")
def z_one_uniform():
    return payoff.competition_distribution(uniforms(1))


@pytest.fixture(scope="module")
def eq3():
    u = dist.make_uniform()
    return shade.equilibrium_shading(u, 3)


class TestCompetitionDistribution:
    def test_two_truthful_uniforms(self, z_two_uniform):
        ts = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(z_two_uniform.cdf(ts), ((ts + 1) / 2) ** 2, atol=1e-12)
        assert z_two_uniform.atom0 == pytest.approx(0.25)

    def test_negative_argument(self, z_two_uniform):
        # below 0 no competitor clears: W reads the atom, and no density
        assert z_two_uniform.cdf(-0.1) == z_two_uniform.atom0
        assert z_two_uniform.pdf(-0.1) == 0.0

    def test_single_uniform(self, z_one_uniform):
        assert z_one_uniform.cdf(0.2) == pytest.approx(0.6)
        assert z_one_uniform.atom0 == pytest.approx(0.5)

    def test_density_matches_difference_quotient(self, z_two_uniform):
        ts = np.linspace(0.05, 0.9, 12)
        dq = (z_two_uniform.cdf(ts + 1e-6) - z_two_uniform.cdf(ts - 1e-6)) / 2e-6
        np.testing.assert_allclose(z_two_uniform.pdf(ts), dq, atol=1e-6)

    def test_atom_is_the_law_at_and_below_zero(self, z_two_uniform):
        # the atom and W(0) are one number, from one rule
        z = z_two_uniform
        assert np.float64(z.atom0).tobytes() == z.cdf(0.0).tobytes() == z.cdf(-0.1).tobytes()

    def test_tops_are_the_finite_top_virtualized_bids(self):
        z = payoff.competition_distribution(
            [dist.make_uniform(), dist.make_gp(0.0, 1.0, -0.5), dist.make_gp(0.0, 1.0, 0.0)])
        assert z.tops == (1.0, 2.0)


def _square_law_grid():
    # F(x) = x^2 on [0, 1], tabulated: psi(x) = x - (1 - x^2)/(2x) is increasing
    xs = np.linspace(0.0, 1.0, 201)
    return dist.make_grid(xs, xs ** 2, 2 * xs)


def _repeated_pair():
    # a competitor repeated around another: [a, b, a]
    a, b = _square_law_grid(), dist.make_gp(0.1, 0.7, -0.4)
    return [a, b, a]


_COMPETITIONS = (
    payoff.competition_distribution([dist.make_uniform(), dist.make_gp(0.1, 0.7, -0.4)]),
    payoff.competition_distribution([_square_law_grid(), dist.make_uniform()]),
    payoff.competition_distribution([_square_law_grid()] * 3),
    payoff.competition_distribution(_repeated_pair()),
)


def _reference_virtual_law(m, t):
    """cdf and pdf of psi(B), B ~ m, by the per-family formulas, each with its
    own inverse: affine on GP models, a three-way split on grid tables."""
    if isinstance(m, dist.GPDistribution):
        c = 1.0 - m.params.xi
        x = t / c + m.monopoly_price()
        return m.cdf(np.clip(x, *m.support)), m.pdf(x) / c
    lo, hi = m._psi_inv.x[0], m._psi_inv.x[-1]
    below, above = t < lo, t > hi
    mid = ~(below | above)
    cdf = np.empty_like(t)
    cdf[below] = m.cdf_values[0]
    cdf[above] = 1.0
    cdf[mid] = m.cdf(m._inverse_virtual_clamped(t[mid]))
    pdf = np.zeros_like(t)
    x = m._inverse_virtual_clamped(t[mid])
    pdf[mid] = m.pdf(x) / np.clip(m._psi.slope(x), 1e-12, None)
    return cdf, pdf


def _reference_law(z, t):
    """F_Z and f_Z, from every competitor's law read at max(t, 0): Z = max(0, psi_i(B_i))."""
    cdfs, pdfs = zip(*(_reference_virtual_law(m, np.clip(t, 0.0, None)) for m in z.models))
    cdf = functools.reduce(np.multiply, cdfs, np.ones_like(t))
    return cdf, np.where(t <= 0, 0.0, payoff._product_density(t, cdfs, pdfs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_COMPETITIONS),
       st.lists(st.one_of(st.floats(-2.0, -1e-9), st.just(0.0), st.floats(1e-9, 3.0),
                          st.floats(3.0, 10.0)), min_size=1, max_size=40))
def test_law_is_byte_equal_to_cdf_and_pdf(z, ts):
    # t < 0, t = 0, inside the virtualized support and above every top
    t = np.array(ts)
    cdf, pdf = z.law(t, density=True)
    for got, want in zip((cdf, pdf), (z.cdf(t), z.pdf(t))):
        assert got.tobytes() == want.tobytes()
    for got, want in zip((cdf, pdf), _reference_law(z, t)):
        assert got.tobytes() == want.tobytes()
    assert z.law(t)[1] is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 2.0), st.floats(-3.0, -0.05)),
                min_size=1, max_size=4),
       st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=30))
def test_myerson_is_eager_vcg_in_virtualized_bids(params, ts):
    # the paper's identity: Myerson sells to the highest nonnegative virtualized bid, so
    # its W is eager VCG's on V_i = psi_i(B_i) with every reserve at 0. V_i is the GP law
    # ((1 - xi)(mu - r*), (1 - xi) sigma, xi), built as its own model
    z = payoff.competition_distribution([dist.make_gp(*p) for p in params])
    virtual = [dist.make_gp((1 - xi) * (mu - dist.make_gp(mu, sigma, xi).monopoly_price()),
                            (1 - xi) * sigma, xi) for mu, sigma, xi in params]
    t = np.array(ts)
    floors = [float(v.cdf(0.0)) for v in virtual]
    want = functools.reduce(np.multiply, [np.maximum(m, v.cdf(t)) for m, v in
                                          zip(floors, virtual)], np.ones_like(t))
    np.testing.assert_allclose(z.cdf(t), want, rtol=0, atol=1e-12)
    assert z.atom0 == pytest.approx(np.prod(floors), rel=0, abs=1e-12)


class TestDistinctCompetitors:
    """Each distinct competitor object is read once per law call."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The models whose _virtual_law is called, in call order."""
        seen = []
        law = dist.DistributionModel._virtual_law
        monkeypatch.setattr(dist.DistributionModel, "_virtual_law",
                            lambda m, *a: seen.append(m) or law(m, *a))
        return seen

    @staticmethod
    def _law_reads(reads, models, density):
        z = payoff.competition_distribution(models)
        reads.clear()
        z.law(np.linspace(-0.5, 2.0, 7), density=density)
        return reads

    @pytest.mark.parametrize("density", [False, True])
    def test_repeated_model_is_read_once(self, reads, density):
        b = dist.make_gp(0.1, 0.7, -0.4)
        assert self._law_reads(reads, [b] * 3, density) == [b]

    @pytest.mark.parametrize("density", [False, True])
    def test_mixed_order_reads_each_model_once(self, reads, density):
        a, b, _ = models = _repeated_pair()
        assert self._law_reads(reads, models, density) == [a, b]

    @pytest.mark.parametrize("density", [False, True])
    def test_equal_gp_models_built_apart_are_read_once(self, reads, density):
        models = uniforms(3)
        assert self._law_reads(reads, models, density) == models[:1]

    def test_equal_gp_models_built_apart_are_fitted_once(self, monkeypatch):
        fits = []
        fit = mech.fit_gp_quantile
        monkeypatch.setattr(mech, "fit_gp_quantile", lambda m: fits.append(m) or fit(m))
        models = uniforms(3) + [dist.make_gp(0.1, 0.7, -0.4)]
        mech.fit_bsp(models)
        assert fits == [models[0], models[3]]

    def test_equal_grid_models_built_apart_are_each_read(self, reads):
        models = [_square_law_grid() for _ in range(3)]
        assert self._law_reads(reads, models, True) == models

    def test_signed_zeros_are_different_laws(self, reads):
        models = [dist.make_gp(-0.0, 1.0, -1.0), dist.make_gp(0.0, 1.0, -1.0)]
        assert self._law_reads(reads, models, True) == models
        assert models[0].law_key != models[1].law_key

    def test_atom_reads_a_repeated_model_once(self, reads):
        b = dist.make_gp(0.1, 0.7, -0.4)
        z = payoff.competition_distribution([b] * 4)
        assert reads == [b]
        jump = b.cdf(b.monopoly_price())
        assert z.atom0 == jump * jump * jump * jump

    def test_vcg_law_reads_a_repeated_model_once(self, monkeypatch):
        m = dist.make_gp(0.1, 0.7, -0.4)
        z = payoff.competition_distribution([m] * 4, "vcg-eager")
        law, kinks = z.law, z.kinks
        assert kinks == [m.monopoly_price()] * 4
        reads = []
        for name in ("cdf", "pdf"):
            method = getattr(m, name)
            monkeypatch.setattr(m, name, lambda t, f=method, n=name: reads.append(n) or f(t))
        law(np.linspace(0.0, 2.0, 7), density=True)
        assert reads == ["cdf", "pdf"]

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("pattern", ["aaaa", "abaa"])
    def test_vcg_law_is_the_product_over_every_competitor(self, kind, pattern):
        # G = prod H_i and g by the product rule, in competitor order, as the
        # VCG law was computed before repeated models were merged
        named = {"a": dist.make_gp(0.1, 0.7, -0.4), "b": dist.make_uniform()}
        models = [named[c] for c in pattern]
        eager = kind == "vcg-eager"
        reserves = [m.monopoly_price() if eager else -np.inf for m in models]
        floors = [m.cdf(r) if eager else 0.0 for m, r in zip(models, reserves)]
        t = np.linspace(0.0, 2.0, 201)
        cdfs = [np.maximum(f_r, m.cdf(t)) for m, f_r in zip(models, floors)]
        pdfs = [np.where(t > r, m.pdf(t), 0.0) for m, r in zip(models, reserves)]
        cdf, pdf = payoff.competition_distribution(models, kind).law(t, density=True)
        assert cdf.tobytes() == functools.reduce(np.multiply, cdfs, np.ones_like(t)).tobytes()
        assert pdf.tobytes() == payoff._product_density(t, cdfs, pdfs).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", range(2, 7))
    def test_repeated_model_is_byte_equal_to_copies(self, kind, k):
        m = dist.make_gp(0.1, 0.7, -0.4)
        copies = [dist.make_gp(0.1, 0.7, -0.4) for _ in range(k - 1)]
        alphas = [0.3, 0.55, 0.8, 1.0]
        for rivals in ([m] * (k - 1), copies):
            curve = payoff.linear_payoff_curve(m, rivals, kind, alphas)
            slopes = [payoff.payoff_derivative_alpha(m, rivals, a, kind=kind) for a in alphas]
            got = np.array([v for _, v in curve] + slopes).tobytes()
            if rivals is copies:
                assert got == want
            want = got


# xi in (-1, -0.5) or below -1 leaves f_Z a power-law cusp at the top that
# exhausts the BSP gradient's panel budget, so those shapes are not drawn;
# mu >= 0, as fit_bsp's GP(0, sigma, xi) quantile fit needs
@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.1, 2.0),
       st.one_of(st.floats(-0.5, -0.05), st.just(-1.0)), st.integers(2, 4))
def test_equal_gp_models_built_apart_give_the_same_bytes(mu, sigma, xi, k):
    # k equal GP laws built apart, merged by law key, against one model repeated
    t = np.concatenate([np.linspace(-0.5, mu - sigma / xi + 0.5, 40), [0.0]])
    value, p = dist.make_uniform(), dist.GPParams(0.1, 0.5, -0.5)
    alphas = [0.3, 0.8, 1.0]

    def numbers(models):
        z = payoff.competition_distribution(models)
        out = [*z.law(t, density=True), z.cdf(t), z.pdf(t), [z.atom0],
               [payoff.bsp_payoff(value, p, z)], payoff.bsp_payoff_gradient(value, p, z),
               *mech.fit_bsp(models)]
        for kind in ("vcg-lazy", "vcg-eager"):
            out += [v for _, v in payoff.linear_payoff_curve(value, models, kind, alphas)]
        return np.concatenate([np.ravel(v) for v in out]).tobytes()

    built_apart = [dist.make_gp(mu, sigma, xi) for _ in range(k)]
    assert numbers(built_apart) == numbers([dist.make_gp(mu, sigma, xi)] * k)


class TestGPCompetitionRatio:
    def test_k3_uniform(self):
        ratio = payoff.gp_competition_ratio(dist.GPParams(0, 1, -1), 3)
        assert ratio(0.2) == pytest.approx(0.6)

    def test_k2_at_zero(self):
        ratio = payoff.gp_competition_ratio(dist.GPParams(0, 1, -1), 2)
        assert ratio(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_matches_competition_distribution(self):
        params = dist.GPParams(0, 1, -1)
        z = payoff.competition_distribution([dist.GPDistribution(params)] * 2)
        ratio = payoff.gp_competition_ratio(params, 3)
        ts = np.linspace(0.02, 0.9, 50)
        two_route = z.cdf(ts) / z.pdf(ts)
        np.testing.assert_allclose(ratio(ts), two_route, atol=1e-6)

    def test_out_of_range(self):
        ratio = payoff.gp_competition_ratio(dist.GPParams(0, 1, -1), 2)
        with pytest.raises(OutOfSupport):
            ratio(5.0)


class TestPayoffQuadrature:
    def test_truthful_vs_two(self, z_two_uniform):
        u = dist.make_uniform()
        est = payoff.payoff_quadrature(u, shade.truthful(u), z_two_uniform)
        assert est.mean == pytest.approx(11 / 192, abs=1e-6)
        assert est.std_error == 0.0

    def test_truthful_vs_one(self, z_one_uniform):
        u = dist.make_uniform()
        est = payoff.payoff_quadrature(u, shade.truthful(u), z_one_uniform)
        assert est.mean == pytest.approx(1 / 12, abs=1e-6)

    def test_one_vs_uniform_with_atom(self, z_two_uniform):
        u = dist.make_uniform()
        s = shade.one_vs_uniform_shading(u, 3)
        est = payoff.payoff_quadrature(u, s, z_two_uniform)
        assert est.mean == pytest.approx(229 / 1728, abs=1e-5)

    def test_atom_regression_guard(self, z_two_uniform):
        # exact eps->0 limit: removing the atom drops exactly the [0,1/2] term 1/32
        u = dist.make_uniform()

        def h(x):
            return np.maximum(0.0, (2 / 3) * (np.asarray(x, dtype=float) - 0.5))

        s = shade.GridShading(u, h, kinks=(0.5,))
        with_atom = payoff.payoff_quadrature(u, s, z_two_uniform).mean
        z0 = copy.copy(z_two_uniform)

        def law_without_atom(t, density=False):
            cdf, pdf = z_two_uniform.law(t, density)
            return np.where(np.asarray(t) == 0, 0.0, cdf), pdf

        z0.law = law_without_atom
        without = payoff.payoff_quadrature(u, s, z0).mean
        assert with_atom == pytest.approx(229 / 1728, abs=1e-9)
        assert with_atom - without == pytest.approx(1 / 32, abs=1e-9)

    def test_virtualized_bid_that_never_clears_pays_zero(self, z_two_uniform):
        # h = x - 10 < 0 on the whole support: no value clears, no integral is taken
        u = dist.make_uniform()
        s = shade.GridShading(u, lambda x: np.asarray(x, dtype=float) - 10)
        assert payoff.payoff_quadrature(u, s, z_two_uniform).mean == 0.0


class TestOneCompetitionBuilder:
    """competition_distribution builds what a bidder must beat under Myerson and
    lazy and eager VCG; payoff_quadrature prices any strategy against each."""

    @pytest.mark.parametrize("kind", ["second-price", "boosted-second-price", "first-price",
                                      "vickrey", ""])
    def test_other_kinds_are_refused(self, kind):
        with pytest.raises(InvalidParams, match="unsupported mechanism kind"):
            payoff.competition_distribution(uniforms(2), kind)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    def test_vcg_competition_is_met_by_the_bid(self, kind):
        z = payoff.competition_distribution(uniforms(2), kind)
        assert not z.virtual and z.atom0 is None
        assert z.kinks == ([0.5, 0.5] if kind == "vcg-eager" else ())
        assert payoff.competition_distribution(uniforms(2)).virtual

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    def test_directional_derivative_refuses_a_vcg_competition(self, kind, eq3):
        z = payoff.competition_distribution([eq3.bid_distribution()] * 2, kind)
        beta = eq3.as_grid_function()
        rho = dist.GridFunction.from_callable(lambda x: x, 0.0, 1.0, 64)
        with pytest.raises(InvalidParams, match="Myerson"):
            payoff.directional_derivative(dist.make_uniform(), beta, rho, z)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("call", [
        lambda u, p, z: payoff.bsp_payoff(u, p, z),
        lambda u, p, z: payoff.bsp_payoff_gradient(u, p, z),
        lambda u, p, z: payoff.bsp_payoff_and_gradient(u, p, z),
    ], ids=["payoff", "gradient", "payoff_and_gradient"])
    def test_bsp_refuses_a_vcg_competition(self, kind, call):
        z = payoff.competition_distribution(uniforms(2), kind)
        with pytest.raises(InvalidParams, match="Myerson"):
            call(dist.make_uniform(), dist.GPParams(0.0, 1 / 3, -1.0), z)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_truthful_uniform_closed_form(self, kind, k):
        # the bidder clears at her monopoly price 1/2, where every rival's bid
        # clears too: int_{1/2}^1 (1 - x) x^(K-1) dx under both VCG kinds
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(k - 1), kind)
        exact = 1 / (k * (k + 1)) - 2.0 ** -k / k + 2.0 ** -(k + 1) / (k + 1)
        assert payoff.payoff_quadrature(u, shade.truthful(u), z).mean \
            == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_uniform_equilibrium_closed_form(self, kind, k):
        # the equilibrium bid law's monopoly price is its bottom, so every
        # bid clears: h = (K-1) x / K and W = x^(K-1) give 1/(K(K+1))
        u = dist.make_uniform()
        eq = shade.equilibrium_shading(u, k)
        z = payoff.competition_distribution([eq.bid_distribution()] * (k - 1), kind)
        assert payoff.payoff_quadrature(u, eq, z).mean \
            == pytest.approx(1 / (k * (k + 1)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("case", ["equilibrium", "one-vs-uniform"])
    def test_quadrature_matches_monte_carlo(self, kind, case):
        # K=3 uniforms: every bidder at the equilibrium shading, or bidder 0 at
        # the one-vs-uniform shading against two truthful bidders; the seller
        # fits monopoly reserves to every bid law. 10^6 rounds at seed 32
        models = uniforms(3)
        if case == "equilibrium":
            strategies = [shade.equilibrium_shading(m, 3) for m in models]
        else:
            strategies = [shade.one_vs_uniform_shading(models[0], 3)] \
                + [shade.truthful(m) for m in models[1:]]
        bids = [s.bid_distribution() for s in strategies]
        z = payoff.competition_distribution(bids[1:], kind)
        quad = payoff.payoff_quadrature(models[0], strategies[0], z).mean
        cfg = mech.fit_mechanism(kind, bids)
        est = payoff.payoff_monte_carlo(models, strategies, cfg, 10 ** 6, seed=32)
        assert abs(quad - est.per_bidder[0]) < 3 * est.per_bidder_se[0]

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    def test_eager_reserve_crossing_is_a_breakpoint(self, kind, monkeypatch):
        # the bid 0.6 x meets the rivals' reserve 1/2 at x = 5/6, inside the
        # clearing region [1/2, 1]: eager VCG splits there, lazy VCG has no kink
        breaks = []
        integrate = _quad.integrate
        monkeypatch.setattr(_quad, "integrate", lambda f, a, b, breakpoints=(), **kw:
                            breaks.append(sorted(breakpoints)) or integrate(f, a, b, breakpoints, **kw))
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(2), kind)
        payoff.payoff_quadrature(u, shade.linear_shading(u, 0.6), z)
        assert breaks == [[pytest.approx(5 / 6, rel=1e-15)] if kind == "vcg-eager" else []]


# GP shapes as test_equal_gp_models_built_apart_give_the_same_bytes draws them
@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.1, 2.0),
       st.one_of(st.floats(-0.5, -0.05), st.just(-1.0)), st.integers(2, 4),
       st.floats(np.finfo(float).tiny, 1.0), st.sampled_from(KINDS))
# r* = 0.151 lies below the support [0.203, 0.453]: the curve once integrated
# from r*, across the density's jump at the support's low end, 1.8e-12 off
@example(0.203125, 0.125, -0.5, 3, 0.25, "myerson")
def test_linear_shading_quadrature_equals_the_payoff_curve(mu, sigma, xi, k, alpha, kind):
    # payoff_quadrature, from its clearing point with the eager reserve
    # crossings as breakpoints, against _linear_integral's row from r*; every
    # normal alpha in (0, 1], as _alpha refuses subnormal ones
    m = dist.make_gp(mu, sigma, xi)
    rivals = [dist.make_gp(mu, sigma, xi) for _ in range(k - 1)]
    z = payoff.competition_distribution(rivals, kind)
    quad = payoff.payoff_quadrature(m, shade.linear_shading(m, alpha), z).mean
    (_, curve), = payoff.linear_payoff_curve(m, rivals, kind, [alpha])
    assert quad == pytest.approx(curve, rel=1e-12, abs=0)


class TestMonteCarlo:
    def test_truthful_three_bidders(self):
        models = uniforms(3)
        strategies = [shade.truthful(m) for m in models]
        cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
        est = payoff.payoff_monte_carlo(models, strategies, cfg, 10 ** 6, seed=101)
        for mean, se in zip(est.per_bidder, est.per_bidder_se):
            assert abs(mean - 11 / 192) < 3 * se
        assert abs(est.seller_revenue - 17 / 32) < 3 * est.seller_revenue_se

    def test_equilibrium_three_bidders(self):
        models = uniforms(3)
        strategies = [shade.equilibrium_shading(m, 3) for m in models]
        cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
        est = payoff.payoff_monte_carlo(models, strategies, cfg, 10 ** 6, seed=202)
        for mean, se in zip(est.per_bidder, est.per_bidder_se):
            assert abs(mean - 1 / 12) < 3 * se
        assert abs(est.seller_revenue - 0.5) < 3 * est.seller_revenue_se

    def test_gp_equilibrium_three_bidders(self):
        # bids, psi and psi^-1 from grid tables whose knots are not equispaced:
        # each bidder's equilibrium payoff is sigma B(1 - xi, K) = 16/105 at
        # K = 3 on GP(0, 1, -0.5), B the beta function
        seed = 11
        models = [dist.make_gp(0.0, 1.0, -0.5) for _ in range(3)]
        strategies = [shade.equilibrium_shading(m, 3) for m in models]
        cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
        est = payoff.payoff_monte_carlo(models, strategies, cfg, 131_072, seed=seed)
        for mean, se in zip(est.per_bidder, est.per_bidder_se):
            assert abs(mean - 16 / 105) < 3 * se

    def test_worker_count_invariance(self):
        models = uniforms(2)
        strategies = [shade.truthful(m) for m in models]
        cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
        runs = [payoff.payoff_monte_carlo(models, strategies, cfg, 200000, seed=7,
                                          workers=w) for w in (1, 4, 16)]
        assert runs[0] == runs[1] == runs[2]

    def test_grid_path_worker_invariance(self, monkeypatch):
        # K=3 uniform equilibrium under Myerson: bids, virtual values and
        # payments all come from grid tables, in batches above the numpy
        # crossover; 3 chunks of rounds
        models = uniforms(3)
        strategies = [shade.equilibrium_shading(m, 3) for m in models]
        cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
        rounds = 3 * payoff._CHUNK

        def run(workers):
            return payoff.payoff_monte_carlo(models, strategies, cfg, rounds, seed=11,
                                             workers=workers)

        runs = [run(w) for w in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]
        # the same run with every table call evaluated by scipy
        monkeypatch.setattr(dist, "_NUMPY_MIN_POINTS", np.inf)
        assert run(1) == runs[0]

    def test_env_var_workers(self, monkeypatch):
        monkeypatch.setenv("SHADECRAFT_WORKERS", "4")
        assert payoff._resolve_workers(None) == 4
        assert payoff._resolve_workers(2) == 2
        monkeypatch.setenv("SHADECRAFT_WORKERS", "")
        assert payoff._resolve_workers(None) == 1

    @pytest.mark.parametrize("workers,env", [(0, None), (-3, None), (None, "two"),
                                             (None, "2.5"), (None, "0")])
    def test_bad_worker_count_is_refused(self, monkeypatch, workers, env):
        if env is not None:
            monkeypatch.setenv("SHADECRAFT_WORKERS", env)
        with pytest.raises(InvalidParams):
            payoff._resolve_workers(workers)

    @pytest.mark.parametrize("make_strategy", [
        lambda u: shade.truthful(u),
        lambda u: shade.linear_shading(u, 0.5),
        lambda u: shade.equilibrium_shading(u, 3),
        lambda u: shade.one_vs_uniform_shading(u, 3),
    ])
    def test_quadrature_matches_monte_carlo(self, make_strategy):
        # bidder 0 strategic, two truthful uniform competitors, Myerson seller
        u = dist.make_uniform()
        s = make_strategy(u)
        models = [u] + uniforms(2)
        strategies = [s] + [shade.truthful(m) for m in models[1:]]
        cfg = mech.fit_mechanism("myerson", [t.bid_distribution() for t in strategies])
        z = payoff.competition_distribution([t.bid_distribution() for t in strategies[1:]])
        quad = payoff.payoff_quadrature(u, s, z).mean
        est = payoff.payoff_monte_carlo(models, strategies, cfg, 10 ** 6, seed=31)
        assert abs(quad - est.per_bidder[0]) < 3 * max(est.per_bidder_se[0], 1e-9)

    def test_vcg_lazy_quadrature_matches_monte_carlo(self):
        u = dist.make_uniform()
        alpha = 0.8
        models = [u] + uniforms(2)
        strategies = [shade.linear_shading(u, alpha)] + [shade.truthful(m) for m in models[1:]]
        cfg = mech.fit_mechanism("vcg-lazy", [t.bid_distribution() for t in strategies])
        (_, quad), = payoff.linear_payoff_curve(u, models[1:], "vcg-lazy", [alpha])
        est = payoff.payoff_monte_carlo(models, strategies, cfg, 10 ** 6, seed=87)
        assert abs(quad - est.per_bidder[0]) < 3 * est.per_bidder_se[0]

    def test_config_mismatch(self):
        models = uniforms(2)
        strategies = [shade.truthful(m) for m in models]
        cfg = mech.MechanismConfig("vcg-lazy", reserves=(0.5,))
        with pytest.raises(InvalidParams):
            payoff.payoff_monte_carlo(models, strategies, cfg, 10, seed=1)

    @pytest.mark.parametrize("cfg,message", [
        (mech.MechanismConfig("myerson", bid_models=(dist.make_uniform(),)),
         "one bid model per bidder"),
        (mech.MechanismConfig("boosted-second-price", boosts=(2.0,), reserves=(0.5, 0.5)),
         r"one \(boost, reserve\) pair per bidder")])
    def test_config_for_fewer_bidders_is_refused(self, cfg, message):
        models = uniforms(2)
        strategies = [shade.truthful(m) for m in models]
        with pytest.raises(InvalidParams, match=message):
            payoff.payoff_monte_carlo(models, strategies, cfg, 10, seed=1)


class TestLinearPayoffCurve:
    def test_small_alpha_limit(self, z_one_uniform):
        u = dist.make_uniform()
        (_, pay), = payoff.linear_payoff_curve(u, uniforms(1), "myerson", [0.01])
        assert pay == pytest.approx(3 / 16, rel=0.02)

    def test_alpha_one(self):
        u = dist.make_uniform()
        (_, pay), = payoff.linear_payoff_curve(u, uniforms(1), "myerson", [1.0])
        assert pay == pytest.approx(1 / 12, abs=1e-9)

    def test_k2_strictly_decreasing(self):
        u = dist.make_uniform()
        alphas = np.linspace(0.02, 1.0, 50)
        pairs = payoff.linear_payoff_curve(u, uniforms(1), "myerson", alphas)
        vals = [p for _, p in pairs]
        assert np.all(np.diff(vals) < 0)

    def test_unsupported_kind(self):
        with pytest.raises(InvalidParams):
            payoff.linear_payoff_curve(dist.make_uniform(), uniforms(1), "first-price", [0.5])

    @pytest.mark.parametrize("kind", KINDS)
    # 5e-324: a subnormal alpha psi rounds to -0.0 below r*, where the bidder would clear
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, np.nan, 5e-324])
    def test_alpha_outside_unit_interval_raises(self, kind, alpha):
        with pytest.raises(InvalidParams):
            payoff.linear_payoff_curve(dist.make_uniform(), uniforms(2), kind, [0.5, alpha])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("xi", [-1.0, -0.5])
    def test_one_integral_equals_one_alpha_calls(self, kind, xi):
        m = dist.make_gp(0.0, 1.0, xi)
        alphas = np.linspace(0.05, 1.0, 9)
        curve = payoff.linear_payoff_curve(m, [m] * 2, kind, alphas)
        for alpha, pay in curve:
            (_, single), = payoff.linear_payoff_curve(m, [m] * 2, kind, [alpha])
            assert pay == pytest.approx(single, abs=1e-13)

    @pytest.mark.parametrize("xi", [-1.0, -0.5, -0.2])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_vcg_eager_matches_quad_with_reserve_kinks(self, xi, k):
        # G(alpha x) kinks where alpha x meets the competitors' reserve r
        m = dist.make_gp(0.0, 1.0, xi)
        r, hi = m.monopoly_price(), m.grid_upper()
        floor = float(m.cdf(r))
        for alpha, pay in payoff.linear_payoff_curve(m, [m] * (k - 1), "vcg-eager",
                                                     [0.3, 0.55, 0.8, 1.0]):
            def f(x):
                psi = max(float(m.virtual_value_clamped(x)), 0.0)
                return (x - alpha * psi) * max(floor, float(m.cdf(alpha * x))) ** (k - 1) \
                    * float(m.pdf(x))
            kink = [r / alpha] if r < r / alpha < hi else None
            ref, _ = integrate.quad(f, r, hi, points=kink, epsabs=1e-14, epsrel=1e-13,
                                    limit=200)
            assert pay == pytest.approx(ref, abs=1e-10)

    def test_vcg_eager_curve_is_one_cheap_integral(self, monkeypatch):
        calls = []
        panels = _quad._panels
        monkeypatch.setattr(_quad, "_panels", lambda *a: calls.append(1) or panels(*a))
        u = dist.make_uniform()
        payoff.linear_payoff_curve(u, uniforms(2), "vcg-eager", [0.35, 0.55, 0.75, 0.95])
        assert 0 < len(calls) <= 4


class TestDerivativeAlpha:
    @pytest.mark.parametrize("n,expected", [(2, -3 / 16), (3, -7 / 48),
                                            (4, -(2 ** 4 - 1) / (4 * 2 ** 5)),
                                            (5, -(2 ** 5 - 1) / (5 * 2 ** 6)),
                                            (6, -(2 ** 6 - 1) / (6 * 2 ** 7))])
    def test_uniform_closed_form(self, n, expected):
        u = dist.make_uniform()
        d = payoff.payoff_derivative_alpha(u, uniforms(n - 1), 1.0)
        assert d == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_vcg_negative_at_truthful(self, kind, k):
        u = dist.make_uniform()
        d = payoff.payoff_derivative_alpha(u, uniforms(k - 1), 1.0, kind=kind)
        assert d < -1e-3

    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_vcg_uniform_closed_form(self, kind, k):
        # G(x) = x^(K-1) above r* = 1/2: the integral of
        # [-(2x - 1) + (1 - x)(K - 1)] x^(K-1) over [1/2, 1] is -2^-(K+1)
        u = dist.make_uniform()
        d = payoff.payoff_derivative_alpha(u, uniforms(k - 1), 1.0, kind=kind)
        assert d == pytest.approx(-2.0 ** -(k + 1), abs=1e-12)

    # away from 0.5 and 1: there r/alpha meets an end of [r*, 1], the eager
    # payoff's second derivative in alpha jumps, and a central difference is
    # off by O(step)
    @pytest.mark.parametrize("kind", ["vcg-lazy", "vcg-eager"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    def test_vcg_matches_central_difference(self, kind, k, alpha):
        u = dist.make_uniform()
        step = 1e-4
        (_, lo), (_, hi) = payoff.linear_payoff_curve(u, uniforms(k - 1), kind,
                                                      [alpha - step, alpha + step])
        d = payoff.payoff_derivative_alpha(u, uniforms(k - 1), alpha, kind=kind)
        assert d == pytest.approx((hi - lo) / (2 * step), abs=1e-7)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        with pytest.raises(InvalidParams):
            payoff.payoff_derivative_alpha(dist.make_uniform(), uniforms(2), alpha)

    def test_no_step_argument(self):
        with pytest.raises(TypeError):
            payoff.payoff_derivative_alpha(dist.make_uniform(), uniforms(2), 1.0, step=1e-4)


# the five directions of acceptance criterion 04
DIRECTIONS = [lambda x: np.asarray(x, dtype=float),
              lambda x: (1 + np.asarray(x, dtype=float)) / 2,
              lambda x: np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 2,
              lambda x: np.log1p(np.asarray(x, dtype=float)),
              lambda x: np.expm1(np.asarray(x, dtype=float))]


class TestDirectionalDerivative:
    def test_vanishes_at_equilibrium(self, eq3):
        u = dist.make_uniform()
        z = payoff.competition_distribution([eq3.bid_distribution()] * 2)
        beta = eq3.as_grid_function()
        for f in DIRECTIONS:
            rho = dist.GridFunction.from_callable(f, 0.0, 1.0, 512)
            assert abs(payoff.directional_derivative(u, beta, rho, z)) < 1e-4

    def test_list_of_directions_is_the_single_calls_bit_for_bit(self, eq3):
        # one integral with a row per direction; at the uniform K=3 equilibrium
        # every row resolves where its single integral does
        u = dist.make_uniform()
        z = payoff.competition_distribution([eq3.bid_distribution()] * 2)
        beta = eq3.as_grid_function()
        rhos = [dist.GridFunction.from_callable(f, 0.0, 1.0, 512) for f in DIRECTIONS]
        singles = [payoff.directional_derivative(u, beta, rho, z) for rho in rhos]
        assert all(type(v) is float for v in singles)
        many = payoff.directional_derivative(u, beta, rhos, z)
        assert many.shape == (5,)
        assert many.tobytes() == np.array(singles).tobytes()

    def test_linear_direction_matches_alpha_derivative(self, z_two_uniform):
        u = dist.make_uniform()
        xs = np.linspace(0.0, 1.0, 2048)
        identity = dist.GridFunction(xs, xs)
        dd = payoff.directional_derivative(u, identity, identity, z_two_uniform)
        assert dd == pytest.approx(-7 / 48, abs=1e-4)

    def test_boundary_term_where_the_clearing_point_moves(self, z_two_uniform):
        # truthful against two truthful uniforms (atom0 = 1/4) along rho = (1 + x)/2:
        # h = 2x - 1 clears at x0 = 1/2 > 0 and D(x) = x, so the expectation term
        # is int_{1/2}^1 x [(1 - x) x - x^2] dx and the boundary term
        # D(x0) atom0 f1(x0) x0 / h'(x0) = 1/32; together -7/48
        u = dist.make_uniform()
        xs = np.linspace(0.0, 1.0, 2048)
        identity = dist.GridFunction(xs, xs)
        rho = dist.GridFunction(xs, (1 + xs) / 2)
        expectation = mpmath.quad(lambda x: x * ((1 - x) * x - x ** 2), [0.5, 1])
        want = float(expectation + mpmath.mpf(1) / 32)
        assert want == pytest.approx(-7 / 48, abs=1e-15)
        dd = payoff.directional_derivative(u, identity, rho, z_two_uniform)
        assert dd == pytest.approx(want, abs=1e-9)
        # the boundary term too is one per row
        rows = payoff.directional_derivative(u, identity, [rho, identity, rho], z_two_uniform)
        assert rows[0] == rows[2] == dd

    def test_zero_direction(self, z_two_uniform):
        u = dist.make_uniform()
        xs = np.linspace(0.0, 1.0, 2048)
        identity = dist.GridFunction(xs, xs)

        def zero(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        zero.derivative = zero
        assert payoff.directional_derivative(u, identity, zero, z_two_uniform) == 0.0

    def test_direction_that_breaks_monotonicity_is_refused(self, z_two_uniform):
        # beta' = 1 against 1e-6 rho' = 10: beta - 1e-6 rho decreases
        u = dist.make_uniform()
        xs = np.linspace(0.0, 1.0, 2048)
        with pytest.raises(NonMonotone, match="perturbation breaks monotonicity"):
            payoff.directional_derivative(u, dist.GridFunction(xs, xs),
                                          dist.GridFunction(xs, 1e7 * xs), z_two_uniform)
        with pytest.raises(NonMonotone, match="perturbation breaks monotonicity"):
            payoff.directional_derivative(
                u, dist.GridFunction(xs, xs),
                [dist.GridFunction(xs, xs), dist.GridFunction(xs, 1e7 * xs)], z_two_uniform)


class TestEquilibriumProperties:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_revenue_equivalence_and_improvement(self, k):
        u = dist.make_uniform()
        eq = shade.equilibrium_shading(u, k)
        z_eq = payoff.competition_distribution([eq.bid_distribution()] * (k - 1))
        z_truth = payoff.competition_distribution(uniforms(k - 1))
        eq_pay = payoff.payoff_quadrature(u, eq, z_eq).mean
        fp_pay = payoff.first_price_payoff(u, shade.first_price_bid(u, k), k)
        truthful_pay = payoff.payoff_quadrature(u, shade.truthful(u), z_truth).mean
        assert eq_pay == pytest.approx(fp_pay, abs=1e-5)
        assert eq_pay > truthful_pay


class TestBSPGradient:
    def test_mu_component_is_one(self):
        p = dist.GPParams(0.0, 0.4, -0.8)
        ss = -np.log(np.linspace(0.05, 0.95, 20))
        grads = payoff._grad_psi_of_s(p, ss)
        np.testing.assert_allclose(grads[0], 1.0)

    def test_sigma_component_is_psi_over_sigma(self):
        p = dist.GPParams(0.0, 0.4, -0.8)
        ss = -np.log(np.linspace(0.05, 0.95, 20))
        grads = payoff._grad_psi_of_s(p, ss)
        psi = payoff._gp_virtual_of_s(p, ss)
        np.testing.assert_allclose(grads[1], psi / p.sigma, atol=1e-12)

    def test_exponential_shape_is_refused(self, z_two_uniform):
        # the only guard: grad psi divides by xi
        with pytest.raises(InvalidParams, match="gradient requires xi < 0"):
            payoff.bsp_payoff_gradient(dist.make_uniform(), dist.GPParams(0.0, 1.0, 0.0),
                                       z_two_uniform)

    def test_gradient_matches_finite_differences(self, z_two_uniform):
        u = dist.make_uniform()
        p = dist.GPParams(0.0, 0.4, -0.8)
        analytic = payoff.bsp_payoff_gradient(u, p, z_two_uniform)
        step = 1e-5
        fields = ("mu", "sigma", "xi")
        fd = np.zeros(3)
        for i, name in enumerate(fields):
            hi = {f: getattr(p, f) + (step if f == name else 0.0) for f in fields}
            lo = {f: getattr(p, f) - (step if f == name else 0.0) for f in fields}
            fd[i] = (payoff.bsp_payoff(u, dist.GPParams(**hi), z_two_uniform)
                     - payoff.bsp_payoff(u, dist.GPParams(**lo), z_two_uniform)) / (2 * step)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
        assert np.all(rel < 1e-4)

    def test_stationary_without_point_mass(self, z_two_uniform):
        u = dist.make_uniform()
        g = payoff.bsp_payoff_gradient(u, dist.GPParams(0.0, 1 / 3, -1.0),
                                       z_two_uniform, include_point_mass=False)
        assert np.linalg.norm(g) < 1e-3

    def test_bsp_payoff_matches_reparam_quadrature(self, z_two_uniform):
        u = dist.make_uniform()
        p = dist.GPParams(0.0, 0.4, -0.8)
        s = shade.gp_reparam_shading(u, p)
        assert payoff.bsp_payoff(u, p, z_two_uniform) == pytest.approx(
            payoff.payoff_quadrature(u, s, z_two_uniform).mean, abs=1e-9)


BSP_BOX = ((0.0, 0.5), (0.05, 1.5), (-3.0, -1e-6))


def _psi_of_u(p, u):
    """psi_p(x_p) = (1 - xi)(x_p - r*) at the GP quantile x_p of 1 - u."""
    return p.mu - p.sigma + p.sigma * (1 - p.xi) * np.expm1(-p.xi * np.log(u)) / p.xi


def _grad_psi_of_u(p, u):
    # the xi row, d/dxi of expm1(a)/xi with a = -xi log u, loses about
    # log10(1/|a|) digits to cancellation; it is taken in extended precision
    # where the platform has it
    lg, xi = np.log(np.longdouble(u)), np.longdouble(p.xi)
    a = -xi * lg
    e = np.expm1(a) / xi
    de = (-lg * np.exp(a) * xi - np.expm1(a)) / xi ** 2
    return np.array([1.0, float((1 - xi) * e - 1), float(p.sigma * ((1 - xi) * de - e))])


def _bsp_oracle(d1, p, z):
    """[bsp_payoff, its gradient] by scipy quad over u = 1 - F1(x1) in (0, u1],
    psi(u1) = 0, with the points where psi meets a top of z as breakpoints."""
    def psi(u):
        return float(_psi_of_u(p, u))

    if psi(1e-300) <= 0:
        return np.zeros(4)
    u1 = 1.0 if psi(1.0) >= 0 else brentq(psi, 1e-300, 1.0, xtol=1e-300, rtol=1e-15)
    kinks = [brentq(lambda u: psi(u) - t, 1e-300, u1, xtol=1e-300, rtol=1e-15)
             for t in z.tops if psi(1e-300) > t > psi(u1)]
    # psi ~ -sigma log u near u = 0; decades keep QUADPACK's extrapolation
    # out of roundoff there
    points = sorted(kinks + [u1 * 10.0 ** -k for k in range(1, 16)])

    @functools.lru_cache(maxsize=None)
    def rows(u):
        v = max(psi(u), 0.0)
        x1 = float(d1.isf(u))
        cdf, pdf = (float(c) for c in z.law(np.array(v), density=True))
        return np.concatenate([[(x1 - v) * cdf], _grad_psi_of_u(p, u) * ((x1 - v) * pdf - cdf)])

    with warnings.catch_warnings():
        # a row that cancels to 0 warns of roundoff
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = np.array([integrate.quad(lambda u: rows(u)[i], 0.0, u1, points=points,
                                       epsabs=1e-15, epsrel=1e-13, limit=500)[0]
                        for i in range(4)])
    if u1 < 1:
        # the clearing boundary moves: atom0 x1 / (d psi/du) at u1
        x1 = float(d1.isf(u1))
        out[1:] += _grad_psi_of_u(p, u1) * z.atom0 * x1 * u1 ** (1 + p.xi) \
            / ((1 - p.xi) * p.sigma)
    return out


@st.composite
def bsp_params(draw):
    """GPParams over BSP_BOX; a third of the draws take xi log-uniform in [-3, -1e-6]."""
    (mu_lo, mu_hi), (sg_lo, sg_hi), (xi_lo, xi_hi) = BSP_BOX
    if draw(st.integers(0, 2)) == 0:
        xi = -10.0 ** draw(st.floats(np.log10(-xi_hi), np.log10(-xi_lo)))
    else:
        xi = draw(st.floats(xi_lo, xi_hi))
    return dist.GPParams(draw(st.floats(mu_lo, mu_hi)), draw(st.floats(sg_lo, sg_hi)), xi)


class _PanelCounter:
    """Panels per _quad.integrate call, counted through _quad._panels."""

    def __init__(self):
        self.panels = []
        self._panels = _quad._panels

    def __call__(self, f, lo, hi, nodes, weights, cuts=()):
        self.panels[-1] += lo.size
        return self._panels(f, lo, hi, nodes, weights, cuts)

    def run(self, fn, *args):
        self.panels.append(0)
        with mock.patch.object(_quad, "_panels", self):
            return fn(*args)


class TestBSPInLogU:
    @settings(max_examples=50, deadline=None)
    @given(bsp_params())
    def test_matches_quad_in_u(self, p):
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(2))
        counter = _PanelCounter()
        got = np.concatenate([[counter.run(payoff.bsp_payoff, u, p, z)],
                              counter.run(payoff.bsp_payoff_gradient, u, p, z)])
        ref = _bsp_oracle(u, p, z)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert max(counter.panels) <= 1000

    def test_sobol_box_is_two_integrand_calls(self, monkeypatch):
        # one integral each for the payoff and the gradient, each resolved in
        # the integrand call that evaluates its segments and their halves
        calls = []
        integrate = _quad.integrate

        def counted(f, *args, **kwargs):
            calls.append(0)

            def g(x):
                calls[-1] += 1
                return f(x)
            return integrate(g, *args, **kwargs)
        monkeypatch.setattr(_quad, "integrate", counted)
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(2))
        lo, hi = np.array(BSP_BOX).T
        for x in qmc.scale(qmc.Sobol(3, scramble=True, seed=0).random(16), lo, hi):
            p = dist.GPParams(*map(float, x))
            calls.clear()
            payoff.bsp_payoff(u, p, z)
            payoff.bsp_payoff_gradient(u, p, z)
            assert calls == [1, 1]

    @settings(max_examples=100, deadline=None)
    @given(bsp_params(), st.sampled_from(["uniform", "gp"]), st.booleans())
    @example(dist.GPParams(0.46875, 0.46875, -0.1), "gp", False)  # payoffs 7.9e-12 apart
    def test_payoff_and_gradient_match_their_own_functions(self, p, rivals, point_mass):
        # one 4-row integral against a 1-row and a 3-row one: the stacked rows
        # refine their panels together, so a row and its own function are each
        # within the quadrature's tolerance of the integral, not bit for bit
        u = dist.make_uniform()
        models = uniforms(2) if rivals == "uniform" else [dist.make_gp(0.0, 0.5, -0.3)] * 2
        z = payoff.competition_distribution(models)
        value, grad = payoff.bsp_payoff_and_gradient(u, p, z, include_point_mass=point_mass)
        assert isinstance(value, float) and grad.shape == (3,)
        want = np.concatenate([[payoff.bsp_payoff(u, p, z)],
                               payoff.bsp_payoff_gradient(u, p, z, include_point_mass=point_mass)])
        tol = np.maximum(_quad._ABS_TOL, _quad._REL_TOL * np.abs(want))
        assert np.all(np.abs(np.concatenate([[value], grad]) - want) <= 2 * tol)

    def test_stacked_and_lone_payoffs_are_both_within_tolerance_of_quad(self):
        # the pinned draw above: bsp_payoff is 8.0e-12 relative off scipy quad,
        # the stacked payoff row 3.2e-14
        u = dist.make_uniform()
        p = dist.GPParams(0.46875, 0.46875, -0.1)
        z = payoff.competition_distribution([dist.make_gp(0.0, 0.5, -0.3)] * 2)
        ref = _bsp_oracle(u, p, z)[0]
        for value in (payoff.bsp_payoff_and_gradient(u, p, z, include_point_mass=False)[0],
                      payoff.bsp_payoff(u, p, z)):
            assert abs(value - ref) <= max(_quad._ABS_TOL, _quad._REL_TOL * abs(ref))

    def test_worst_gradient_matches_central_differences(self):
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(2))
        p = np.array([0.0872, 0.0888, -0.0026])
        analytic = payoff.bsp_payoff_gradient(u, dist.GPParams(*p), z)
        step = 1e-5
        fd = [(payoff.bsp_payoff(u, dist.GPParams(*(p + step * e)), z)
               - payoff.bsp_payoff(u, dist.GPParams(*(p - step * e)), z)) / (2 * step)
              for e in np.eye(3)]
        np.testing.assert_allclose(analytic, fd, rtol=0, atol=2e-6)

    def test_maximize_from_rounded_argmax(self):
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(2))
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0859, 0.0880, -0.0551), BSP_BOX,
                               restarts=0)
        assert res.value == pytest.approx(0.130718, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(bsp_params(), st.floats(-2.0, 5.0))
    def test_s_at_virtual_inverts_psi(self, p, t):
        s = payoff._gp_s_at_virtual(p, t)
        top = p.mu - p.sigma / p.xi
        if t >= top:
            assert s == np.inf
        else:
            assert payoff._gp_virtual_of_s(p, s) == pytest.approx(t, abs=1e-12 * max(1.0, top))

    def test_s_at_virtual_exponential(self):
        p = dist.GPParams(0.2, 0.5, 0.0)
        s = payoff._gp_s_at_virtual(p, 0.7)
        assert s == pytest.approx(2.0)
        assert payoff._gp_virtual_of_s(p, s) == pytest.approx(0.7, abs=1e-15)

    def test_unbounded_value_law(self):
        # x1 = isf(u) stays finite down to u = e^-700, where quantile(1 - u)
        # is inf: the payoff read inf and the gradient NaN
        d1 = dist.make_gp(0.0, 1.0, 0.0)
        z = payoff.competition_distribution(uniforms(2))
        p = dist.GPParams(0.1, 0.5, -0.5)
        got = np.concatenate([[payoff.bsp_payoff(d1, p, z)],
                              payoff.bsp_payoff_gradient(d1, p, z)])
        assert np.all(np.isfinite(got))
        ref = _bsp_oracle(d1, p, z)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
        x = np.array([p.mu, p.sigma, p.xi])
        step = 1e-5
        fd = [(payoff.bsp_payoff(d1, dist.GPParams(*(x + step * e)), z)
               - payoff.bsp_payoff(d1, dist.GPParams(*(x - step * e)), z)) / (2 * step)
              for e in np.eye(3)]
        np.testing.assert_allclose(got[1:], fd, rtol=0, atol=1e-8)

    def test_clearing_region_out_of_reach(self):
        # psi stays below its top mu - sigma/xi = -0.1 < 0: the bidder never clears
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(2))
        p = dist.GPParams(-0.6, 0.5, -1.0)
        assert payoff.bsp_payoff(u, p, z) == 0.0
        assert not np.any(payoff.bsp_payoff_gradient(u, p, z))


def test_one_minus_exp_with_slope_to_fifty_digits():
    ws = -np.concatenate([np.logspace(-8, np.log10(740.0), 600),
                          np.linspace(9e-4, 1.2e-3, 61), [1e-3, np.nextafter(1e-3, 1.0)]])
    got = payoff._one_minus_exp_with_slope(ws, np.exp(ws), np.expm1(ws))
    with localcontext() as ctx:
        ctx.prec = 50
        for w, g in zip(ws, got):
            d = Decimal(float(w))
            ref = 1 - d.exp() * (1 - d)
            assert abs((Decimal(float(g)) - ref) / ref) <= Decimal("1e-12"), w


# references: the masked-series form, which evaluated the Taylor series on
# every point and dropped it where |w| >= 1e-3, and the gradient rows that
# took exp(w) three times and expm1(w) twice
def _ref_one_minus_exp_with_slope(w):
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-3
    ws = np.where(small, w, 0.0)
    series = ws ** 2 / 2 + ws ** 3 / 3 + ws ** 4 / 8 + ws ** 5 / 30 + ws ** 6 / 144
    return np.where(small, series, -np.expm1(w) + w * np.exp(w))


def _ref_grad_psi_of_s(p, s):
    s = np.asarray(s, dtype=float)
    w = p.xi * s
    g_sigma = np.expm1(w) / p.xi - np.exp(w)
    g_xi = (p.sigma / p.xi ** 2) * (_ref_one_minus_exp_with_slope(w) - p.xi * w * np.exp(w))
    return np.stack([np.ones_like(s), g_sigma, g_xi])


_SMALL_W = st.one_of(st.floats(-1e-3, 1e-3, exclude_min=True, exclude_max=True),
                     st.sampled_from([0.0, -0.0, -np.nextafter(1e-3, 0.0), -1e-3]))
_LARGE_W = st.floats(-740.0, -1e-3)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(_SMALL_W, _LARGE_W), max_size=50),  # mixed, or empty
    st.lists(_SMALL_W, min_size=1, max_size=50),
    st.lists(_LARGE_W, min_size=1, max_size=50),
    st.builds(np.float64, st.one_of(_SMALL_W, _LARGE_W))))  # 0-d
def test_one_minus_exp_with_slope_is_byte_equal_to_the_reference(ws):
    w = np.asarray(ws, dtype=float)
    want = _ref_one_minus_exp_with_slope(w)
    got = payoff._one_minus_exp_with_slope(w, np.exp(w), np.expm1(w))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(0.01, 3.0), st.floats(-20.0, -1e-6),
       st.one_of(st.lists(st.floats(0.0, 700.0), max_size=40),
                 st.floats(0.0, 700.0).map(lambda s: [s]),  # the point-mass [s0] call
                 st.floats(0.0, 700.0).map(np.float64),  # 0-d
                 st.sampled_from([[0.0], [-0.0], [0.0, -0.0], 0.0, -0.0])))
def test_grad_psi_of_s_is_byte_equal_to_the_reference(mu, sigma, xi, s):
    p = dist.GPParams(mu, sigma, xi)
    want = _ref_grad_psi_of_s(p, s)
    got = payoff._grad_psi_of_s(p, s)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSerialization:
    def test_payoff_estimate_json(self):
        est = payoff.PayoffEstimate(mean=0.1, std_error=0.01, rounds=10,
                                    per_bidder=(0.1,), seller_revenue=0.5)
        assert est.to_json() == {"mean": 0.1, "se": 0.01, "rounds": 10,
                                 "per_bidder": [0.1], "seller_revenue": 0.5}
