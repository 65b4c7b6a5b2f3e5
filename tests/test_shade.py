import gc
import tracemalloc

import numpy as np
import pytest

from shadecraft import dist, shade
from shadecraft._quad import integrate
from shadecraft.errors import ConfigError, InvalidParams, NonMonotone, NonRegular


@pytest.fixture
def uniform():
    return dist.make_uniform()


class TestLinearShading:
    def test_identity(self, uniform):
        s = shade.linear_shading(uniform, 1.0)
        xs = np.linspace(0.05, 0.95, 20)
        np.testing.assert_allclose(s.virtualized_bid(xs), uniform.virtual_value(xs))

    def test_virtualized_bid(self, uniform):
        s = shade.linear_shading(uniform, 0.5)
        assert s.virtualized_bid(0.75) == pytest.approx(0.25)

    def test_induced_hazard(self, uniform):
        s = shade.linear_shading(uniform, 0.5)
        assert s.bid_distribution().hazard_rate(0.25) == pytest.approx(4.0)

    def test_alpha_out_of_range(self, uniform):
        for alpha in (0.0, -0.2, 1.5):
            with pytest.raises(InvalidParams):
                shade.linear_shading(uniform, alpha)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_grid_bid_law_is_the_exact_push_forward(self, alpha):
        # a grid law's bid law alpha X: knots alpha x and density f(x)/alpha,
        # with no table of alpha x in between
        xs = np.linspace(0.0, 1.0, 129)
        base = dist.make_grid(xs, xs, np.ones_like(xs))
        g = base.default_grid()
        law = shade.linear_shading(base, alpha).bid_distribution()
        assert law.knots.tobytes() == (alpha * g).tobytes()
        assert law.pdf_values.tobytes() == (base.pdf(g) / alpha).tobytes()


class TestGammaFromTarget:
    def test_identity_target(self, uniform):
        # oracle: E[X | X >= x] for uniform is (1 + x)/2, via quadrature
        g = shade.gamma_from_target(uniform, lambda x: np.asarray(x, dtype=float))
        for x in (0.0, 0.3, 0.7):
            oracle = integrate(lambda t: t, x, 1.0) / (1 - x)
            assert oracle == pytest.approx((1 + x) / 2, abs=1e-12)
            assert g(x) == pytest.approx(oracle, abs=1e-9)

    def test_scaled_target(self, uniform):
        g = shade.gamma_from_target(uniform, lambda x: 2 * np.asarray(x, dtype=float) / 3)
        assert g(1.0) == pytest.approx(2 / 3, abs=1e-10)
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(g(xs), (1 + xs) / 3, atol=1e-9)

    def test_shifted_target(self, uniform):
        c = 0.2
        g = shade.gamma_from_target(uniform, lambda x: np.asarray(x, dtype=float) - c)
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(g(xs), (1 + xs) / 2 - c, atol=1e-9)

    def test_ode_residual(self, uniform):
        # gamma(x) + gamma'(x)(psi(x) - x) - h(x) small in sup-norm on the interior
        h = lambda x: np.asarray(x, dtype=float) ** 2 + 0.1
        g = shade.gamma_from_target(uniform, h)
        xs = np.linspace(0.01, 0.98, 400)
        resid = g(xs) + g.derivative(xs) * (uniform.virtual_value(xs) - xs) - h(xs)
        assert np.abs(resid).max() < 1e-5

    def test_rejects_decreasing_target(self, uniform):
        with pytest.raises(NonMonotone):
            shade.gamma_from_target(uniform, lambda x: -np.asarray(x, dtype=float))


class TestFirstPriceBid:
    def test_uniform_k3(self, uniform):
        # oracle: int_0^x y 2y dy / x^2 = 2x/3
        b = shade.first_price_bid(uniform, 3)
        for x in (0.2, 0.6, 1.0):
            oracle = integrate(lambda t: t * 2 * t, 0, x) / x ** 2
            assert b(x) == pytest.approx(oracle, abs=1e-9)
        assert b(0.6) == pytest.approx(0.4, abs=1e-9)

    def test_uniform_k2(self, uniform):
        b = shade.first_price_bid(uniform, 2)
        xs = np.linspace(0.05, 1.0, 30)
        np.testing.assert_allclose(b(xs), xs / 2, atol=1e-9)

    def test_lower_endpoint_limit(self):
        m = dist.make_gp(0, 2, -0.5)
        b = shade.first_price_bid(m, 4)
        assert b(0.0) == pytest.approx(0.0, abs=1e-12)
        assert b(1e-3) == pytest.approx(0.0, abs=1e-2)

    def test_below_value(self, uniform):
        b = shade.first_price_bid(uniform, 5)
        xs = np.linspace(0.01, 1.0, 50)
        assert np.all(b(xs) < xs)


class TestFirstPriceTableIsShared:
    """One first-price table per (model object, K), built once and shared
    read-only; a build that raises is built, and raises, again."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        panel_integrals = shade._quad.panel_integrals
        monkeypatch.setattr(shade._quad, "panel_integrals",
                            lambda *a: calls.append(1) or panel_integrals(*a))
        return calls

    def test_equilibrium_and_first_price_share_one_table(self, uniform, builds):
        eq = shade.equilibrium_shading(uniform, 3)
        assert len(builds) == 2  # the first-price table and gamma
        table = shade.first_price_bid(uniform, 3)
        assert table is eq._target
        assert shade.first_price_bid(uniform, 3) is table
        assert len(builds) == 2
        for array in (table.knots, table.values):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_new_model_or_k_builds_anew(self, uniform, builds):
        table = shade.first_price_bid(uniform, 3)
        other = shade.first_price_bid(dist.make_uniform(), 3)
        assert other is not table and shade.first_price_bid(uniform, 4) is not table
        assert len(builds) == 3
        np.testing.assert_array_equal(other.values, table.values)

    def test_failed_build_is_not_kept(self, builds):
        m = dist.make_gp(0, 1, -0.2)
        for n in (1, 2):
            with pytest.raises(NonMonotone):
                shade.first_price_bid(m, 3)
            assert len(builds) == n
        with pytest.raises(NonMonotone):
            shade.equilibrium_shading(m, 3)
        assert len(builds) == 3


def _traced_build(build):
    """(peak, held, result): build()'s peak traced allocation above its start
    and what is still allocated after it returns, in bytes, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held, result


def test_table_builds_run_in_bounded_working_memory():
    # quadrature evaluates the integrand a block of 512 intervals at a time,
    # so neither build holds a temporary of all 20,470 nodes: the peaks read
    # 1,236 KB in one integrand call and 526 KB in blocks. What a build
    # keeps is its table (~150 KB)
    shade.first_price_bid(dist.make_gp(0.0, 1.0, -0.5), 3)  # first-use costs
    model = dist.make_gp(0.0, 1.0, -0.5)
    peak, held, table = _traced_build(lambda: shade.first_price_bid(model, 3))
    assert peak <= 700e3 and held <= 200e3 and table.knots.size == 2048
    peak, held, _ = _traced_build(lambda: shade.gamma_from_target(model, table))
    assert peak <= 700e3 and held <= 200e3


class TestEquilibriumShading:
    def test_uniform_k3_closed_form(self, uniform):
        eq = shade.equilibrium_shading(uniform, 3)
        xs = np.linspace(0, 1, 21)
        np.testing.assert_allclose(eq.bid(xs), (1 + xs) / 3, atol=1e-9)
        assert eq.bid(1.0) == pytest.approx(2 / 3, abs=1e-9)

    def test_bid_above_value_at_zero(self, uniform):
        eq = shade.equilibrium_shading(uniform, 3)
        assert eq.bid(0.0) == pytest.approx(1 / 3, abs=1e-9)

    def test_defining_equation(self, uniform):
        eq = shade.equilibrium_shading(uniform, 3)
        beta_i = shade.first_price_bid(uniform, 3)
        xs = np.linspace(0, 1, 100)
        bd = eq.bid_distribution()
        resid = bd.virtual_value_clamped(eq.bid(xs)) - beta_i(xs)
        assert np.abs(resid).max() < 1e-5
        assert bd.is_regular

    def test_gp_base(self):
        m = dist.make_gp(0, 1, -0.5)
        eq = shade.equilibrium_shading(m, 4)
        xs = np.linspace(0, m.grid_upper(), 200)
        bd = eq.bid_distribution()
        resid = bd.virtual_value_clamped(eq.bid(xs)) - shade.first_price_bid(m, 4)(xs)
        assert np.abs(resid).max() < 1e-5

    @pytest.mark.parametrize("model", [
        lambda: dist.make_gp(-0.5, 1.0, -1.0),
        lambda: dist.make_grid(np.linspace(-0.5, 0.5, 101), np.linspace(0.0, 1.0, 101)),
    ], ids=["gp", "grid"])
    def test_value_law_below_zero_is_refused(self, model):
        # there the first-price bid, her virtualized bid, is negative and never wins
        with pytest.raises(InvalidParams, match="starts at >= 0"):
            shade.equilibrium_shading(model(), 3)

    @pytest.mark.parametrize("model", [lambda: dist.make_gp(-0.0, 1.0, -1.0), dist.make_uniform],
                             ids=["gp-minus-zero", "uniform"])
    def test_value_law_from_zero_builds(self, model):
        assert shade.equilibrium_shading(model(), 3).bid(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_non_regular_value_law_is_refused(self):
        # two density bumps on 400 knots: psi falls between them
        xs = np.linspace(0.0, 1.0, 400)
        pdf = 0.2 + 4.0 * np.exp(-200 * (xs - 0.3) ** 2) + 4.0 * np.exp(-200 * (xs - 0.7) ** 2)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
        m = dist.make_grid(xs, cdf / cdf[-1], pdf / cdf[-1])
        with pytest.raises(NonRegular, match="requires a regular value distribution"):
            shade.equilibrium_shading(m, 3)


class TestOneVsUniform:
    def test_closed_form_k4(self, uniform):
        s = shade.one_vs_uniform_shading(uniform, 4)
        assert s.bid(1.0) == pytest.approx(0.75 * ((1 + 1) / 2 - 1 / 3), abs=1e-6)
        assert s.bid(0.0) == pytest.approx(1 / 6, abs=1e-6)

    def test_branch_continuity(self, uniform):
        s = shade.one_vs_uniform_shading(uniform, 4)
        # both branches of the closed form meet at x = 1/3 with value 1/4
        upper = (3 / 4) * ((1 + 1 / 3) / 2 - 1 / 3)
        lower = (1 / (1 - 1 / 3)) * (4 - 2) ** 2 / (2 * 3 * 4)
        assert upper == pytest.approx(0.25)
        assert lower == pytest.approx(0.25)
        assert s.bid(1 / 3) == pytest.approx(0.25, abs=1e-6)

    def test_closed_form_profile(self, uniform):
        k = 4
        s = shade.one_vs_uniform_shading(uniform, k)
        xs = np.linspace(0, 1, 41)
        hi = xs >= 1 / (k - 1)
        expect = np.where(hi, ((k - 1) / k) * (0.5 * (1 + xs) - 1 / (k - 1)),
                          ((k - 2) ** 2 / (2 * (k - 1) * k)) / (1 - np.clip(xs, None, 0.999)))
        np.testing.assert_allclose(s.bid(xs), expect, atol=2e-6)

    def test_virtualized_bid_strictly_positive(self, uniform):
        s = shade.one_vs_uniform_shading(uniform, 3, eps=1e-4)
        xs = np.linspace(0.001, 0.999, 500)
        assert np.all(s.virtualized_bid(xs) > 0)

    def test_support_violation(self):
        wide = dist.make_gp(0, 4, -1)  # support [0, 4] exceeds (k+1)/(k-1)
        with pytest.raises(InvalidParams):
            shade.one_vs_uniform_shading(wide, 4)

    def test_eps_zero_rejected_on_full_support(self, uniform):
        with pytest.raises(InvalidParams):
            shade.one_vs_uniform_shading(uniform, 4, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, uniform, eps):
        with pytest.raises(InvalidParams, match="eps"):
            shade.one_vs_uniform_shading(uniform, 4, eps=eps)


class TestGPReparam:
    def test_identity_map(self, uniform):
        s = shade.gp_reparam_shading(uniform, dist.GPParams(0, 1, -1))
        xs = np.linspace(0, 1, 21)
        np.testing.assert_allclose(s.bid(xs), xs, atol=1e-12)

    def test_scaled_map(self, uniform):
        s = shade.gp_reparam_shading(uniform, dist.GPParams(0, 1 / 3, -1))
        xs = np.linspace(0, 1, 21)
        np.testing.assert_allclose(s.bid(xs), xs / 3, atol=1e-12)

    def test_bid_distribution_ks(self, uniform):
        params = dist.GPParams(0.1, 0.5, -0.6)
        s = shade.gp_reparam_shading(uniform, params)
        target = dist.GPDistribution(params)
        n = 10 ** 5
        bids = np.sort(s.bid(uniform.sample(n, seed=9)))
        d = np.abs(np.arange(1, n + 1) / n - target.cdf(bids)).max()
        assert d < 0.01


class TestGPSimpleVsUniform:
    def test_slope(self):
        s = shade.gp_simple_vs_uniform(1.0, -1.0, 2)
        assert s.alpha == pytest.approx(1 / 3)

    def test_bid_distribution(self):
        s = shade.gp_simple_vs_uniform(1.0, -1.0, 2)
        bd = s.bid_distribution()
        assert bd.params == dist.GPParams(0.0, 1 / 3, -1.0)
        n = 10 ** 5
        bids = np.sort(s.bid(s.base.sample(n, seed=21)))
        d = np.abs(np.arange(1, n + 1) / n - bd.cdf(bids)).max()
        assert d < 0.01

    def test_virtualized_bid(self):
        s = shade.gp_simple_vs_uniform(1.0, -1.0, 2)
        assert s.virtualized_bid(0.75) == pytest.approx((0.75 - 0.5) / 1.5, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(InvalidParams):
            shade.gp_simple_vs_uniform(1.0, -1.0, 3)


class TestStrategyInvariants:
    @pytest.mark.parametrize("make", [
        lambda u: shade.linear_shading(u, 0.4),
        lambda u: shade.equilibrium_shading(u, 3),
        lambda u: shade.one_vs_uniform_shading(u, 4),
        lambda u: shade.gp_reparam_shading(u, dist.GPParams(0, 0.5, -0.8)),
    ])
    def test_bid_strictly_increasing(self, uniform, make):
        s = make(uniform)
        xs = np.linspace(0, 1, 1000)
        assert np.all(np.diff(s.bid(xs)) > 0)

    def test_config_roundtrip(self, uniform):
        for cfg in ({"kind": "truthful"}, {"kind": "linear", "alpha": 0.7},
                    {"kind": "equilibrium", "k": 3},
                    {"kind": "one-vs-uniform", "k": 4, "eps": 1e-6},
                    {"kind": "gp-reparam", "mu": 0.0, "sigma": 0.5, "xi": -1.0}):
            s = shade.strategy_from_config(cfg, uniform)
            assert isinstance(s, shade.ShadingStrategy)

    def test_unknown_config(self, uniform):
        with pytest.raises(InvalidParams):
            shade.strategy_from_config({"kind": "nope"}, uniform)

    @pytest.mark.parametrize("cfg,field", [
        ({"kind": "linear"}, "alpha"),
        ({"kind": "linear", "alpha": "half"}, "alpha"),
        ({"kind": "equilibrium"}, "k"),
        ({"kind": "equilibrium", "k": 2.5}, "k"),
        ({"kind": "one-vs-uniform", "k": "4"}, "k"),
        ({"kind": "one-vs-uniform", "k": 4, "eps": [1e-6]}, "eps"),
        ({"kind": "gp-reparam", "mu": 0.0, "sigma": 0.5}, "xi"),
        ({"kind": "linear", "alpha": True}, "alpha"),
        ({"kind": "equilibrium", "k": True}, "k"),
        ({"kind": "one-vs-uniform", "k": 4, "eps": "1e-3"}, "eps"),
    ])
    def test_bad_field_is_named(self, uniform, cfg, field):
        with pytest.raises(ConfigError, match=rf"^{field}\b"):
            shade.strategy_from_config(cfg, uniform)
