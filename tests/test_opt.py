import numpy as np
import pytest

from shadecraft import dist, opt, payoff
from shadecraft.errors import InvalidParams


def uniforms(k):
    return [dist.make_uniform() for _ in range(k)]


class TestMaximizeScalar:
    def test_quadratic(self):
        res = opt.maximize_scalar(lambda a: -(a - 0.3) ** 2, 0.0, 1.0, tol=1e-8)
        assert res.argmax == pytest.approx(0.3, abs=1e-6)
        assert res.converged

    def test_invalid_bracket(self):
        with pytest.raises(InvalidParams):
            opt.maximize_scalar(lambda a: a, 1.0, 0.0)
        with pytest.raises(InvalidParams):
            opt.maximize_scalar(lambda a: a, 0.0, 1.0, tol=0.0)

    def test_k2_payoff_maximized_at_lower_bound(self):
        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(1))
        res = opt.maximize_scalar(lambda a: payoff._myerson_linear_payoff(u, z, a),
                                  0.01, 1.0, tol=1e-6)
        assert res.argmax == pytest.approx(0.01, abs=1e-6)

    def test_k6_matches_brute_force_grid(self):
        # brute-force oracle: vectorized trapezoid evaluation of the closed
        # integrand on a 10^4-point alpha grid
        k = 6
        xs = np.linspace(0.5, 1.0, 4001)
        alphas = np.linspace(0.01, 1.0, 10 ** 4)
        psi = 2 * xs - 1
        h = alphas[:, None] * psi[None, :]
        vals = np.trapezoid((xs[None, :] - h) * ((h + 1) / 2) ** (k - 1), xs, axis=1)
        brute_best = alphas[np.argmax(vals)]
        brute_val = vals.max()

        u = dist.make_uniform()
        z = payoff.competition_distribution(uniforms(k - 1))
        res = opt.maximize_scalar(lambda a: payoff._myerson_linear_payoff(u, z, a),
                                  0.01, 1.0, tol=1e-8)
        assert res.argmax == pytest.approx(brute_best, abs=1e-4)
        assert res.value == pytest.approx(brute_val, abs=1e-4)

    def test_dominates_evaluated_candidates(self):
        rng = np.random.default_rng(5)
        bumps = lambda a: np.sin(7 * a) + 0.5 * np.cos(3 * a)
        res = opt.maximize_scalar(bumps, 0.0, 3.0, tol=1e-10)
        samples = rng.uniform(0, 3, 1000)
        assert res.value >= bumps(samples).max() - 1e-6


@pytest.fixture(scope="module")
def setup():
    u = dist.make_uniform()
    z = payoff.competition_distribution(uniforms(2))
    return u, z


BOX = ((0.0, 0.5), (0.05, 1.5), (-3.0, -1e-6))


class TestMaximizeBSP:

    def test_improves_on_truthful(self, setup):
        u, z = setup
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0, 0.5, -0.5),
                               bounds=((0.0, 0.5), (0.05, 1.5), (-3.0, -1e-6)),
                               restarts=2, max_iter=60, seed=1)
        truthful = payoff.bsp_payoff(u, dist.GPParams(0.0, 1.0, -1.0), z)
        assert res.value >= truthful

    def test_bounds_respected(self, setup):
        u, z = setup
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0, 0.5, -0.5),
                               bounds=((0.0, 0.5), (0.05, 1.5), (-3.0, -1e-6)),
                               restarts=1, max_iter=30, seed=2)
        p = res.argmax
        assert 0.0 <= p.mu <= 0.5
        assert 0.05 <= p.sigma <= 1.5
        assert -3.0 <= p.xi <= -1e-6

    def test_dominates_random_sample(self, setup):
        u, z = setup
        bounds = ((0.0, 0.5), (0.05, 1.5), (-3.0, -1e-6))
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0, 0.5, -0.5), bounds,
                               restarts=2, max_iter=120, seed=3)
        rng = np.random.default_rng(12)
        best_random = -np.inf
        for _ in range(1000):
            p = dist.GPParams(*[rng.uniform(lo, hi) for lo, hi in bounds])
            best_random = max(best_random, payoff.bsp_payoff(u, p, z))
        assert res.value >= best_random - 1e-6

    def test_stationary_start_converges_immediately(self, setup):
        u, z = setup
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0, 1 / 3, -1.0),
                               bounds=((0.0, 0.0), (0.05, 1.5), (-3.0, -1e-6)),
                               restarts=0, include_point_mass=False, seed=4)
        assert res.converged
        assert res.argmax.sigma == pytest.approx(1 / 3, abs=1e-9)
        assert res.argmax.xi == pytest.approx(-1.0, abs=1e-9)

    def test_budget_stop_is_not_converged(self, setup):
        u, z = setup
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0, 0.5, -0.5), BOX,
                               restarts=0, max_iter=1)
        assert res.converged is False

    def test_reaches_argmax(self, setup):
        u, z = setup
        res = opt.maximize_bsp(u, z, dist.GPParams(0.0, 0.5, -0.5), BOX,
                               restarts=2, seed=1)
        assert res.converged
        assert res.value == pytest.approx(0.130718, abs=1e-6)
        np.testing.assert_allclose([res.argmax.mu, res.argmax.sigma, res.argmax.xi],
                                   [0.0859, 0.0880, -0.0551], atol=1e-3)

    @pytest.mark.parametrize("budget", [{"max_iter": 0}, {"restarts": -1}])
    def test_rejects_empty_budget(self, setup, budget):
        u, z = setup
        with pytest.raises(InvalidParams):
            opt.maximize_bsp(u, z, dist.GPParams(0.0, 0.5, -0.5), BOX, **budget)
