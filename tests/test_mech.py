import numpy as np
import pytest

from shadecraft import dist, mech, payoff, shade
from shadecraft.errors import InvalidParams, NonRegular


def uniform_models(k):
    return tuple(dist.make_uniform() for _ in range(k))


def bimodal_grid(n=257):
    """A non-regular law on [0, 1]: the density x (two bumps + 0.05), tabulated."""
    x = np.linspace(0.0, 1.0, n)
    f = x * (np.exp(-((x - 0.2) / 0.08) ** 2) + np.exp(-((x - 0.8) / 0.08) ** 2) + 0.05)
    cdf = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2 * np.diff(x))])
    return dist.make_grid(x, cdf / cdf[-1], f / cdf[-1])


@pytest.fixture
def myerson_cfg():
    return mech.MechanismConfig("myerson", bid_models=uniform_models(2))


class TestRunMyerson:
    def test_highest_virtual_wins(self, myerson_cfg):
        out = mech.run_myerson([0.8, 0.6], myerson_cfg)
        assert out.winner == 0
        assert out.virtualized_bids == pytest.approx((0.6, 0.2))
        assert out.payment == pytest.approx(0.6)

    def test_no_sale_below_reserve(self, myerson_cfg):
        out = mech.run_myerson([0.4, 0.3], myerson_cfg)
        assert out.winner is None
        assert out.payment == 0.0

    def test_zero_binds(self, myerson_cfg):
        out = mech.run_myerson([0.55, 0.45], myerson_cfg)
        assert out.winner == 0
        assert out.payment == pytest.approx(0.5)

    def test_non_regular_rejected(self):
        xs = np.linspace(0.0, 1.0, 400)
        pdf = 0.2 + 4.0 * np.exp(-200 * (xs - 0.3) ** 2) + 4.0 * np.exp(-200 * (xs - 0.7) ** 2)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
        m = dist.make_grid(xs, cdf / cdf[-1], pdf / cdf[-1])
        with pytest.raises(NonRegular):
            mech.MechanismConfig("myerson", bid_models=(m, dist.make_uniform()))


class TestRunVCG:
    def test_lazy_clears(self):
        out = mech.run_vcg_lazy([0.6, 0.4], [0.5, 0.5])
        assert (out.winner, out.payment) == (0, 0.5)

    def test_lazy_no_sale_when_top_misses(self):
        out = mech.run_vcg_lazy([0.6, 0.75], [0.5, 0.8])
        assert out.winner is None

    def test_lazy_zero_reserves_is_second_price(self):
        out = mech.run_vcg_lazy([0.3, 0.7], [0.0, 0.0])
        assert (out.winner, out.payment) == (1, 0.3)

    def test_eager_skips_to_clearer(self):
        out = mech.run_vcg_eager([0.6, 0.75], [0.5, 0.8])
        assert (out.winner, out.payment) == (0, 0.5)

    def test_eager_payment_includes_reserve(self):
        out = mech.run_vcg_eager([0.6, 0.85], [0.5, 0.8])
        assert (out.winner, out.payment) == (1, 0.8)

    def test_anonymous_reserves_coincide(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            bids = rng.uniform(0, 1, size=3).tolist()
            lazy = mech.run_vcg_lazy(bids, [0.5] * 3)
            eager = mech.run_vcg_eager(bids, [0.5] * 3)
            assert lazy == eager


class TestRunBSP:
    def test_boost_changes_winner(self):
        out = mech.run_bsp([0.8, 0.5], boosts=[2.0, 1.0], reserves=[0.5, 0.0])
        assert out.winner == 0
        assert out.payment == pytest.approx(0.75)

    def test_all_negative_no_sale(self):
        out = mech.run_bsp([0.1, 0.2], boosts=[1.0, 1.0], reserves=[0.5, 0.5])
        assert out.winner is None

    def test_matches_myerson_for_uniform(self):
        cfg = mech.MechanismConfig("myerson", bid_models=uniform_models(2))
        grid = np.linspace(0.005, 0.995, 50)
        for b0 in grid:
            for b1 in grid:
                bsp = mech.run_bsp([b0, b1], boosts=[2.0, 2.0], reserves=[0.5, 0.5])
                mye = mech.run_myerson([b0, b1], cfg)
                assert bsp.winner == mye.winner
                assert bsp.payment == pytest.approx(mye.payment, abs=1e-12)


class TestSimpleMechanisms:
    def test_first_price(self):
        out = mech.run_first_price([0.3, 0.7])
        assert (out.winner, out.payment) == (1, 0.7)

    def test_second_price_reserve(self):
        out = mech.run_second_price([0.6, 0.4], reserve=0.5)
        assert (out.winner, out.payment) == (0, 0.5)

    def test_second_price_equals_lazy_zero_reserves(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            bids = rng.uniform(0, 1, size=4).tolist()
            assert mech.run_second_price(bids, 0.0) == mech.run_vcg_lazy(bids, [0.0] * 4)


class TestFits:
    def test_monopoly_reserves_uniform(self):
        assert mech.fit_monopoly_reserves(uniform_models(2)) == pytest.approx((0.5, 0.5))

    def test_monopoly_reserve_is_gp_mean(self):
        m = dist.make_gp(0, 2, -0.5)
        assert mech.fit_monopoly_reserves([m])[0] == pytest.approx(m.mean())

    def test_monopoly_reserve_scales_with_shading(self):
        s = shade.linear_shading(dist.make_uniform(), 0.7)
        assert mech.fit_monopoly_reserves([s.bid_distribution()])[0] == pytest.approx(0.35)

    @pytest.mark.parametrize("refuse", [mech.fit_monopoly_reserves,
                                        payoff.competition_distribution])
    def test_bimodal_bid_law_is_refused_by_its_inverse_virtual_value(self, refuse):
        # the regularity check is the inverse virtual value's own NonRegular
        with pytest.raises(NonRegular):
            refuse([dist.make_uniform(), bimodal_grid()])

    def test_fit_gp_quantile_exponential_is_exact(self):
        # the bounded search stops short of its end xi = 0; the fit takes the end
        params, rmse = mech.fit_gp_quantile(dist.make_gp(0, 1, 0))
        assert params.xi == 0.0
        assert params.sigma == pytest.approx(1.0, rel=1e-12)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_fit_bsp_uniform_exact(self):
        boosts, reserves = mech.fit_bsp(uniform_models(1))
        assert boosts[0] == pytest.approx(2.0, abs=1e-8)
        assert reserves[0] == pytest.approx(0.5, abs=1e-8)

    def test_fit_bsp_scaled_gp(self):
        boosts, reserves = mech.fit_bsp([dist.make_gp(0, 1 / 3, -1)])
        assert boosts[0] == pytest.approx(2.0, abs=1e-8)
        assert reserves[0] == pytest.approx(1 / 6, abs=1e-8)

    def test_fit_bsp_triangular_grid(self):
        # triangular density peaked at 1/2; quantile LS fit should be finite
        xs = np.linspace(0.0, 1.0, 801)
        pdf = np.where(xs < 0.5, 4 * xs, 4 * (1 - xs))
        cdf = np.where(xs < 0.5, 2 * xs ** 2, 1 - 2 * (1 - xs) ** 2)
        cdf[0], cdf[-1] = 0.0, 1.0
        m = dist.make_grid(xs[1:-1], cdf[1:-1], pdf[1:-1])
        params, rmse = mech.fit_gp_quantile(m)
        assert np.isfinite(rmse) and rmse < 0.1
        boosts, reserves = mech.fit_bsp([m])
        assert boosts[0] > 0 and reserves[0] > 0
        assert np.isfinite(boosts[0]) and np.isfinite(reserves[0])


class TestMechanismInvariants:
    @pytest.mark.parametrize("k", [2, 3])
    def test_symmetric_myerson_is_second_price_with_monopoly_reserve(self, k):
        models = uniform_models(k)
        cfg = mech.MechanismConfig("myerson", bid_models=models)
        grid = np.linspace(0.005, 0.995, 100 if k == 2 else 22)
        for bids in np.stack(np.meshgrid(*[grid] * k), axis=-1).reshape(-1, k):
            mye = mech.run_myerson(bids.tolist(), cfg)
            sp = mech.run_second_price(bids.tolist(), reserve=0.5)
            assert mye.winner == sp.winner
            if mye.winner is not None:
                assert mye.payment == pytest.approx(sp.payment, abs=1e-12)

    def test_expected_payment_identity(self):
        # MC mean payment of bidder 0 matches E[psi(B_0) 1{0 wins}] within 3 SE
        models = uniform_models(3)
        cfg = mech.MechanismConfig("myerson", bid_models=models)
        rng = np.random.default_rng(2024)
        n = 20000
        payments = np.zeros(n)
        virtual_win = np.zeros(n)
        for r in range(n):
            bids = rng.uniform(0, 1, 3).tolist()
            out = mech.run_myerson(bids, cfg)
            if out.winner == 0:
                payments[r] = out.payment
                virtual_win[r] = out.virtualized_bids[0]
        diff = payments - virtual_win
        se = diff.std() / np.sqrt(n)
        assert abs(diff.mean()) < 3 * max(se, 1e-12)

    def test_no_sale_monotone_in_reserves(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            bids = rng.uniform(0, 1, 3).tolist()
            reserves = rng.uniform(0, 1, 3)
            bumped = reserves.copy()
            j = rng.integers(0, 3)
            bumped[j] += rng.uniform(0, 0.5)
            for runner in (mech.run_vcg_lazy, mech.run_vcg_eager):
                if runner(bids, reserves.tolist()).winner is None:
                    assert runner(bids, bumped.tolist()).winner is None
            if mech.run_bsp(bids, [1.0] * 3, reserves.tolist()).winner is None:
                assert mech.run_bsp(bids, [1.0] * 3, bumped.tolist()).winner is None


class TestConfigValidation:
    def test_negative_reserve_rejected(self):
        with pytest.raises(InvalidParams):
            mech.MechanismConfig("vcg-lazy", reserves=(-0.1, 0.2))

    def test_bad_boost_rejected(self):
        with pytest.raises(InvalidParams):
            mech.MechanismConfig("boosted-second-price", boosts=(0.0, 1.0),
                                 reserves=(0.0, 0.0))

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            mech.MechanismConfig("dutch")

    @pytest.mark.parametrize("run", [
        lambda bids: mech.run_vcg_lazy(bids, (np.nan, 0.0)),
        lambda bids: mech.run_vcg_eager(bids, (np.nan, 0.0)),
        lambda bids: mech.run_second_price(bids, np.nan)], ids=["lazy", "eager", "second"])
    def test_nan_reserve_rejected(self, run):
        with pytest.raises(InvalidParams, match="reserves"):
            run([0.9, 0.5])

    @pytest.mark.parametrize("boost", [np.inf, np.nan])
    def test_non_finite_boost_rejected(self, boost):
        with pytest.raises(InvalidParams, match="boosts"):
            mech.run_bsp([0.5, 0.4], (boost, 1.0), (0.5, 0.0))

    def test_infinite_reserve_never_sells(self):
        # +inf stays a valid reserve: that bidder never clears it
        assert mech.run_vcg_lazy([0.9, 0.5], (np.inf, 0.0)).winner is None
        assert mech.run_vcg_eager([0.9, 0.5], (np.inf, 0.0)) == mech.AuctionOutcome(1, 0.0)
        assert mech.run_second_price([0.9, 0.5], np.inf).winner is None

    def test_outcome_serialization(self):
        out = mech.run_first_price([0.2, 0.9])
        assert out.to_json() == {"winner": 1, "payment": 0.9}
