"""The scalar run_* outcomes against the vectorized Monte Carlo kernel.

Bids, reserves and quantile levels come from small discrete sets so that
ties occur often. Besides equal winners and payments, every outcome is
checked against a loop version of the rules (ties to the lowest index, no
sale exactly when no score clears), a round with no sale pays 0, and the
payment never exceeds the winner's bid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadecraft import dist, mech, payoff, shade
from shadecraft.errors import InvalidParams, OutOfSupport

LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
BOOSTS = (0.5, 1.0, 2.0)
QUANTILES = (0.0, 0.2, 0.5, 0.8, 0.95)
_XS = np.linspace(0.0, 1.0, 129)
MODELS = (
    dist.make_uniform(),
    dist.make_gp(0.0, 2.0, -0.5),
    dist.make_gp(0.1, 0.5, 0.0),
    dist.make_grid(_XS, 1.0 - (1.0 - _XS) ** 2, 2.0 * (1.0 - _XS)),  # Beta(1, 2)
)
KINDS = ("myerson", "vcg-lazy", "vcg-eager", "boosted-second-price",
         "first-price", "second-price")


@st.composite
def auctions(draw):
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(1, 4))
    if kind == "myerson":
        picks = draw(st.lists(st.tuples(st.sampled_from(MODELS), st.sampled_from(QUANTILES)),
                              min_size=k, max_size=k))
        bids = [float(m.quantile(q)) for m, q in picks]
        return bids, mech.MechanismConfig(kind, bid_models=tuple(m for m, _ in picks))
    bids = draw(st.lists(st.sampled_from(LEVELS), min_size=k, max_size=k))
    reserves = draw(st.lists(st.sampled_from(LEVELS), min_size=k, max_size=k))
    if kind == "boosted-second-price":
        boosts = draw(st.lists(st.sampled_from(BOOSTS), min_size=k, max_size=k))
        return bids, mech.MechanismConfig(kind, reserves=reserves, boosts=boosts)
    if kind == "first-price":
        return bids, mech.MechanismConfig(kind)
    if kind == "second-price":
        return bids, mech.MechanismConfig(kind, reserves=reserves[:1])
    return bids, mech.MechanismConfig(kind, reserves=reserves)


def run_scalar(bids, cfg):
    if cfg.kind == "myerson":
        return mech.run_myerson(bids, cfg)
    if cfg.kind == "vcg-lazy":
        return mech.run_vcg_lazy(bids, cfg.reserves)
    if cfg.kind == "vcg-eager":
        return mech.run_vcg_eager(bids, cfg.reserves)
    if cfg.kind == "boosted-second-price":
        return mech.run_bsp(bids, cfg.boosts, cfg.reserves)
    if cfg.kind == "first-price":
        return mech.run_first_price(bids)
    return mech.run_second_price(bids, cfg.reserves[0])


def reference(bids, cfg):
    """Loop version of the six rules: (winner or None, payment, scores or None).

    The winner is the lowest index with the top score among the bidders that
    may win, so ties go to the lowest index; there is no sale exactly when the
    winner's score does not clear.
    """
    b = [float(x) for x in bids]
    everyone = range(len(b))

    def top(vals, idx):
        return min(idx, key=lambda i: (-vals[i], i))

    def others(vals, idx, w):
        return [vals[j] for j in idx if j != w]

    if cfg.kind in ("myerson", "boosted-second-price"):
        if cfg.kind == "myerson":
            s = [float(m.virtual_value(x)) for m, x in zip(cfg.bid_models, b)]
        else:
            s = [bo * (x - r) for x, bo, r in zip(b, cfg.boosts, cfg.reserves)]
        w = top(s, everyone)
        if s[w] < 0:
            return None, 0.0, tuple(s)
        threshold = max([0.0] + others(s, everyone, w))
        if cfg.kind == "myerson":
            return w, float(cfg.bid_models[w].inverse_virtual_value(threshold)), tuple(s)
        return w, cfg.reserves[w] + threshold / cfg.boosts[w], tuple(s)
    if cfg.kind == "first-price":
        w = top(b, everyone)
        return w, b[w], None
    reserves = cfg.reserves * len(b) if cfg.kind == "second-price" else cfg.reserves
    # vcg-eager picks among the bidders clearing their reserves; vcg-lazy and
    # second price pick the highest bidder, who then must clear hers
    may_win = [i for i in everyone if b[i] >= reserves[i]] if cfg.kind == "vcg-eager" else everyone
    if not may_win:
        return None, 0.0, None
    w = top(b, may_win)
    if b[w] < reserves[w]:
        return None, 0.0, None
    return w, max([reserves[w]] + others(b, may_win, w)), None


@settings(max_examples=400, deadline=None)
@given(auctions())
def test_scalar_matches_kernel(auction):
    bids, cfg = auction
    out = run_scalar(bids, cfg)
    winner, pay = payoff._outcomes(np.asarray([bids], dtype=float), cfg)
    assert out.winner == (None if winner[0] < 0 else int(winner[0]))
    assert out.payment == float(pay[0])
    assert (out.winner, out.payment, out.virtualized_bids) == reference(bids, cfg)
    if out.winner is None:
        assert out.payment == 0.0
    else:
        bid = bids[out.winner]
        assert out.payment <= bid + 1e-12 * max(1.0, abs(bid))


@pytest.mark.parametrize("run", [
    lambda b: mech.run_vcg_lazy(b, [0.5, -0.1]),
    lambda b: mech.run_vcg_eager(b, [-0.1, 0.5]),
    lambda b: mech.run_bsp(b, [1.0, 1.0], [0.5, -0.1]),
    lambda b: mech.run_second_price(b, -0.1),
])
def test_negative_reserves_rejected(run):
    with pytest.raises(InvalidParams):
        run([0.3, 0.7])


def test_myerson_outside_support_rejected():
    cfg = mech.MechanismConfig("myerson", bid_models=(dist.make_uniform(), dist.make_uniform()))
    with pytest.raises(OutOfSupport):
        mech.run_myerson([0.5, 1.5], cfg)


TWO_BIDDERS = {
    "myerson": mech.MechanismConfig("myerson", bid_models=(dist.make_uniform(),) * 2),
    "vcg-lazy": mech.MechanismConfig("vcg-lazy", reserves=(0.0, 0.0)),
    "vcg-eager": mech.MechanismConfig("vcg-eager", reserves=(0.0, 0.0)),
    "boosted-second-price": mech.MechanismConfig("boosted-second-price", reserves=(0.0, 0.0),
                                                 boosts=(1.0, 1.0)),
    "first-price": mech.MechanismConfig("first-price"),
    "second-price": mech.MechanismConfig("second-price", reserves=(0.0,)),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bids", [[0.5, np.nan], [np.nan, 0.5]])
def test_nan_bids_rejected(kind, bids):
    # NaN compares false with every score, so no ranking of it is sound;
    # myerson's support check lets it through to the kernel
    cfg = TWO_BIDDERS[kind]
    with pytest.raises(InvalidParams):
        run_scalar(bids, cfg)
    with pytest.raises(InvalidParams):
        payoff._outcomes(np.array([[0.5, 0.25], bids]), cfg)


SCORES = (-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from(SCORES), min_size=k, max_size=k), min_size=1, max_size=30)))
def test_rank_matches_argmax_and_partition(rows):
    """`mech._rank` against the row-wise formulas it replaced, on (rounds, K)
    columns and on the rows of a (K, rounds) array. The second-highest score
    is compared by bytes except where it is zero: np.partition's pick between
    +0.0 and -0.0, which compare equal, follows its swap order."""
    w = np.array(rows)
    k = w.shape[1]
    winner = np.argmax(w, axis=1)
    best = w[np.arange(len(w)), winner]
    second = np.partition(w, -2, axis=1)[:, -2] if k > 1 else np.full(len(w), -np.inf)
    for cols in ([w[:, i] for i in range(k)], np.ascontiguousarray(w.T)):
        got_winner, got_best, got_second = mech._rank(cols)
        assert got_winner.dtype == winner.dtype
        assert got_winner.tobytes() == winner.tobytes()
        assert got_best.tobytes() == best.tobytes()
        assert np.array_equal(got_second, second)
        nonzero = second != 0
        assert got_second[nonzero].tobytes() == second[nonzero].tobytes()


def copyto_rank(cols):
    """`mech._rank` as it was written with one masked copy per output and
    column: the byte reference for the ufunc-only passes."""
    best = np.array(cols[0])
    winner = np.zeros(best.shape, dtype=np.intp)
    second = np.full(best.shape, -np.inf)
    for i in range(1, len(cols)):
        c = cols[i]
        better = c > best
        np.maximum(second, c, out=second)
        np.copyto(second, best, where=better)
        np.copyto(best, c, where=better)
        np.copyto(winner, i, where=better)
    return winner, best, second


@pytest.mark.parametrize("k", range(2, 7))
def test_rank_is_byte_equal_to_the_copyto_rank(k):
    # a whole chunk of rounds, so numpy's SIMD maximum and minimum loops run,
    # with signed zeros and infinities tying often
    w = np.random.default_rng(k).choice(np.array(SCORES), size=(k, 1 << 16))
    winner, best, second = copyto_rank(w)
    got_winner, got_best, got_second = mech._rank(w)
    assert got_winner.tobytes() == winner.tobytes()
    assert got_best.tobytes() == best.tobytes()
    assert np.array_equal(got_second, second)
    nonzero = second != 0
    assert got_second[nonzero].tobytes() == second[nonzero].tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 3])
def test_outcomes_on_transposed_rows_give_the_same_bytes(kind, k):
    """`_chunk_stats` passes the (rounds, K) transpose of one row per bidder;
    every kind must give the same bytes as on a C-ordered (rounds, K) array."""
    rng = np.random.default_rng(7)
    if kind == "myerson":
        models = MODELS[:k]
        rows = np.array([m.quantile(rng.choice(QUANTILES, size=4096)) for m in models])
        cfg = mech.MechanismConfig(kind, bid_models=models)
    else:
        rows = rng.choice(LEVELS, size=(k, 4096))
        cfg = mech.MechanismConfig(kind, reserves=(0.25, 0.5, 0.0)[:k],
                                   boosts=BOOSTS[:k] if kind == "boosted-second-price" else ())
    assert k == 1 or not rows.T.flags.c_contiguous
    for got, want in zip(payoff._outcomes(rows.T, cfg),
                         payoff._outcomes(np.ascontiguousarray(rows.T), cfg)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def own_second_price_branch(bids, cfg):
    """The kernel's second-price branch as it was written before second price
    became lazy VCG with one reserve: the byte reference for the fold."""
    reserve = cfg.reserves[0] if cfg.reserves else 0.0
    winner, best, second = mech._rank([bids[:, i] for i in range(bids.shape[1])])
    sale = best >= reserve
    payment = np.maximum(reserve, second)
    payment = np.where(sale, np.maximum(payment, 0.0), 0.0)
    return np.where(sale, winner, -1), payment


@pytest.mark.parametrize("reserves", [(0.0,), (0.4,), (), (0.4, 0.9, 0.0)],
                         ids=["0", "0.4", "none", "three"])
@pytest.mark.parametrize("k", [1, 3])
def test_second_price_is_lazy_vcg_with_its_first_reserve_bit_for_bit(reserves, k):
    # a whole chunk of rounds; bids tie each other and the reserve 0.4, and
    # take -0.0 and +-inf; only the first of three reserves counts
    levels = np.array([-np.inf, -1.0, -0.0, 0.0, 0.4, 0.5, 1.0, np.inf])
    rows = np.random.default_rng(k).choice(levels, size=(k, 1 << 16))
    cfg = mech.MechanismConfig("second-price", reserves=reserves)
    for bids in (rows.T, np.ascontiguousarray(rows.T)):
        for got, want in zip(mech._outcomes(bids, cfg), own_second_price_branch(bids, cfg)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Monte Carlo through the kernel branches the README configs never run
# ----------------------------------------------------------------------

def _truthful_uniform_mc(cfg, rounds=200_000, seed=2026):
    models = [dist.make_uniform() for _ in range(3)]
    strategies = [shade.truthful(m) for m in models]
    return payoff.payoff_monte_carlo(models, strategies, cfg, rounds, seed)


@pytest.mark.parametrize("cfg", [
    mech.MechanismConfig("second-price", reserves=(0.5,)),
    mech.MechanismConfig("vcg-eager", reserves=(0.5, 0.5, 0.5)),
    mech.fit_mechanism("boosted-second-price", [dist.make_uniform()] * 3),
], ids=["second-price", "vcg-eager", "bsp-fit"])
def test_monopoly_reserve_mc(cfg):
    # 3 truthful Unif[0,1] bidders against the monopoly reserve 1/2:
    # each bidder earns 11/192 and the seller 17/32
    est = _truthful_uniform_mc(cfg)
    for mean, se in zip(est.per_bidder, est.per_bidder_se):
        assert abs(mean - 11 / 192) < 3 * se
    assert abs(est.seller_revenue - 17 / 32) < 3 * est.seller_revenue_se


def test_first_price_truthful_mc():
    # truthful bidders pay their value: zero payoff, revenue E[max of 3] = 3/4
    est = _truthful_uniform_mc(mech.MechanismConfig("first-price"))
    assert est.per_bidder == (0.0, 0.0, 0.0)
    assert abs(est.seller_revenue - 3 / 4) < 3 * est.seller_revenue_se
