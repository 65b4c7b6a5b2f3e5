"""Monte Carlo per-bidder sums against the dense utility matrix.

`payoff._chunk_stats` sums each winner's gain with `np.bincount`, in round
order. The reference below is the dense version it replaced: a (rounds, K)
utility matrix, zero where a bidder did not win, summed down its columns.
Both must give the same bytes for every mechanism kind, with rounds that
make no sale, with K = 1, and through `payoff_monte_carlo` over several
chunks with one and two workers.
"""

import tracemalloc

import numpy as np
import pytest

from shadecraft import dist, mech, payoff, shade


def dense_chunk_stats(value_models, strategies, cfg, seed, chunk_index, size):
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)],
                   dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random((size, len(value_models)))
    values = np.column_stack([m.quantile(u[:, i]) for i, m in enumerate(value_models)])
    bids = np.column_stack([s.bid(values[:, i]) for i, s in enumerate(strategies)])
    winner, payment = mech._outcomes(bids, cfg)
    util = np.zeros_like(bids)
    sale = winner >= 0
    util[sale, winner[sale]] = values[sale, winner[sale]] - payment[sale]
    return util.sum(axis=0), (util ** 2).sum(axis=0), payment.sum(), (payment ** 2).sum()


def as_bytes(stats):
    return b"".join(np.asarray(s, dtype=float).tobytes() for s in stats)


def bidders(k, strategy):
    models = [dist.make_uniform() if i % 2 else dist.make_gp(0.1, 0.8, -0.5)
              for i in range(k)]
    return models, [strategy(m, k) for m in models]


def truthful(m, k):
    return shade.truthful(m)


def equilibrium(m, k):
    return shade.equilibrium_shading(m, k) if k > 1 else shade.truthful(m)


CASES = {
    "myerson": (3, equilibrium, lambda bm: mech.fit_mechanism("myerson", bm)),
    "myerson-truthful": (3, truthful, lambda bm: mech.fit_mechanism("myerson", bm)),
    "bsp": (3, truthful, lambda bm: mech.fit_mechanism("boosted-second-price", bm)),
    "vcg-lazy": (3, truthful, lambda bm: mech.fit_mechanism("vcg-lazy", bm)),
    "vcg-eager": (3, truthful, lambda bm: mech.fit_mechanism("vcg-eager", bm)),
    "first-price": (3, equilibrium, lambda bm: mech.fit_mechanism("first-price", bm)),
    "second-price": (4, truthful, lambda bm: mech.MechanismConfig(
        "second-price", reserves=(0.4,))),
    # reserves above every bid: no round makes a sale, every winner is -1
    "vcg-lazy-no-sale": (3, truthful, lambda bm: mech.MechanismConfig(
        "vcg-lazy", reserves=(5.0, 5.0, 5.0))),
    "vcg-eager-no-sale": (3, truthful, lambda bm: mech.MechanismConfig(
        "vcg-eager", reserves=(5.0, 5.0, 5.0))),
    # one bidder who clears her reserve in some rounds only
    "vcg-eager-one-bidder": (1, truthful, lambda bm: mech.MechanismConfig(
        "vcg-eager", reserves=(0.6,))),
    "myerson-one-bidder": (1, truthful, lambda bm: mech.fit_mechanism("myerson", bm)),
    "second-price-one-bidder": (1, truthful, lambda bm: mech.MechanismConfig(
        "second-price", reserves=(0.3,))),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("size", [1, 17, 5000])
def test_chunk_sums_are_byte_equal_to_the_dense_matrix(case, size):
    k, strategy, fit = CASES[case]
    models, strategies = bidders(k, strategy)
    cfg = fit([s.bid_distribution() for s in strategies])
    for chunk in range(2):
        expected = dense_chunk_stats(models, strategies, cfg, 1234, chunk, size)
        got = payoff._chunk_stats(models, strategies, cfg, 1234, chunk, size)
        assert as_bytes(got) == as_bytes(expected)
        assert all(np.shape(g) == np.shape(e) for g, e in zip(got, expected))
    if case.endswith("no-sale"):
        assert not np.any(got[0]) and got[2] == 0.0


def estimate_bytes(est):
    return np.asarray([est.mean, est.std_error, *est.per_bidder, *est.per_bidder_se,
                       est.seller_revenue, est.seller_revenue_se]).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_is_byte_equal_to_the_dense_matrix(monkeypatch, workers):
    # 3 full chunks and a partial one, on grid equilibrium strategies
    models, strategies = bidders(3, equilibrium)
    cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
    rounds = 3 * payoff._CHUNK + 1001

    def run():
        return payoff.payoff_monte_carlo(models, strategies, cfg, rounds, seed=29,
                                         workers=workers)

    got = run()
    monkeypatch.setattr(payoff, "_chunk_stats", dense_chunk_stats)
    assert estimate_bytes(got) == estimate_bytes(run())
    assert got.rounds == rounds


def test_chunk_allocation_peak():
    # one 65,536-round chunk of three K=3 uniform equilibrium bidders under
    # the Myerson fit; the argmax and partition ranking peaked at 10.28 MB
    models = [dist.make_uniform() for _ in range(3)]
    strategies = [shade.equilibrium_shading(m, 3) for m in models]
    cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
    payoff._chunk_stats(models, strategies, cfg, 1, 0, 1 << 16)  # lazy tables built
    tracemalloc.start()
    try:
        payoff._chunk_stats(models, strategies, cfg, 1, 0, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.81e6
