"""Single-round auction mechanisms and the seller's revenue-maximizing fit.

The vectorized kernel _scored_outcomes is the only implementation of the six
allocation and payment rules. Monte Carlo runs it on whole chunks of rounds;
each run_* is a one-row view of it that adds input validation. Every rule
gives the item to the highest score (a virtualized, boosted or reserve-masked
bid) and prices it from the second highest; _rank finds both with a few
plain ufunc passes per bidder column and no masked copy, so each column is
best read as a contiguous row (Monte Carlo passes the transpose of one row
per bidder). Ties in (virtualized) bids go to the lowest bidder index, whose
score keeps its bits (-0.0 ahead of a later +0.0), a bid equal to its reserve
counts as clearing, and with no sale the payment is 0. A NaN bid is refused
with InvalidParams, for every kind.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .dist import DistributionModel, GPDistribution, GPParams, _each_distinct
from .errors import FitFailure, InvalidParams, NonRegular

_FIT_NODES = (np.arange(64) + 0.5) / 64  # probability nodes for quantile least squares
_XI_BOUNDS = (-20.0, 0.0)  # the quantile fit's search range for xi


@dataclass(frozen=True)
class MechanismConfig:
    kind: str
    reserves: tuple = ()
    boosts: tuple = ()
    bid_models: tuple = ()

    _KINDS = ("myerson", "vcg-lazy", "vcg-eager", "boosted-second-price",
              "first-price", "second-price")

    def __post_init__(self):
        object.__setattr__(self, "reserves", tuple(float(r) for r in self.reserves))
        object.__setattr__(self, "boosts", tuple(float(s) for s in self.boosts))
        object.__setattr__(self, "bid_models", tuple(self.bid_models))
        if self.kind not in self._KINDS:
            raise InvalidParams(f"unknown mechanism kind: {self.kind!r}")
        if not all(r >= 0 for r in self.reserves):
            raise InvalidParams("reserves must be >= 0")
        if self.kind == "boosted-second-price" and not all(0 < s < np.inf for s in self.boosts):
            raise InvalidParams("boosts must be positive and finite")
        if self.kind == "myerson":
            for m in self.bid_models:
                if not m.is_regular:
                    raise NonRegular("myerson requires regular bid distributions")


@dataclass(frozen=True)
class AuctionOutcome:
    winner: int | None
    payment: float
    virtualized_bids: tuple | None = None

    def __post_init__(self):
        if self.winner is None and self.payment != 0.0:
            raise InvalidParams("payment must be zero when there is no sale")

    def to_json(self):
        return {"winner": self.winner, "payment": self.payment}


def _rank(cols):
    """Per round over K score columns: (winner, best, second), the lowest
    index holding the highest score, that score, and the highest score of the
    other columns (-inf for K = 1). Each column after the first is folded in
    with plain ufunc passes and no masked copy: second takes the smaller of
    (best, column), winner takes i where the column beats best, and best the
    larger of the two. A score that only ties the best does not displace it:
    where they tie, best keeps its own bits (so -0.0 stays ahead of a later
    +0.0, as argmax keeps it), copied back at those few rounds."""
    best = np.array(cols[0])
    winner = np.zeros(best.shape, dtype=np.intp)
    second = np.full(best.shape, -np.inf)
    for i in range(1, len(cols)):
        c = cols[i]
        np.maximum(second, np.minimum(best, c), out=second)
        np.maximum(winner, (c > best) * i, out=winner)
        tie = np.flatnonzero(c == best)
        kept = best[tie]
        np.maximum(best, c, out=best)
        best[tie] = kept
    return winner, best, second


def _scored_outcomes(bids, cfg: MechanismConfig):
    """Vectorized per-round winner (-1 for no sale), payment, and the scores
    the allocation maximizes, one row per bidder (virtualized bids for
    myerson, boosted margins for boosted second price, None for the other
    kinds). Second price is lazy VCG, and eager VCG is lazy VCG on the bids
    that clear their reserves. InvalidParams if any bid is NaN."""
    if np.isnan(bids).any():
        raise InvalidParams("bids must not be NaN")
    n, k = bids.shape
    cols = [bids[:, i] for i in range(k)]
    kind = cfg.kind
    w = None
    r = np.full(k, (*cfg.reserves, 0.0)[0]) if kind == "second-price" \
        else np.asarray(cfg.reserves)

    if kind == "myerson":
        w = np.empty((k, n))
        for i, m in enumerate(cfg.bid_models):
            w[i] = m.virtual_value_clamped(cols[i])
        winner, best, payment = _rank(w)
        sale = best >= 0
        del best  # freed before the payments, where a chunk's memory peaks
        np.maximum(0.0, payment, out=payment)  # the score to beat
    elif kind == "boosted-second-price":
        s = np.asarray(cfg.boosts)
        w = np.array([s[i] * (c - r[i]) for i, c in enumerate(cols)])
        winner, best, second = _rank(w)
        sale = best >= 0
        payment = r[winner] + np.maximum(0.0, second) / s[winner]
    elif kind in ("vcg-lazy", "vcg-eager", "second-price"):
        if kind == "vcg-eager":  # only the bids that clear their reserves are ranked
            cols = [np.where(c >= ri, c, -np.inf) for c, ri in zip(cols, r)]
        winner, best, second = _rank(cols)
        sale = best >= r[winner]
        payment = np.maximum(r[winner], second)
    elif kind == "first-price":
        winner, payment, _ = _rank(cols)
        sale = np.ones(n, dtype=bool)
    else:
        raise InvalidParams(f"unsupported mechanism kind: {kind!r}")

    winner = np.where(sale, winner, -1)
    if kind == "myerson":  # the winner's bid whose virtual value is the score to beat
        for i, m in enumerate(cfg.bid_models):
            sel = np.flatnonzero(winner == i)
            if sel.size:
                payment[sel] = m._inverse_virtual_clamped(payment[sel])
    payment = np.where(sale, np.maximum(payment, 0.0), 0.0)
    return winner, payment, w


def _outcomes(bids, cfg: MechanismConfig):
    """Vectorized per-round winner (-1 for no sale) and payment."""
    return _scored_outcomes(bids, cfg)[:2]


def _check_config(cfg: MechanismConfig, k: int):
    if k == 0:
        raise InvalidParams("bids must be nonempty")
    if cfg.kind == "myerson" and len(cfg.bid_models) != k:
        raise InvalidParams("myerson config needs one bid model per bidder")
    if cfg.kind in ("vcg-lazy", "vcg-eager") and len(cfg.reserves) != k:
        raise InvalidParams("vcg config needs one reserve per bidder")
    if cfg.kind == "boosted-second-price" and not (len(cfg.boosts) == len(cfg.reserves) == k):
        raise InvalidParams("bsp config needs one (boost, reserve) pair per bidder")


def _run_row(bids, cfg: MechanismConfig) -> AuctionOutcome:
    """One round through the kernel."""
    row = np.asarray([bids], dtype=float)
    _check_config(cfg, row.shape[1])
    winner, payment, w = _scored_outcomes(row, cfg)
    return AuctionOutcome(None if winner[0] < 0 else int(winner[0]), float(payment[0]),
                          None if w is None else tuple(float(c[0]) for c in w))


def run_myerson(bids, cfg: MechanismConfig) -> AuctionOutcome:
    """Allocate to the highest non-negative virtualized bid; the winner pays
    the smallest bid that still wins: psi_w^{-1}(max(0, max_j!=w psi_j(b_j)))."""
    for b, m in zip(bids, cfg.bid_models):
        m._check_support(np.asarray(b, dtype=float))
    return _run_row(bids, cfg)


def run_vcg_lazy(bids, reserves) -> AuctionOutcome:
    """Highest bidder wins iff she clears her own reserve."""
    return _run_row(bids, MechanismConfig("vcg-lazy", reserves=reserves))


def run_vcg_eager(bids, reserves) -> AuctionOutcome:
    """Highest bidder among those clearing their reserves wins."""
    return _run_row(bids, MechanismConfig("vcg-eager", reserves=reserves))


def run_bsp(bids, boosts, reserves) -> AuctionOutcome:
    """Boosted second price: bids are virtualized via w_i = s_i (b_i - r_i)."""
    return _run_row(bids, MechanismConfig("boosted-second-price", reserves=reserves,
                                          boosts=boosts))


def run_first_price(bids) -> AuctionOutcome:
    return _run_row(bids, MechanismConfig("first-price"))


def run_second_price(bids, reserve: float = 0.0) -> AuctionOutcome:
    return _run_row(bids, MechanismConfig("second-price", reserves=(reserve,)))


def fit_monopoly_reserves(bid_models) -> tuple:
    """Per-bidder monopoly price psi_i^{-1}(0); NonRegular on a non-regular grid law."""
    return tuple(float(m.monopoly_price()) for m in bid_models)


def fit_gp_quantile(model: DistributionModel):
    """Least-squares fit of a GP(0, sigma, xi) quantile function to the model's.

    sigma enters linearly, so it is profiled out and the search runs over xi
    alone. Returns (GPParams, rmse); exact for in-family inputs.
    """
    q = np.asarray(model.quantile(_FIT_NODES), dtype=float)
    if not np.all(np.isfinite(q)):
        raise FitFailure("model quantiles are not finite at the fit nodes")

    def basis(xi):
        if xi == 0:
            return -np.log(1.0 - _FIT_NODES)
        return ((1.0 - _FIT_NODES) ** (-xi) - 1.0) / xi

    def sse(xi):
        g = basis(xi)
        denom = float(g @ g)
        if denom <= 0:
            return np.inf
        sigma = float(q @ g) / denom
        r = q - sigma * g
        return float(r @ r)

    res = minimize_scalar(sse, bounds=_XI_BOUNDS, method="bounded",
                          options={"xatol": 1e-12})
    xi = float(res.x)
    # one parabolic vertex step sharpens flat minima to near machine precision
    h = 1e-6
    if _XI_BOUNDS[0] + h < xi < _XI_BOUNDS[1] - h:
        s_lo, s_mid, s_hi = sse(xi - h), sse(xi), sse(xi + h)
        curv = s_hi - 2 * s_mid + s_lo
        if curv > 0:
            cand = xi - 0.5 * h * (s_hi - s_lo) / curv
            if _XI_BOUNDS[0] < cand < _XI_BOUNDS[1] and sse(cand) <= s_mid:
                xi = float(cand)
    # the boundary xi -> 0 is a legitimate fit (exponential branch)
    if sse(0.0) <= sse(xi):
        xi = 0.0
    g = basis(xi)
    sigma = float(q @ g) / float(g @ g)
    if not np.isfinite(sigma) or sigma <= 0:
        raise FitFailure("degenerate quantile fit")
    rmse = float(np.sqrt(sse(xi) / _FIT_NODES.size))
    return GPParams(0.0, sigma, xi), rmse


def fit_bsp(bid_models):
    """Per-bidder GP quantile fit; returns (boosts, reserves): each fitted law's
    psi' = 1 - xi_i and monopoly price sigma_i / (1 - xi_i). Bidders with one
    law_key (one repeated model, or equal GP models built apart) share one fit."""
    fits = _each_distinct(lambda m: GPDistribution(fit_gp_quantile(m)[0]), bid_models)
    reserves = tuple(g.monopoly_price() for g in fits)
    return tuple(g.virtual_value_slope(r) for g, r in zip(fits, reserves)), reserves


def fit_mechanism(kind: str, bid_models) -> MechanismConfig:
    """Seller's revenue-maximizing configuration, computed from exact bid models."""
    if kind == "myerson":
        return MechanismConfig("myerson", bid_models=tuple(bid_models))
    if kind in ("vcg-lazy", "vcg-eager"):
        return MechanismConfig(kind, reserves=fit_monopoly_reserves(bid_models))
    if kind == "boosted-second-price":
        boosts, reserves = fit_bsp(bid_models)
        return MechanismConfig(kind, reserves=reserves, boosts=boosts)
    if kind in ("first-price", "second-price"):  # second price without a reserve
        return MechanismConfig(kind)
    raise InvalidParams(f"unknown mechanism kind: {kind!r}")
