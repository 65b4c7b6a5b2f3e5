"""Expected payoff and revenue engines, plus all derivative machinery.

The strategic bidder's expected payoff in a Myerson auction is
E[(X - psi_B(B)) F_Z(psi_B(B))], where F_Z is the distribution of the
competition Z = max(0, competitors' virtualized bids). F_Z carries a point
mass at 0 (the probability that every competitor misses her reserve); the
quadrature, the functional directional derivative and the boosted-second-
price parameter gradient all account for it explicitly.

The payoff and its functional derivative integrate over the clearing region
{h >= 0} of the virtualized bid h, from the point `_clearing_point` finds, in
`_clearing_integral`. `_surplus` gives the Myerson surplus (x - h) F_Z(h) and
its first-order term D [(x - h) f_Z(h) - F_Z(h)]; `_law_of_max`, the law of
the highest competitor. Virtualized bids come from `shade.virtualize`.
Linear shading (bid alpha x) has its own integrand, `_linear_integral`: one
row per alpha, for payoffs or their exact alpha-derivatives, under Myerson or
VCG reserves.

The boosted-second-price payoff and its (mu, sigma, xi) gradient share one
integral, `_bsp_integral`, over s = -log u with u = 1 - F1(x1) and weight
e^-s. It runs from the clearing point s0, where the GP virtualized bid psi
is 0, to s = 700, and is split at s0 + 2^j (j = -1..9) and wherever psi meets
a competitor's top virtualized bid (`CompetitionDistribution.tops`). Both
kinds of split point are closed forms of s at psi = t (`_gp_s_at_virtual`).
`bsp_payoff_and_gradient` stacks the payoff row on the gradient rows, so an
optimizer step costs one integral.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np
from scipy.optimize import brentq

from . import _quad
from .dist import DistributionModel, GPDistribution, GPParams, GridFunction, _each_distinct
from .errors import InvalidParams, NonMonotone, NonRegular, OutOfSupport
from .mech import MechanismConfig, _check_config, _outcomes
from .shade import ShadingStrategy, _alpha, virtualize

_CHUNK = 1 << 16  # Monte Carlo rounds per counter-keyed chunk
_EPS4 = 4 * np.finfo(float).eps  # brentq's smallest relative tolerance


def _law_of_max(t, law, competitors, density=False):
    """(prod_i F_i, its density if density else None) at t for independent
    competitors, from law(c) = (F_c(t), f_c(t) or None), read once per distinct one."""
    laws = _each_distinct(law, competitors)
    cdfs = [cdf for cdf, _ in laws]
    cdf = reduce(np.multiply, cdfs, np.ones(t.shape))
    if not density:
        return cdf, None
    return cdf, _product_density(t, cdfs, [pdf for _, pdf in laws])


def _product_density(t, cdfs, pdfs):
    """Derivative of prod_i F_i: sum_i f_i prod_{j != i} F_j, summed in index order."""
    out = np.zeros(t.shape)
    for i, p in enumerate(pdfs):
        for j, c in enumerate(cdfs):
            if j != i:
                p = p * c
        out = out + p
    return out


class CompetitionDistribution:
    """Law of Z = max(0, psi_i(B_i)) over competitors' bid models.

    cdf(t) is 0 for t < 0 and the product of per-competitor virtualized-bid
    cdfs for t >= 0; the jump at 0 has mass atom0 = prod F_{B_i}(r*_i). Reading
    atom0 inverts each virtual value, which refuses a non-regular grid law.
    """

    def __init__(self, bid_models):
        self.models = tuple(bid_models)
        zero = np.zeros(1)
        self.atom0 = float(_law_of_max(zero, lambda m: m._virtual_law(zero), self.models)[0][0])

    @cached_property
    def tops(self):
        """Each competitor's finite top virtualized bid, where F_Z kinks and f_Z jumps."""
        return tuple(m.virtual_range[1] for m in self.models if np.isfinite(m.virtual_range[1]))

    def law(self, t, density=False):
        """(cdf(t), pdf(t) if density else None) from one evaluation of each
        distinct competitor's virtualized-bid law, whose cdf the density's product
        rule reuses. Competitors are matched by law_key: a repeated model object,
        or equal GP models built apart, are read once; equal grid models built
        apart are each read."""
        t = np.asarray(t, dtype=float)
        # at t <= 0 only the atom or 0 is returned, so each law is read at t+
        tc = np.maximum(t, 0.0)
        gamma, pdf = _law_of_max(t, lambda m: m._virtual_law(tc, density), self.models, density)
        cdf = np.where(t > 0, gamma, np.where(t < 0, 0.0, self.atom0))
        return cdf, None if pdf is None else np.where(t <= 0, 0.0, pdf)

    def cdf(self, t):
        return self.law(t)[0]

    def pdf(self, t):
        return self.law(t, density=True)[1]


def competition_distribution(bid_models) -> CompetitionDistribution:
    return CompetitionDistribution(bid_models)


def gp_competition_ratio(params: GPParams, k: int):
    """Closed-form t -> F_Z(t)/f_Z(t) for k-1 i.i.d. GP competitors:
    (psi'/(k-1)) F_Y(x) / f_Y(x) at x = psi^{-1}(t), with psi' = 1 - xi."""
    if k < 2:
        raise InvalidParams("k must be >= 2")
    model = GPDistribution(params)

    def ratio(t):
        x = model.inverse_virtual_value(t)
        dens = model.pdf(x)
        if np.any(dens <= 0):
            raise OutOfSupport("competitor density vanishes at the mapped point")
        return (model.virtual_value_slope(x) / (k - 1)) * model.cdf(x) / dens

    return ratio


@dataclass(frozen=True)
class PayoffEstimate:
    mean: float
    std_error: float = 0.0
    rounds: int = 0
    per_bidder: tuple = ()
    per_bidder_se: tuple = ()
    seller_revenue: float | None = None
    seller_revenue_se: float | None = None

    def to_json(self):
        return {
            "mean": self.mean,
            "se": self.std_error,
            "rounds": self.rounds,
            "per_bidder": list(self.per_bidder),
            "seller_revenue": self.seller_revenue,
        }


def _clearing_point(h, lo, hi):
    """Smallest x in [lo, hi] with h(x) >= 0 for an increasing h; None if
    h <= 0 up to hi. h is evaluated once on a 257-point probe: a decrease
    there raises NonRegular, and otherwise brentq finds the zero inside the
    probe interval that brackets it."""
    xs = np.linspace(lo, hi, 257)
    hs = h(xs)
    if (np.diff(hs) < -1e-9).any():
        raise NonRegular("induced virtualized bid must be increasing")
    if hs[0] >= 0:
        return lo
    if hs[-1] <= 0:
        return None
    i = int(np.argmax(hs >= 0))
    return brentq(lambda x: float(h(np.asarray(x))), xs[i - 1], xs[i],
                  xtol=_EPS4 * (hi - lo), rtol=_EPS4)


def _surplus(z, x, h, direction=None, value=False):
    """The Myerson surplus (x - h) F_Z(h) at value x and virtualized bid h >= 0,
    or, given a direction D of h, its first-order term D [(x - h) f_Z(h) - F_Z(h)],
    below the surplus as rows of one array if value; Z's law is read once."""
    net = x - h
    if direction is None:
        return net * z.cdf(h)
    cdf, pdf = z.law(h, density=True)
    term = direction * (net * pdf - cdf)
    return np.concatenate([(net * cdf)[None], term]) if value else term


def _clearing_integral(d1, h, row, kinks=()):
    """(int row(x, max(h, 0)) f1 dx over [x0, grid upper], x0) for an increasing
    virtualized bid h that clears at x0, split at kinks; (0.0, None) if h never
    clears. The clearing region in x; `_bsp_integral` is its twin in s."""
    hi = d1.grid_upper()
    x0 = _clearing_point(h, d1.support[0], hi)
    if x0 is None:
        return 0.0, None
    return _quad.integrate(lambda x: row(x, np.maximum(h(x), 0.0)) * d1.pdf(x), x0, hi,
                           breakpoints=kinks), x0


def payoff_quadrature(d1: DistributionModel, strategy: ShadingStrategy,
                      z: CompetitionDistribution) -> PayoffEstimate:
    """Expected payoff of a bidder with values from d1 shading via strategy
    against competition z, by adaptive quadrature.

    Integrates (x - h(x)) F_Z(h(x)) f1(x) over {h >= 0}, h the virtualized
    bid; F_Z(0+) carries the atom, so a strategy whose virtualized bid stays
    (barely) positive wins whenever every competitor misses her reserve.
    """
    val, _ = _clearing_integral(d1, strategy.virtualized_bid,
                                lambda x, hx: _surplus(z, x, hx), strategy.kinks)
    return PayoffEstimate(mean=val, per_bidder=(val,))


# ----------------------------------------------------------------------
# Monte Carlo engine
# ----------------------------------------------------------------------

def _resolve_workers(workers):
    """workers, else $SHADECRAFT_WORKERS, else 1; InvalidParams unless an integer >= 1."""
    if workers is None:
        workers = os.environ.get("SHADECRAFT_WORKERS") or "1"
    n = int(workers) if str(workers).strip().isdecimal() else 0
    if n < 1:
        raise InvalidParams(f"workers (or SHADECRAFT_WORKERS) must be an integer >= 1, "
                            f"got {workers!r}")
    return n


def _chunk_stats(value_models, strategies, cfg, seed, chunk_index, size):
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)],
                   dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    k = len(value_models)
    u = rng.random((size, k))
    # one contiguous (rounds,) row per bidder; the kernel takes the (rounds, K)
    # transpose, whose columns are these rows. Stacking whole rows, not filling
    # a preallocated array row by row, keeps the chunk's page faults low
    values = np.array([m.quantile(u[:, i]) for i, m in enumerate(value_models)])
    del u
    bids = np.array([s.bid(values[i]) for i, s in enumerate(strategies)])
    winner, payment = _outcomes(bids.T, cfg)
    del bids
    if k > 1:
        # each winner's gains summed in round order, as numpy sums the columns
        # of the (rounds, K) utility matrix
        sale = np.flatnonzero(winner >= 0)
        who = winner[sale]
        gain = values[who, sale] - payment[sale]
        usum, usq = np.bincount(who, gain, k), np.bincount(who, gain ** 2, k)
    else:  # a lone column numpy sums pairwise, over every round
        util = np.where(winner >= 0, values[0] - payment, 0.0)[:, None]
        usum, usq = util.sum(axis=0), (util ** 2).sum(axis=0)
    return usum, usq, payment.sum(), (payment ** 2).sum()


def payoff_monte_carlo(value_models, strategies, cfg: MechanismConfig, rounds: int,
                       seed: int, workers=None) -> PayoffEstimate:
    """Per-bidder mean utility and seller revenue over repeated rounds.

    Rounds are split into fixed-size chunks, each driven by a counter-based
    generator keyed by (seed, chunk index), and partial sums are merged in
    chunk order; results are therefore identical for any worker count.
    """
    k = len(value_models)
    if k == 0 or len(strategies) != k:
        raise InvalidParams("value models and strategies must have matching lengths")
    _check_config(cfg, k)
    rounds = int(rounds)
    if rounds < 1:
        raise InvalidParams("rounds must be >= 1")
    nworkers = _resolve_workers(workers)
    jobs = [(ci, min(_CHUNK, rounds - ci * _CHUNK))
            for ci in range((rounds + _CHUNK - 1) // _CHUNK)]

    def run(job):
        ci, size = job
        return _chunk_stats(value_models, strategies, cfg, seed, ci, size)

    if nworkers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as ex:
            parts = list(ex.map(run, jobs))
    else:
        parts = [run(j) for j in jobs]

    usum, usq, rsum, rsq = (reduce(np.add, col, 0.0) for col in zip(*parts))
    per = usum / rounds
    per_se = np.sqrt(np.maximum(usq / rounds - per ** 2, 0.0) / rounds)
    rev = rsum / rounds
    rev_se = float(np.sqrt(max(rsq / rounds - rev ** 2, 0.0) / rounds))
    return PayoffEstimate(mean=float(per[0]), std_error=float(per_se[0]), rounds=rounds,
                          per_bidder=tuple(float(v) for v in per),
                          per_bidder_se=tuple(float(v) for v in per_se),
                          seller_revenue=float(rev), seller_revenue_se=rev_se)


def first_price_payoff(d1, beta_i: GridFunction, k: int) -> float:
    """Expected payoff in a first-price auction with no reserve:
    E[(X - beta_I(X)) F(X)^{k-1}]."""
    lo, hi = d1.support[0], d1.grid_upper()
    return _quad.integrate(
        lambda x: (x - beta_i(x)) * d1.cdf(x) ** (k - 1) * d1.pdf(x), lo, hi)


# ----------------------------------------------------------------------
# Linear shading curves and derivatives
# ----------------------------------------------------------------------

def _linear_competition(competitor_models, kind):
    """The competition a linear shader faces, as (law, kinks, virtual).

    law(t, density) returns its cdf at t and, if density, its pdf (else None).
    Under Myerson it is met by the virtualized bid alpha psi(x) (virtual). Under
    VCG it is met by the bid alpha x and is G = prod H_i, with H_i = F_i (lazy)
    or max(F_i(r_i), F_i) (eager). An eager H_i has zero density below the
    reserve r_i, so G kinks there: the reserves are the kinks."""
    if kind == "myerson":
        return competition_distribution(competitor_models).law, (), True
    if kind not in ("vcg-lazy", "vcg-eager"):
        raise InvalidParams(f"unsupported mechanism kind for linear curves: {kind!r}")
    eager = kind == "vcg-eager"
    models = tuple(competitor_models)

    def competitor(m):
        r = m.monopoly_price() if eager else -np.inf
        return r, m.cdf(r) if eager else 0.0

    # (reserve, floor) by law key, found once per distinct law
    comps = dict(zip([m.law_key for m in models], _each_distinct(competitor, models)))

    def law(t, density=False):
        def one(m):
            r, floor = comps[m.law_key]
            return np.maximum(floor, m.cdf(t)), np.where(t > r, m.pdf(t), 0.0) if density else None

        return _law_of_max(t, one, models, density)

    return law, [comps[m.law_key][0] for m in models] if eager else (), False


def _linear_integral(d1, law, kinks, virtual, alphas, slope=False):
    """Linear-shading payoffs at each alpha, or with slope their alpha-derivatives,
    as one integral over [r*, grid upper] with a row per alpha. With p = max(psi, 0),
    s = p (virtual) or x and C, c the competition's cdf and pdf at alpha s, a row
    is (x - alpha p) C f, or [(x - alpha p) s c - p C] f. r* does not move with
    alpha, so no point-mass term enters the derivative."""
    a = np.asarray(alphas, dtype=float)[:, None]

    def integrand(x):
        p = np.maximum(d1.virtual_value_clamped(x), 0.0)
        s = p if virtual else x
        cdf, pdf = law(a * s, density=slope)
        net = x - a * p
        return (net * s * pdf - p * cdf if slope else net * cdf) * d1.pdf(x)

    breaks = [r / alpha for r in kinks for alpha in a.ravel()]
    # the zeros give every row a value when [r*, grid upper] is empty
    return np.zeros(len(a)) + _quad.integrate(integrand, d1.monopoly_price(),
                                              d1.grid_upper(), breakpoints=breaks)


def linear_payoff_curve(d1, competitor_models, cfg_kind, alphas):
    """(alpha, payoff) pairs for a bidder who bids alpha x, each alpha in (0, 1],
    against truthful competitors; the seller refits reserves to the bids (Myerson
    virtualization, or monopoly VCG reserves applied lazily or eagerly). The whole
    curve is one vector integral with a row per alpha; under eager VCG each
    competitor's reserve r_i is met at x = r_i/alpha, a breakpoint."""
    competition = _linear_competition(competitor_models, cfg_kind)
    alphas = [_alpha(a) for a in alphas]
    return list(zip(alphas, map(float, _linear_integral(d1, *competition, alphas))))


def payoff_derivative_alpha(d1, competitor_models, at_alpha, kind="myerson"):
    """Exact d/dalpha of the linear-shading payoff at at_alpha in (0, 1]: one
    integral of the payoff integrand's alpha-derivative,
    Myerson: psi [(x - alpha psi) f_Z(alpha psi) - F_Z(alpha psi)] f, and
    VCG: [(x - alpha psi) x g(alpha x) - psi G(alpha x)] f with g = G'."""
    competition = _linear_competition(competitor_models, kind)
    return float(_linear_integral(d1, *competition, [_alpha(at_alpha)], slope=True)[0])


# ----------------------------------------------------------------------
# Functional directional derivative
# ----------------------------------------------------------------------

def directional_derivative(d1, beta, rho, z: CompetitionDistribution):
    """Directional derivative of the Myerson payoff at shading beta along rho, a
    float; along a list of directions, an array, from one integral with a row each.

    beta, increasing, and each rho are functions of value with a `.derivative`
    method, such as GridFunction.
    Expectation term: E[D(x) {(x - h) f_Z(h) - F_Z(h)} 1{h > 0}] with
    h(x) = beta(x) + beta'(x)(psi(x) - x) and D(x) = rho(x) + rho'(x)(psi(x) - x).
    Point-mass term: D(x0) atom0 f1(x0) x0 / h'(x0) at the clearing point x0
    where h first reaches 0. It is added only when x0 > lo, the low end of the
    support, which holds exactly when h(lo) < 0: a clearing point at lo cannot move.
    """
    many = isinstance(rho, (list, tuple))
    # a list is one direction with a row each: the transform identity acts row by row
    fn, slope = (rho, rho.derivative) if not many else (
        lambda x: np.array([r(x) for r in rho]),
        lambda x: np.array([r.derivative(x) for r in rho]))
    lo, hi = d1.support[0], d1.grid_upper()
    probe = np.linspace(lo, hi, 512)
    # beta and beta +- 1e-6 rho all increasing
    if (beta.derivative(probe) <= 1e-6 * np.abs(slope(probe))).any():
        raise NonMonotone("perturbation breaks monotonicity of the bid function")

    h = partial(virtualize, d1, beta, beta.derivative)
    direction = partial(virtualize, d1, fn, slope)
    total, x0 = _clearing_integral(d1, h, lambda x, hx: _surplus(z, x, hx, direction(x)))
    if x0 is not None and x0 > lo:
        dx = 1e-6 * (hi - lo)
        a, b = max(lo, x0 - dx), min(hi, x0 + dx)
        h_a, h_b = h(np.array([a, b]))
        h_slope = float((h_b - h_a) / (b - a))
        d_val = direction(np.asarray(x0, dtype=float))
        total += d_val * z.atom0 * float(d1.pdf(np.asarray(x0))) * x0 / h_slope
    return np.zeros(len(rho)) + total if many else float(total)  # a row each if h never clears


# ----------------------------------------------------------------------
# Boosted second price: payoff and parameter gradient over (mu, sigma, xi)
# ----------------------------------------------------------------------

_S_END = 700.0  # s = -log u runs up to u = e^-700 ~ 1e-304
# s0 + 2^j, j = -1..9: the integrand decays like e^-s, so these spare each
# integral the ~8 levels of halving [s0, _S_END] down to where its mass is
_LADDER = 2.0 ** np.arange(-1, 10)


def _gp_virtual_of_s(p: GPParams, s):
    """psi_p(x_p) at s = -log u, u = 1 - F1(x1); stable as xi -> 0-."""
    s = np.asarray(s, dtype=float)
    if p.xi == 0:
        return p.mu + p.sigma * s - p.sigma
    w = p.xi * s
    return p.sigma * (np.expm1(w) / p.xi - np.exp(w)) + p.mu


def _gp_s_at_virtual(p: GPParams, t):
    """The s where psi_p(x_p) = t, inf if psi stays below t: log(v)/xi with
    v = (xi (t - mu) + sigma) / (sigma (1 - xi)), or 1 + (t - mu)/sigma at
    xi = 0. log v is taken as a difference of log1p terms, accurate as xi -> 0-."""
    if p.xi == 0:
        return 1.0 + (t - p.mu) / p.sigma
    a = p.xi * (t - p.mu) / p.sigma
    if a <= -1.0:
        return np.inf
    return float((np.log1p(a) - np.log1p(-p.xi)) / p.xi)


def _one_minus_exp_with_slope(w, exp_w, expm1_w):
    """1 - e^w (1 - w) for w <= 0 from w, e^w and expm1(w): -expm1(w) + w e^w,
    whose terms cancel by at most a factor ~2/|w|, but its Taylor series
    (~ w^2/2) where |w| < 1e-3."""
    w = np.asarray(w, dtype=float)
    out = np.asarray(-expm1_w + w * exp_w)  # an array for 0-d w too, to write into
    small = np.abs(w) < 1e-3
    if small.any():
        ws = w[small]
        out[small] = ws ** 2 / 2 + ws ** 3 / 3 + ws ** 4 / 8 + ws ** 5 / 30 + ws ** 6 / 144
    return out


def _grad_psi_of_s(p: GPParams, s):
    """Rows [d/dmu, d/dsigma, d/dxi] of psi_p(x_p) at s = -log(1 - F1(x1)), xi < 0."""
    s = np.asarray(s, dtype=float)
    w = p.xi * s
    exp_w, expm1_w = np.exp(w), np.expm1(w)
    g_mu = np.ones(s.shape)
    g_sigma = expm1_w / p.xi - exp_w
    # sigma/xi^2 [1 - e^w + (1 - xi) w e^w] = sigma/xi^2 [(1 - e^w(1-w)) - xi w e^w]
    g_xi = (p.sigma / p.xi ** 2) * (_one_minus_exp_with_slope(w, exp_w, expm1_w)
                                    - p.xi * w * exp_w)
    return np.stack([g_mu, g_sigma, g_xi])


def _bsp_integral(d1, p: GPParams, z: CompetitionDistribution, row):
    """(int row(s, psi, x1) e^-s ds over [s0, _S_END], s0): the clearing region
    {psi >= 0} in s = -log u, u = 1 - F1(x1), which starts at s0 = max(s(psi = 0), 0).

    The range is split at s0 + 2^j, j = -1..9, and where psi meets each
    competitor's top virtualized bid, where F_Z kinks and f_Z jumps. The
    integral is 0 when psi never reaches 0 before _S_END."""
    s0 = max(_gp_s_at_virtual(p, 0.0), 0.0)

    def integrand(s):
        psi = np.maximum(_gp_virtual_of_s(p, s), 0.0)
        u = np.exp(-s)
        return row(s, psi, d1.isf(u)) * u

    # Python floats: integrate sorts a set of them, and numpy scalars sort slowly
    breaks = [_gp_s_at_virtual(p, t) for t in z.tops] + (s0 + _LADDER).tolist()
    return _quad.integrate(integrand, s0, _S_END, breakpoints=breaks), s0


def bsp_payoff(d1, p: GPParams, z: CompetitionDistribution) -> float:
    """Payoff of the GP-reparametrized shading: the integral of
    (x1 - psi) F_Z(psi) over u = 1 - F1(x1), taken in s = -log u (see _bsp_integral)."""
    return _bsp_integral(d1, p, z, lambda s, psi, x1: _surplus(z, x1, psi))[0]


def bsp_payoff_gradient(d1, p: GPParams, z: CompetitionDistribution,
                        include_point_mass=True):
    """Analytic gradient of bsp_payoff over (mu, sigma, xi).

    The expectation term integrates grad psi times the stationarity bracket
    (x1 - psi) f_Z(psi) - F_Z(psi) over the clearing region, in s = -log u and
    split at the same points as bsp_payoff; the point-mass term moves the
    clearing boundary s0 and is weighted by atom0 and the boundary Jacobian.
    Toggling include_point_mass exposes the first-order variant that neglects it.
    """
    return _bsp_rows(d1, p, z, include_point_mass, value=False)


def bsp_payoff_and_gradient(d1, p: GPParams, z: CompetitionDistribution,
                            include_point_mass=True):
    """(bsp_payoff, bsp_payoff_gradient) from one integral: the payoff row on
    top of the three gradient rows, all four from one read of the competition's
    law. The stacked rows refine their panels together, so each agrees with
    its own function to within the quadrature's tolerance, not bit for bit."""
    out = _bsp_rows(d1, p, z, include_point_mass, value=True)
    return float(out[0]), out[1:]


def _bsp_rows(d1, p: GPParams, z: CompetitionDistribution, include_point_mass, value):
    """The gradient rows of bsp_payoff_gradient, below the payoff row if value."""
    if p.xi >= 0:
        raise InvalidParams("gradient requires xi < 0")

    total, s0 = _bsp_integral(
        d1, p, z, lambda s, psi, x1: _surplus(z, x1, psi, _grad_psi_of_s(p, s), value))
    out = np.zeros(3 + value) + total
    if include_point_mass and 0.0 < s0 < _S_END:
        # boundary term: grad psi at the clearing point, times atom0 x1 f1(x1),
        # divided by the clearing boundary's slope d psi/dx = (1-xi) sigma u^{-xi-1} f1;
        # the density cancels. A payoff row, a value and not a derivative, takes none
        u1 = np.exp(-s0)
        x1c = float(d1.isf(u1))
        g_at = _grad_psi_of_s(p, np.asarray([s0]))[:, 0]
        out[-3:] += g_at * z.atom0 * x1c * u1 ** (1.0 + p.xi) / ((1.0 - p.xi) * p.sigma)
    return out
