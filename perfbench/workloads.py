"""The benchmark's workloads, written against shadecraft's public modules.

Each workload builds its objects in `setup` (timed as set-up), then returns
one pass: a list of operations, each a single public call. A pass does the
same work for every seed; the seed draws the Monte Carlo streams and
permutes the order of the operations.

The runner repeats the pass in a closed loop, one call at a time. Calls go
through module attributes (`payoff.bsp_payoff`, not a copied reference) so
that the tracer's hooks see them.

Why each workload exists:
- mc-equilibrium: Monte Carlo on grid-backed equilibrium strategies; the
  `dist` grid layer does most of the work in batches of ~22k points and
  `_quad` does none.
- bsp-fit: the boosted-second-price fit; `_quad.integrate` does nearly all
  of the work and `dist` grid code is never called.
- paper-quadrature: the paper's quadrature sweep; it calls the same `dist`
  grid functions as Monte Carlo, but in batches of ~15 points.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from shadecraft import dist, mech, opt, payoff, shade
from shadecraft.errors import NonMonotone

import reference

# rounds per Monte Carlo call: one counter-keyed chunk of the engine
MC_ROUNDS = 1 << 16
MC_CALLS = 12
MC_CHECK_SE = 4.0
MC_IDENTITY_ROUNDS = 3 << 16

BSP_BOX = ((0.0, 0.5), (0.05, 1.5), (-3.0, -1e-6))
BSP_ARGMAX = (0.0859, 0.0880, -0.0551)
BSP_BEST = 0.130718
# the gradient that exhausts the quadrature panel budget today (ROADMAP Baseline)
BSP_WORST_GRADIENT = (0.0872, 0.0888, -0.0026)
# the points are the same for every seed: gradient cost varies ~50x across
# the box, so seeded points would change the amount of work with the seed
BSP_SOBOL_SEED = 0
BSP_POINTS = 16
BSP_FITS = 2

PAPER_KS = range(2, 7)
PAPER_ALPHAS = (0.35, 0.55, 0.75, 0.95)
DIRECTIONS = (
    lambda x: np.asarray(x, dtype=float),
    lambda x: (1 + np.asarray(x, dtype=float)) / 2,
    lambda x: np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 2,
    lambda x: np.log1p(np.asarray(x, dtype=float)),
    lambda x: np.expm1(np.asarray(x, dtype=float)),
)


@dataclass
class Op:
    """One public call; `check` returns True when its answer is right."""

    kind: str
    call: object
    check: object = None


class Workload:
    name = ""
    rounds_per_pass = 0  # Monte Carlo rounds in one pass, if any
    # the reference kernel whose time tracks this workload's calls on a
    # drifting host
    kernel = reference.SMALL_CALLS

    def setup(self, seed):
        raise NotImplementedError

    def ops(self, state, seed):
        raise NotImplementedError

    def pass_misses(self, ops, results):
        """Indices of ops whose answer check failed."""
        return {i for i, (op, r) in enumerate(zip(ops, results))
                if op.check is not None and r is not None and not op.check(r)}

    def side_checks(self, state, seed):
        """Correctness checks run outside the timed phase: list of booleans."""
        return []

    def setup_failures(self, state):
        """Constructions that raised in set-up; their operations are not run."""
        return []

    def traced_extra(self, state):
        """Extra calls made only in the traced run, after the traced pass."""

    def untraced_extra(self, state, seed):
        """Extra per-layer measurements made with tracing off."""
        return {}


# ----------------------------------------------------------------------
# mc-equilibrium

class McEquilibrium(Workload):
    name = "mc-equilibrium"
    rounds_per_pass = MC_CALLS * MC_ROUNDS
    kernel = reference.LARGE_ARRAYS

    def setup(self, seed):
        models = [dist.make_uniform() for _ in range(3)]
        strategies = [shade.equilibrium_shading(m, 3) for m in models]
        cfg = mech.fit_mechanism("myerson", [s.bid_distribution() for s in strategies])
        return models, strategies, cfg

    def ops(self, state, seed):
        models, strategies, cfg = state
        seeds = np.random.default_rng(seed).integers(0, 2 ** 62, size=MC_CALLS)
        return [Op("mc", lambda s=int(s): payoff.payoff_monte_carlo(
                    models, strategies, cfg, MC_ROUNDS, s, workers=1))
                for s in seeds]

    def pass_misses(self, ops, results):
        # pooled over the pass: each bidder earns the first-price payoff 1/12
        # and the seller collects 1/2 (K=3, Unif[0,1])
        if any(r is None for r in results):
            return set()
        n = len(results)
        per = np.mean([r.per_bidder for r in results], axis=0)
        per_se = np.sqrt(np.sum(np.square([r.per_bidder_se for r in results]), axis=0)) / n
        rev = np.mean([r.seller_revenue for r in results])
        rev_se = np.sqrt(np.sum(np.square([r.seller_revenue_se for r in results]))) / n
        ok = np.all(np.abs(per - 1 / 12) < MC_CHECK_SE * per_se) \
            and abs(rev - 0.5) < MC_CHECK_SE * rev_se
        return set() if ok else set(range(n))

    def side_checks(self, state, seed):
        models, strategies, cfg = state
        one, two = (payoff.payoff_monte_carlo(models, strategies, cfg, MC_IDENTITY_ROUNDS,
                                              seed, workers=w) for w in (1, 2))
        return [one == two]

    def untraced_extra(self, state, seed):
        models, strategies, cfg = state
        rates = []
        for workers in (1, 2):
            t0 = time.perf_counter()
            payoff.payoff_monte_carlo(models, strategies, cfg, 16 * MC_ROUNDS, seed,
                                      workers=workers)
            rates.append(16 * MC_ROUNDS / (time.perf_counter() - t0))
        return {"payoff.mc.speedup_w2": rates[1] / rates[0]}


# ----------------------------------------------------------------------
# bsp-fit

def _bsp_params(x):
    return dist.GPParams(*(float(v) for v in x))


class BspFit(Workload):
    name = "bsp-fit"

    def setup(self, seed):
        d1 = dist.make_uniform()
        competitors = [dist.make_uniform(), dist.make_uniform()]
        z = payoff.competition_distribution(competitors)
        seller = mech.fit_mechanism("boosted-second-price", competitors)
        lo, hi = np.array(BSP_BOX).T
        sobol = qmc.Sobol(3, scramble=True, seed=BSP_SOBOL_SEED)
        points = qmc.scale(sobol.random(BSP_POINTS), lo, hi)
        return d1, z, points, seller

    def side_checks(self, state, seed):
        d1, z, _, seller = state
        # against Unif[0,1] bids the seller's BSP fit is Myerson: boost 2, reserve 1/2
        myerson = (np.allclose(seller.boosts, 2.0, rtol=0, atol=1e-9)
                   and np.allclose(seller.reserves, 0.5, rtol=0, atol=1e-9))
        # the best fit, from the rounded argmax: ~3 s, too long for every pass
        best = opt.maximize_bsp(d1, z, _bsp_params(BSP_ARGMAX), BSP_BOX, restarts=0,
                                max_iter=3)
        return [myerson, _best_fit_ok(best)]

    def ops(self, state, seed):
        d1, z, points, _ = state
        out = []
        for i, x in enumerate(points):
            p = _bsp_params(x)
            out.append(Op("bsp.payoff", lambda p=p: payoff.bsp_payoff(d1, p, z), _below_best))
            out.append(Op("bsp.gradient", lambda p=p: payoff.bsp_payoff_gradient(d1, p, z)))
            if i < BSP_FITS:
                out.append(Op("bsp.fit", lambda p=p: opt.maximize_bsp(
                    d1, z, p, BSP_BOX, restarts=0, max_iter=1), _fit_ok))
        order = np.random.default_rng(seed).permutation(len(out))
        return [out[i] for i in order]

    def traced_extra(self, state):
        d1, z = state[:2]
        payoff.bsp_payoff_gradient(d1, _bsp_params(BSP_WORST_GRADIENT), z)


def _below_best(value):
    return value <= BSP_BEST + 1e-6


def _in_box(params):
    return all(lo <= v <= hi for v, (lo, hi) in zip((params.mu, params.sigma, params.xi),
                                                    BSP_BOX))


def _fit_ok(res):
    return _in_box(res.argmax) and _below_best(res.value)


def _best_fit_ok(res):
    return _in_box(res.argmax) and abs(res.value - BSP_BEST) <= 1e-6


# ----------------------------------------------------------------------
# paper-quadrature

def _truthful_uniform(k):
    # int_{1/2}^{1} (1 - x) x^{K-1} dx; 11/192 at K=3
    return 1 / (k * (k + 1)) - 0.5 ** k / k + 0.5 ** (k + 1) / (k + 1)


def _near(target, tol):
    return lambda v: abs(v - target) <= tol


class PaperQuadrature(Workload):
    name = "paper-quadrature"
    models = (("uniform", (0.0, 1.0, -1.0)), ("gp-0.5", (0.0, 1.0, -0.5)),
              ("gp-0.2", (0.0, 1.0, -0.2)))

    def setup(self, seed):
        """Per (model, K): the objects every operation needs. Constructions
        that raise are recorded and their operations left out of the sweep."""
        cases, failures = [], []
        for label, params in self.models:
            for k in PAPER_KS:
                m = dist.make_gp(*params)
                case = {"label": label, "k": k, "model": m, "competitors": [m] * (k - 1),
                        "truthful": shade.truthful(m)}
                case["z"] = payoff.competition_distribution(case["competitors"])
                try:
                    eq = shade.equilibrium_shading(m, k)
                    case["equilibrium"] = eq
                    bids = [eq.bid_distribution()] * (k - 1)
                    case["z_eq"] = payoff.competition_distribution(bids)
                except NonMonotone:
                    failures.append(f"{label} K={k} equilibrium_shading")
                try:
                    case["first_price"] = shade.first_price_bid(m, k)
                except NonMonotone:
                    failures.append(f"{label} K={k} first_price_bid")
                if label == "uniform":
                    case["one_vs_uniform"] = shade.one_vs_uniform_shading(m, k)
                    case["rhos"] = [dist.GridFunction.from_callable(f, 0.0, 1.0, 512)
                                    for f in DIRECTIONS]
                cases.append(case)
        return cases, failures

    def setup_failures(self, state):
        return state[1]

    def ops(self, state, seed):
        cases, _ = state
        out = []
        for c in cases:
            out.extend(self._case_ops(c, PAPER_ALPHAS))
        order = np.random.default_rng(seed).permutation(len(out))
        return [out[i] for i in order]

    def _case_ops(self, c, alphas):
        m, k, comp, z = c["model"], c["k"], c["competitors"], c["z"]
        uniform = c["label"] == "uniform"
        mean = m.mean()
        out = [Op("quad.truthful", lambda: payoff.payoff_quadrature(m, c["truthful"], z).mean,
                  _near(_truthful_uniform(k), 1e-6) if uniform else None)]
        if "equilibrium" in c:
            out.append(Op("quad.equilibrium", lambda: payoff.payoff_quadrature(
                m, c["equilibrium"], c["z_eq"]).mean,
                _near(1 / (k * (k + 1)), 1e-5) if uniform else None))
        if "first_price" in c:
            out.append(Op("quad.first-price", lambda: payoff.first_price_payoff(
                m, c["first_price"], k), _near(1 / (k * (k + 1)), 1e-5) if uniform else None))
        for kind in ("myerson", "vcg-lazy", "vcg-eager"):
            out.append(Op("quad.curve", lambda kind=kind: payoff.linear_payoff_curve(
                m, comp, kind, alphas), lambda curve: all(0 <= v <= mean for _, v in curve)))
            if not uniform:
                check = None
            elif kind == "myerson":
                check = _near(-(2 ** k - 1) / (k * 2 ** (k + 1)), 1e-3)
            else:
                check = lambda d: d < -1e-3
            out.append(Op("quad.dalpha", lambda kind=kind: payoff.payoff_derivative_alpha(
                m, comp, 1.0, kind=kind), check))
        if uniform:
            truthful = _truthful_uniform(k)
            out.append(Op("quad.one-vs-uniform", lambda: payoff.payoff_quadrature(
                m, c["one_vs_uniform"], z).mean,
                _near(229 / 1728, 1e-5) if k == 3 else (lambda v: v > truthful)))
            beta = c["equilibrium"].as_grid_function()
            for rho in c["rhos"]:
                out.append(Op("quad.directional", lambda rho=rho: payoff.directional_derivative(
                    m, beta, rho, c["z_eq"]), lambda d: abs(d) < 1e-4))
        return out


WORKLOADS = {w.name: w for w in (McEquilibrium(), BspFit(), PaperQuadrature())}
