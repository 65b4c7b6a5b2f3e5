"""Optimizers used by strategic bidders: scalar shading levels and the
3-parameter GP re-parametrization.

Each job has one search: a 64-point scan refined by scipy's bounded Brent
search for the scalar level, and scipy's L-BFGS-B with the analytic payoff
gradient for the GP parameters. `converged` is scipy's success flag, so a
search that stops on its iteration budget reports False.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import payoff as payoff_mod
from .dist import GPParams
from .errors import InvalidParams, OptimizationError

_XI_CAP = -1e-6  # keep the optimizer off the exponential-branch switch


@dataclass(frozen=True)
class OptResult:
    argmax: object
    value: float
    iterations: int
    converged: bool


def maximize_scalar(objective, lo: float, hi: float, tol: float = 1e-8) -> OptResult:
    """Coarse 64-point scan, then bounded Brent search (absolute tolerance
    `tol`) between the neighbours of the best scan point; the best scan point
    is kept when Brent does no better. `iterations` is 64 plus Brent's."""
    if not lo < hi or tol <= 0:
        raise InvalidParams("need lo < hi and tol > 0")
    xs = np.linspace(lo, hi, 64)
    fs = np.array([objective(float(x)) for x in xs])
    best = int(np.argmax(fs))
    bracket = (xs[max(best - 1, 0)], xs[min(best + 1, xs.size - 1)])
    res = minimize_scalar(lambda x: -objective(float(x)), bounds=bracket,
                          method="bounded", options={"xatol": tol})
    x_star, f_star = float(res.x), -float(res.fun)
    if fs[best] > f_star:
        x_star, f_star = float(xs[best]), float(fs[best])
    return OptResult(argmax=x_star, value=f_star, iterations=xs.size + int(res.nit),
                     converged=bool(res.success))


def maximize_bsp(d1, z, init: GPParams, bounds, restarts: int = 8,
                 max_iter: int = 200, seed: int = 0,
                 include_point_mass: bool = True) -> OptResult:
    """Maximize the GP re-parametrized payoff over (mu, sigma, xi).

    One L-BFGS-B run with the analytic gradient from `init` (clipped into the
    bounds) and from each of `restarts` seeded uniform starts within the
    bounds, each capped at `max_iter` iterations; returns the best finite
    run. sigma is kept positive and xi at or below -1e-6. `iterations` sums
    over all starts; `converged` is scipy's success flag for the kept run.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if len(bounds) != 3:
        raise InvalidParams("bounds must cover (mu, sigma, xi)")
    if max_iter < 1 or restarts < 0:
        raise InvalidParams(f"need max_iter >= 1 and restarts >= 0, got {max_iter}, {restarts}")
    if bounds[1][0] <= 0:
        bounds[1] = (1e-9, bounds[1][1])
    bounds[2] = (bounds[2][0], min(bounds[2][1], _XI_CAP))
    x_init = np.clip([init.mu, init.sigma, init.xi], *np.array(bounds).T)

    def objective(x):
        return payoff_mod.bsp_payoff(d1, GPParams(*x), z)

    def gradient(x):
        return payoff_mod.bsp_payoff_gradient(d1, GPParams(*x), z,
                                              include_point_mass=include_point_mass)

    rng = np.random.default_rng(seed)
    starts = [x_init]
    for _ in range(restarts):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))

    best = None
    total_iters = 0
    for x0 in starts:
        res = minimize(lambda v: -objective(v), x0, jac=lambda v: -gradient(v),
                       method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": max_iter, "ftol": 1e-14, "gtol": 1e-7})
        total_iters += int(res.nit)
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise OptimizationError("all restarts diverged")
    return OptResult(argmax=GPParams(*best.x), value=-float(best.fun),
                     iterations=total_iters, converged=bool(best.success))
