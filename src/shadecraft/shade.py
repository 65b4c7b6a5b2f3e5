"""Shading strategies: how a strategic bidder maps values to bids.

Every strategy knows its bid function, the bid function's derivative, the
induced bid distribution, and its exact virtualized bid psi_B(beta(x)). The
transform identity psi_B(beta(x)) = beta(x) + beta'(x) (psi_X(x) - x) lives
in `virtualize`; the payoff engines call it from there. A strategy built
from a target virtualized bid h (`GridShading`) carries h in closed form.
The bid law is pushed forward once, by `dist.push_forward`, with the
strategy's own bid derivative on the base model's `default_grid`, with the
strategy's kinks as extra knots.
"""

import functools

import numpy as np

from . import _quad
from .dist import (DistributionModel, GPDistribution, GPParams, GridFunction, _get,
                   _gp_params, make_gp, push_forward)
from .errors import InvalidParams, NonMonotone, NonRegular

DEFAULT_EPS = 1e-6  # the "0+" convention for one_vs_uniform_shading


def virtualize(base: DistributionModel, fn, derivative, x):
    """psi_B(fn(x)) for B = fn(X), X ~ base, by the transform identity
    fn(x) + fn'(x) (psi_X(x) - x); psi_X is clamped to its valid range."""
    x = np.asarray(x, dtype=float)
    return fn(x) + derivative(x) * (base.virtual_value_clamped(x) - x)


class ShadingStrategy:
    """Base class; subclasses define bid(), bid_derivative() and
    virtualized_bid(), the exact psi_B(bid(x))."""

    base: DistributionModel
    kinks: tuple = ()  # value-space locations where the virtualized bid has kinks

    def bid(self, x):
        raise NotImplementedError

    def bid_derivative(self, x):
        raise NotImplementedError

    def virtualized_bid(self, x):
        raise NotImplementedError

    def bid_distribution(self) -> DistributionModel:
        """Distribution of B = bid(X), built once, on first use."""
        return self._bid_law

    @functools.cached_property
    def _bid_law(self) -> DistributionModel:
        return push_forward(self.base, self.bid, self.bid_derivative,
                            self.base.default_grid(self.kinks))

    def as_grid_function(self) -> GridFunction:
        xs = self.base.default_grid(self.kinks)
        return GridFunction(xs, self.bid(xs))


def _alpha(alpha) -> float:
    """A linear shading level as a float; InvalidParams unless a normal float in (0, 1]."""
    alpha = float(alpha)
    if not 2.0 ** -1022 <= alpha <= 1:  # a subnormal alpha psi(x < r*) rounds to -0.0
        raise InvalidParams(f"alpha must be a normal float in (0, 1], got {alpha}")
    return alpha


class LinearShading(ShadingStrategy):
    """bid(x) = alpha * x with 0 < alpha <= 1."""

    def __init__(self, base: DistributionModel, alpha: float):
        self.base = base
        self.alpha = _alpha(alpha)

    def bid(self, x):
        return self.alpha * np.asarray(x, dtype=float)

    def bid_derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.alpha)

    def virtualized_bid(self, x):
        return self.alpha * self.base.virtual_value_clamped(x)

    @functools.cached_property
    def _bid_law(self):
        return self.base.scaled(self.alpha)


class GridShading(ShadingStrategy):
    """Shading whose virtualized bid is the increasing target h: the bid is
    gamma = gamma_from_target(base, h, kinks), tabulated on the grid."""

    def __init__(self, base: DistributionModel, target, kinks=()):
        self.base = base
        self._target = target
        self.kinks = tuple(kinks)
        self._gamma = gamma_from_target(base, target, self.kinks)

    def bid(self, x):
        return self._gamma(x)

    def bid_derivative(self, x):
        # the shading ODE gives the exact derivative:
        # gamma'(x) = (h(x) - gamma(x)) / (psi(x) - x); fall back to the
        # interpolant where psi(x) - x ~ 0 (the upper support endpoint)
        x = np.asarray(x, dtype=float)
        gap = self.base.virtual_value_clamped(x) - x
        safe = np.abs(gap) > 1e-9
        ode = (np.asarray(self._target(x)) - self.bid(x)) / np.where(safe, gap, 1.0)
        return np.where(safe, ode, self._gamma.derivative(x))

    def virtualized_bid(self, x):
        return np.asarray(self._target(np.asarray(x, dtype=float)))

    def as_grid_function(self):
        return self._gamma


class GPReparamShading(ShadingStrategy):
    """Bid so that the bid distribution is exactly GP(params).

    bid(x) = GP(params).isf(1 - F1(x)) = (sigma/xi) [(1 - F1(x))^{-xi} - 1] + mu.
    """

    def __init__(self, base: DistributionModel, params: GPParams):
        self.base = base
        self.params = params
        self._bid_law = GPDistribution(params)  # exact, so never pushed forward

    def bid(self, x):
        u = self.base.sf(np.asarray(x, dtype=float))
        return self._bid_law.isf(np.maximum(u, 1e-300))

    def bid_derivative(self, x):
        p = self.params
        x = np.asarray(x, dtype=float)
        u = self.base.sf(x)
        return p.sigma * self.base.pdf(x) * np.maximum(u, 1e-300) ** (-p.xi - 1.0)

    def virtualized_bid(self, x):
        return self._bid_law.virtual_value_clamped(self.bid(x))


def truthful(base: DistributionModel) -> ShadingStrategy:
    return LinearShading(base, 1.0)


def linear_shading(base: DistributionModel, alpha: float) -> ShadingStrategy:
    """Linear shading bid = alpha * value; induces psi_B(alpha x) = alpha psi_X(x)."""
    return LinearShading(base, alpha)


def gamma_from_target(model: DistributionModel, h, kinks=()) -> GridFunction:
    """Solve the shading ODE so the virtualized bid equals h: gamma(x) = E[h(X) | X >= x].

    h must be increasing on the support. Tail integrals are computed with
    per-interval Gauss-Legendre panels accumulated from the upper endpoint;
    the upper endpoint itself takes the analytic limit gamma(u) = h(u).
    """
    xs = model.default_grid(kinks)
    hx = np.asarray(h(xs), dtype=float)
    if np.any(np.diff(hx) < 0):
        raise NonMonotone("target h must be increasing on the support")
    panels = _quad.panel_integrals(lambda t: np.asarray(h(t)) * model.pdf(t), xs)
    tail = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]])
    sf = np.clip(model.sf(xs), 1e-300, None)
    values = tail / sf
    values[-1] = hx[-1]
    return GridFunction(xs, values)


def first_price_bid(model: DistributionModel, k: int) -> GridFunction:
    """Symmetric first-price equilibrium bid against k-1 i.i.d. rivals.

    beta_I(x) = E[Y1 | Y1 < x] where Y1 is the max of k-1 draws from the
    model; computed as a prefix integral of y dG(y) over G(x) = F^{k-1}(x).
    The table is built once per (model object, k) and shared, read-only, by
    every later call, equilibrium_shading's included; a build that raises
    is not kept, so it raises again on the next call.
    """
    if k < 2:
        raise InvalidParams("k must be >= 2")
    tables = model.__dict__.setdefault("_first_price_bids", {})
    if k not in tables:
        tables[k] = _first_price_table(model, k)
    return tables[k]


def _first_price_table(model: DistributionModel, k: int) -> GridFunction:
    xs = model.default_grid()
    big_g = model.cdf(xs) ** (k - 1)
    if np.any(big_g[1:] <= 0):
        raise InvalidParams("cdf must be positive beyond the lower support endpoint")
    panels = _quad.panel_integrals(
        lambda t: t * (k - 1) * model.cdf(t) ** (k - 2) * model.pdf(t), xs)
    prefix = np.concatenate([[0.0], np.cumsum(panels)])
    values = np.empty_like(xs)
    values[0] = xs[0]
    values[1:] = prefix[1:] / big_g[1:]
    table = GridFunction(xs, values)
    table.knots.flags.writeable = table.values.flags.writeable = False
    return table


def equilibrium_shading(model: DistributionModel, k: int) -> ShadingStrategy:
    """Symmetric Myerson equilibrium: shade so the virtualized bid equals the
    first-price bid, i.e. bid(x) = E[beta_I(X) | X >= x]."""
    if k < 2:
        raise InvalidParams("k must be >= 2")
    if not model.is_regular:
        raise NonRegular("equilibrium shading requires a regular value distribution")
    return GridShading(model, first_price_bid(model, k))


def one_vs_uniform_shading(model: DistributionModel, k: int,
                           eps: float = DEFAULT_EPS) -> ShadingStrategy:
    """Near-optimal shading for one strategic bidder against k-1 truthful
    Unif[0,1] bidders (k bidders in total).

    The target virtualized bid is the piecewise function h_k^eps: a slope
    (k-1)/k * eps/(1+eps) ramp below (1+eps)/(k-1) and the affine
    (k-1)/k (x - 1/(k-1)) branch above. eps > 0 keeps the virtualized bid
    strictly positive, so the bidder always clears her (vanishing) reserve.
    """
    if k < 2:
        raise InvalidParams("k must be >= 2")
    if not 0 <= eps < np.inf:
        raise InvalidParams("eps must be finite and >= 0")
    lo, hi = model.support
    bound = (k + 1) / (k - 1)
    if lo < -1e-12 or hi > bound + 1e-12:
        raise InvalidParams(f"support must lie within [0, {bound}] for k={k}")
    x_eps = (1.0 + eps) / (k - 1)
    if eps == 0 and lo < x_eps - 1e-12:
        raise InvalidParams("eps=0 only allowed when h stays strictly increasing "
                            "on the support; use eps > 0")
    slope_hi = (k - 1) / k
    slope_lo = slope_hi * eps / (1.0 + eps)

    def h(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < x_eps, slope_lo * x, slope_hi * (x - 1.0 / (k - 1)))

    return GridShading(model, h, kinks=(x_eps,) if lo < x_eps < hi else ())


def gp_reparam_shading(model: DistributionModel, params: GPParams) -> ShadingStrategy:
    """Shade so the bid distribution is exactly GP(params)."""
    return GPReparamShading(model, params)


def gp_simple_vs_uniform(sigma1: float, xi1: float, k: int) -> ShadingStrategy:
    """Closed-form linear shading for a GP(0, sigma1, xi1) bidder with mean 1/k
    against k truthful Unif[0,1] adversaries: slope k / ((k+1)(1-xi1))."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    base = make_gp(0.0, sigma1, xi1)
    if abs(base.mean() - 1.0 / k) >= 1e-9:
        raise InvalidParams("requires sigma1/(1-xi1) == 1/k")
    slope = k / ((k + 1) * (1.0 - xi1))
    return LinearShading(base, slope)


def strategy_from_config(cfg: dict, base: DistributionModel) -> ShadingStrategy:
    """Parse strategy JSON config against a given value distribution."""
    kind = cfg.get("kind")
    if kind == "truthful":
        return truthful(base)
    if kind == "linear":
        return linear_shading(base, _get(cfg, "alpha", float))
    if kind == "equilibrium":
        return equilibrium_shading(base, _get(cfg, "k", int))
    if kind == "one-vs-uniform":
        return one_vs_uniform_shading(base, _get(cfg, "k", int),
                                      _get(cfg, "eps", float, DEFAULT_EPS))
    if kind == "gp-reparam":
        return gp_reparam_shading(base, _gp_params(cfg))
    raise InvalidParams(f"unknown strategy kind: {kind!r}")
