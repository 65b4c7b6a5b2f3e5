"""Value/bid distributions and the virtual-value calculus.

Two concrete model families are provided: closed-form generalized Pareto
models (the xi <= 0 branches only) and grid-backed models built from
tabulated cdf/pdf values with monotone piecewise-cubic interpolation.
Both expose the same surface: cdf, sf, pdf, quantile, mean, virtual value,
inverse virtual value, hazard rate and sampling.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import _quad
from .errors import InvalidParams, NonMonotone, NonRegular, OutOfSupport

GRID_N = 2048            # default knot count for grid-backed models
TAIL_CDF_CUTOFF = 1e-9   # virtual values on grids are only evaluated for F <= 1 - cutoff
INF_TRUNC_Q = 1.0 - 1e-10  # quantile at which unbounded supports are truncated for grids


@dataclass(frozen=True)
class GPParams:
    """Generalized Pareto parameters (location, scale, shape), shape <= 0."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma) and np.isfinite(self.xi)):
            raise InvalidParams("GP parameters must be finite")
        if self.sigma <= 0:
            raise InvalidParams(f"sigma must be positive, got {self.sigma}")
        if self.xi > 0:
            raise InvalidParams(f"xi must be <= 0 (heavy-tail branch unsupported), got {self.xi}")
        if self.xi != 0 and not np.isfinite(self.mu - self.sigma / self.xi):
            raise InvalidParams(f"xi = {self.xi} is too close to 0: the upper endpoint overflows")


class GridFunction:
    """A tabulated, strictly increasing function with an analytic derivative.

    Interpolation is monotone piecewise-cubic; evaluation at a knot returns
    the stored value exactly.
    """

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise InvalidParams("knots and values must be 1-d arrays of equal length >= 2")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise InvalidParams("knots and values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise NonMonotone("knots must be strictly increasing")
        if np.any(np.diff(values) <= 0):
            raise NonMonotone("values must be strictly increasing")
        self.knots = knots
        self.values = values
        self._interp = PchipInterpolator(knots, values, extrapolate=True)
        self._deriv = self._interp.derivative()
        if np.any(self._deriv(knots) <= 0):
            raise NonMonotone("interpolant derivative must be positive on the knot range")

    @classmethod
    def from_callable(cls, fn, lo, hi, n=GRID_N):
        xs = np.linspace(lo, hi, n)
        return cls(xs, fn(xs))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._interp(x)
        # knots evaluate to the stored values exactly
        idx = np.clip(np.searchsorted(self.knots, x), 0, self.knots.size - 1)
        return np.where(self.knots[idx] == x, self.values[idx], out)

    def derivative(self, x):
        return self._deriv(np.asarray(x, dtype=float))


class DistributionModel:
    """Common surface of value/bid distribution models."""

    kind = "abstract"

    @property
    def support(self):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - F(x), computed without cancellation when possible."""
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    @property
    def is_regular(self):
        raise NotImplementedError

    def virtual_value(self, x):
        raise NotImplementedError

    def inverse_virtual_value(self, t):
        raise NotImplementedError

    def virtual_value_clamped(self, x):
        """Vectorized virtual value with inputs clamped to the valid range."""
        raise NotImplementedError

    def _inverse_virtual_clamped(self, t):
        """Vectorized inverse virtual value, clamped to the valid range."""
        raise NotImplementedError

    def monopoly_price(self):
        return self.inverse_virtual_value(0.0)

    def hazard_rate(self, x):
        x = np.asarray(x, dtype=float)
        self._check_support(x)
        s = self.sf(x)
        if np.any(s <= 0):
            raise OutOfSupport("hazard rate undefined where F(x) = 1")
        return self.pdf(x) / s

    def sample(self, n, seed):
        """n i.i.d. draws via the quantile transform; deterministic in seed."""
        if n < 1:
            raise InvalidParams("n must be >= 1")
        rng = np.random.default_rng(seed)
        return self.quantile(rng.random(int(n)))

    def grid_upper(self):
        """Finite upper endpoint used when tabulating this model on a grid."""
        lo, hi = self.support
        return hi if np.isfinite(hi) else float(self.quantile(INF_TRUNC_Q))

    def default_grid(self, extra=()):
        """GRID_N equispaced knots from the support's low end to grid_upper(),
        merged with the points of extra that lie strictly inside."""
        lo, hi = self.support[0], self.grid_upper()
        xs = np.linspace(lo, hi, GRID_N)
        extra = np.asarray(extra, dtype=float)
        extra = extra[(extra > lo) & (extra < hi)]
        return np.unique(np.concatenate([xs, extra])) if extra.size else xs

    def _check_support(self, x, tol=1e-12):
        lo, hi = self.support
        span = (hi - lo) if np.isfinite(hi) else 1.0
        if np.any(x < lo - tol * span) or np.any(x > hi + tol * span):
            raise OutOfSupport(f"point outside support [{lo}, {hi}]")

    # Distribution of the virtualized quantity V = psi(X); used when this
    # model plays the role of a competitor's bid distribution.
    def _cdf_of_virtual(self, t):
        raise NotImplementedError

    def _pdf_of_virtual(self, t):
        raise NotImplementedError


class GPDistribution(DistributionModel):
    """Generalized Pareto model with closed-form virtual-value calculus."""

    kind = "generalized-pareto"

    def __init__(self, params: GPParams):
        self.params = params

    @property
    def support(self):
        p = self.params
        hi = np.inf if p.xi == 0 else p.mu - p.sigma / p.xi
        return (p.mu, hi)

    def sf(self, x):
        p = self.params
        x = np.asarray(x, dtype=float)
        z = (x - p.mu) / p.sigma
        if p.xi == 0:
            out = np.exp(-np.clip(z, 0.0, None))
        else:
            base = np.clip(1.0 + p.xi * z, 0.0, None)
            out = base ** (-1.0 / p.xi)
        return np.where(z < 0, 1.0, out)

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def pdf(self, x):
        p = self.params
        x = np.asarray(x, dtype=float)
        z = (x - p.mu) / p.sigma
        if p.xi == 0:
            out = np.exp(-z) / p.sigma
            return np.where(z < 0, 0.0, out)
        base = 1.0 + p.xi * z
        inside = (z >= 0) & (base > 0)
        out = np.zeros_like(z)
        out[inside] = base[inside] ** (-1.0 / p.xi - 1.0) / p.sigma
        # bounded-support endpoint: finite limit only for xi = -1
        if p.xi == -1:
            out[(z >= 0) & (base == 0)] = 1.0 / p.sigma
        return out

    def quantile(self, q):
        p = self.params
        q = np.asarray(q, dtype=float)
        if np.any(q < 0) or np.any(q > 1):
            raise InvalidParams("quantile argument must lie in [0, 1]")
        u = 1.0 - q
        if p.xi == 0:
            with np.errstate(divide="ignore"):
                return p.mu - p.sigma * np.log(u)
        return p.mu + (p.sigma / p.xi) * (u ** (-p.xi) - 1.0)

    def mean(self):
        p = self.params
        return p.mu + p.sigma / (1.0 - p.xi)

    @property
    def is_regular(self):
        return True

    def monopoly_price(self):
        p = self.params
        return (p.sigma - p.xi * p.mu) / (1.0 - p.xi)

    # psi(x) = (1 - xi)(x - r*) is affine; the maps below state it once in
    # each direction, unclipped, for the checked and clamped surfaces
    def _affine_virtual(self, x):
        return (1.0 - self.params.xi) * (np.asarray(x, dtype=float) - self.monopoly_price())

    def _affine_inverse(self, t):
        return np.asarray(t, dtype=float) / (1.0 - self.params.xi) + self.monopoly_price()

    def virtual_value(self, x):
        x = np.asarray(x, dtype=float)
        self._check_support(x)
        return self._affine_virtual(x)

    def virtual_value_clamped(self, x):
        return self._affine_virtual(np.clip(x, *self.support))

    def inverse_virtual_value(self, t):
        x = self._affine_inverse(t)
        self._check_support(x, tol=1e-9)
        return x

    def _inverse_virtual_clamped(self, t):
        return np.clip(self._affine_inverse(t), *self.support)

    def _cdf_of_virtual(self, t):
        return self.cdf(self._inverse_virtual_clamped(t))

    def _pdf_of_virtual(self, t):
        # unclipped: f_Z must stay 0 above the top of the virtualized support
        return self.pdf(self._affine_inverse(t)) / (1.0 - self.params.xi)


class GridDistribution(DistributionModel):
    """Distribution backed by tabulated cdf (and optionally pdf) values."""

    kind = "grid-backed"

    def __init__(self, knots, cdf_values, pdf_values=None):
        knots = np.asarray(knots, dtype=float)
        cdf_values = np.asarray(cdf_values, dtype=float)
        if knots.ndim != 1 or knots.shape != cdf_values.shape or knots.size < 4:
            raise InvalidParams("knots and cdf values must be 1-d arrays of equal length >= 4")
        if np.any(np.diff(knots) <= 0):
            raise NonMonotone("knots must be strictly increasing")
        if np.any(np.diff(cdf_values) <= 0):
            raise NonMonotone("cdf values must be strictly increasing")
        if cdf_values[0] < -1e-12 or cdf_values[-1] > 1.0 + 1e-12:
            raise InvalidParams("cdf values must lie in [0, 1]")
        self.knots = knots
        self.cdf_values = np.clip(cdf_values, 0.0, 1.0)
        self._F = PchipInterpolator(self.knots, self.cdf_values, extrapolate=False)
        if pdf_values is None:
            pdf_values = self._F.derivative()(knots)
        else:
            pdf_values = np.asarray(pdf_values, dtype=float)
        if np.any(~np.isfinite(pdf_values)) or np.any(pdf_values[1:-1] <= 0):
            raise InvalidParams("density must be finite and positive on the support interior")
        self.pdf_values = np.clip(pdf_values, 0.0, None)
        self._f = PchipInterpolator(self.knots, self.pdf_values, extrapolate=False)
        with np.errstate(divide="ignore", over="ignore"):
            self._Q = PchipInterpolator(self.cdf_values, self.knots, extrapolate=False)

        # virtual value tabulated where the tail is numerically safe
        cutoff = 1.0 - TAIL_CDF_CUTOFF
        mask = self.cdf_values <= cutoff
        if mask.sum() < 4:
            raise InvalidParams("too few knots below the tail cutoff")
        xs = self.knots[mask]
        fcdf = self.cdf_values[mask]
        fpdf = self.pdf_values[mask]
        if self.cdf_values[-1] > cutoff and fcdf[-1] < cutoff:
            # extend the tabulation right up to the cutoff quantile so that the
            # valid range misses at most 1e-9 of mass below the upper endpoint
            x_c = float(self.quantile(np.asarray(cutoff)))
            if x_c > xs[-1] + 1e-15 * (self.knots[-1] - self.knots[0]):
                xs = np.append(xs, x_c)
                fcdf = np.append(fcdf, cutoff)
                fpdf = np.append(fpdf, np.clip(self._f(x_c), 0.0, None))
        psi = xs - (1.0 - fcdf) / np.clip(fpdf, 1e-300, None)
        self._psi_knots = xs
        self._psi_values = psi
        # regularity is only decidable up to the grid's own resolution
        scale = max(abs(psi[0]), abs(psi[-1]), 1e-6)
        self._regular = bool(np.all(np.diff(psi) > -1e-9 * scale))
        self._psi = PchipInterpolator(xs, psi, extrapolate=True)
        self._psi_deriv = self._psi.derivative()
        if self._regular:
            # inverse built on the strictly increasing envelope of the table
            keep = np.concatenate([[True], np.diff(np.maximum.accumulate(psi)) > 0])
            with np.errstate(divide="ignore", over="ignore"):
                self._psi_inv = PchipInterpolator(psi[keep], xs[keep], extrapolate=True)
        else:
            self._psi_inv = None

    @property
    def support(self):
        return (float(self.knots[0]), float(self.knots[-1]))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self._F(np.clip(x, self.knots[0], self.knots[-1]))
        out = np.where(x < self.knots[0], self.cdf_values[0], out)
        out = np.where(x > self.knots[-1], self.cdf_values[-1], out)
        return np.clip(out, 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.knots[0]) & (x <= self.knots[-1])
        out = np.zeros_like(x, dtype=float)
        out[inside] = np.clip(self._f(x[inside]), 0.0, None)
        return out

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < 0) or np.any(q > 1):
            raise InvalidParams("quantile argument must lie in [0, 1]")
        qc = np.clip(q, self.cdf_values[0], self.cdf_values[-1])
        x = self._Q(qc)
        # Newton refinement against the forward interpolant
        for _ in range(3):
            err = self._F(np.clip(x, self.knots[0], self.knots[-1])) - qc
            slope = np.clip(self._f(np.clip(x, self.knots[0], self.knots[-1])), 1e-12, None)
            x = np.clip(x - err / slope, self.knots[0], self.knots[-1])
        return x

    def mean(self):
        return float(np.sum(_quad.panel_integrals(lambda t: t * self.pdf(t), self.knots)))

    @property
    def is_regular(self):
        return self._regular

    def virtual_value(self, x):
        x = np.asarray(x, dtype=float)
        self._check_support(x)
        if np.any(x > self._psi_knots[-1] + 1e-12 * (self.knots[-1] - self.knots[0])):
            raise OutOfSupport(
                "virtual value is only evaluated up to the F <= 1 - 1e-9 quantile on grids")
        return self.virtual_value_clamped(x)

    def virtual_value_clamped(self, x):
        x = np.clip(np.asarray(x, dtype=float), self._psi_knots[0], self._psi_knots[-1])
        return self._psi(x)

    def inverse_virtual_value(self, t):
        if not self._regular:
            raise NonRegular("virtual value is not increasing on the grid")
        t = np.asarray(t, dtype=float)
        span = self._psi_values[-1] - self._psi_values[0]
        if np.any(t < self._psi_values[0] - 1e-9 * span) or \
                np.any(t > self._psi_values[-1] + 1e-9 * span):
            raise OutOfSupport("target outside the range of the virtual value")
        return self._inverse_virtual_clamped(t)

    def _inverse_virtual_clamped(self, t):
        if not self._regular:
            raise NonRegular("virtual value is not increasing on the grid")
        t = np.clip(np.asarray(t, dtype=float), self._psi_values[0], self._psi_values[-1])
        x = self._psi_inv(t)
        lo, hi = self._psi_knots[0], self._psi_knots[-1]
        # damped Newton: skip updates in near-flat regions of psi
        for _ in range(3):
            x = np.clip(x, lo, hi)
            step = (self._psi(x) - t) / np.clip(self._psi_deriv(x), 1e-12, None)
            step = np.where(np.abs(step) > 0.05 * (hi - lo), 0.0, step)
            x = x - step
        return np.clip(x, lo, hi)

    def _cdf_of_virtual(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t, dtype=float)
        below = t < self._psi_values[0]
        above = t > self._psi_values[-1]
        mid = ~(below | above)
        out[below] = self.cdf_values[0]
        out[above] = 1.0
        out[mid] = self.cdf(self._inverse_virtual_clamped(t[mid]))
        return out

    def _pdf_of_virtual(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=float)
        mid = (t >= self._psi_values[0]) & (t <= self._psi_values[-1])
        x = self._inverse_virtual_clamped(t[mid])
        out[mid] = self.pdf(x) / np.clip(self._psi_deriv(x), 1e-12, None)
        return out


def make_gp(mu, sigma=None, xi=None) -> GPDistribution:
    """Build a generalized Pareto model from (mu, sigma, xi) or a GPParams."""
    params = mu if isinstance(mu, GPParams) else GPParams(float(mu), float(sigma), float(xi))
    return GPDistribution(params)


def make_uniform() -> GPDistribution:
    """Unif[0, 1], i.e. GP(0, 1, -1)."""
    return make_gp(0.0, 1.0, -1.0)


def make_grid(knots, cdf_values, pdf_values=None) -> GridDistribution:
    return GridDistribution(knots, cdf_values, pdf_values)


def transform_distribution(model: DistributionModel, beta: GridFunction) -> GridDistribution:
    """Distribution of B = beta(X) for X ~ model, as a grid-backed model.

    The cdf/pdf knot values are exact images of the base model's values:
    H(beta(x)) = F(x) and h(beta(x)) = f(x) / beta'(x).
    """
    xs = model.default_grid()
    if np.count_nonzero((beta.knots > xs[0]) & (beta.knots < xs[-1])) <= 4 * GRID_N:
        xs = model.default_grid(beta.knots)
    slope = beta.derivative(xs)
    if np.any(slope <= 0):
        raise NonMonotone("beta must be strictly increasing on the support")
    return GridDistribution(beta(xs), model.cdf(xs), model.pdf(xs) / slope)


def conditional_tail_expectation(model: DistributionModel, h, x) -> float:
    """E[h(X) | X >= x]; h=None means the identity (closed form for GP models)."""
    x = float(x)
    model._check_support(np.asarray(x))
    if h is None and isinstance(model, GPDistribution):
        p = model.params
        return (x - p.mu + p.sigma) / (1.0 - p.xi) + p.mu
    fn = (lambda t: t) if h is None else h
    tail = float(model.sf(x))
    upper = model.grid_upper()
    if tail < 1e-12 or x >= upper:
        # degenerate tail: E[h(X) | X >= x] -> h(x)
        return float(np.asarray(fn(np.asarray([x], dtype=float)))[0])
    num = _quad.integrate(lambda t: np.asarray(fn(t)) * model.pdf(t), x, upper)
    if not np.isfinite(num):
        raise InvalidParams("h is not integrable against the density")
    return num / tail


def invert_virtual_from_samples(w_samples, t) -> float:
    """Empirical estimate of psi^{-1}(t) from samples of W = psi(X).

    Uses E[W 1{W <= t}] / (P(W <= t) - 1).
    """
    w = np.asarray(w_samples, dtype=float)
    ind = w <= t
    p = ind.mean()
    if p >= 1.0:
        raise InvalidParams("degenerate denominator: P(W <= t) >= 1")
    return float((w * ind).mean() / (p - 1.0))


def invert_virtual_from_distribution(model_of_w: DistributionModel, t) -> float:
    """Population version of invert_virtual_from_samples given the law of W."""
    t = float(t)
    lo, _ = model_of_w.support
    p = float(model_of_w.cdf(t))
    if p >= 1.0:
        raise InvalidParams("degenerate denominator: P(W <= t) >= 1")
    if t <= lo:
        raise OutOfSupport("t must exceed the lower endpoint of W's support")
    num = _quad.integrate(lambda w: w * model_of_w.pdf(w), lo, t)
    return num / (p - 1.0)


def model_from_config(cfg: dict) -> DistributionModel:
    """Parse {"kind": "gp", ...} or {"kind": "grid", ...} JSON config."""
    kind = cfg.get("kind")
    if kind == "gp":
        return make_gp(cfg["mu"], cfg["sigma"], cfg["xi"])
    if kind == "grid":
        return make_grid(cfg["knots"], cfg["cdf"], cfg.get("pdf"))
    raise InvalidParams(f"unknown distribution kind: {kind!r}")
