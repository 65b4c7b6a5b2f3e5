"""Value/bid distributions and the virtual-value calculus.

Two concrete model families are provided: closed-form generalized Pareto
models (the xi <= 0 branches only) and grid-backed models built from
tabulated cdf/pdf values with monotone piecewise-cubic interpolation.
Both expose the same surface: cdf, sf, pdf, quantile, isf, mean, virtual
value, inverse virtual value, hazard rate and sampling. A family supplies
psi and its inverse clamped into `psi_domain`, and psi's slope;
`DistributionModel` derives `virtual_range`, the checked pair and
`_virtual_law`, the law of psi(X), once. `law_key` tells equal laws apart
from different ones, so that `_each_distinct` reads each law once.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly

from . import _quad
from .errors import ConfigError, InvalidParams, NonMonotone, NonRegular, OutOfSupport

GRID_N = 2048            # default knot count for grid-backed models
TAIL_CDF_CUTOFF = 1e-9   # virtual values on grids are only evaluated for F <= 1 - cutoff
INF_TRUNC_Q = 1.0 - 1e-10  # quantile at which unbounded supports are truncated for grids
# Batches smaller than this go to scipy's compiled PPoly evaluation, which
# gives the same bits and wins on small batches, such as the ~15 points of
# a quadrature panel. Values on the 2,048-knot uniform bid table, scipy
# against numpy (2-core host): 9/42 us at 16 points, 28/51 at 512, 97/58
# at 1,024; with the slope too, 97/64 at 512.
_NUMPY_MIN_POINTS = 1024


def _power_sum(c, i, s):
    """sum_k c[-1 - k, i] * s**k, term by term in scipy PPoly's order."""
    out = c[-1][i]
    power = s
    for k, row in enumerate(c[-2::-1]):
        if k:
            power = power * s
        out += row[i] * power
    return out


def _signless_zeros(pp):
    # scipy starts each sum from 0.0, turning a constant term of -0.0 into
    # 0.0; doing that here once changes none of scipy's results and lets a
    # numpy sum start from the constant term
    pp.c[-1] += 0.0
    return pp


def _end_slope(h0, h1, m0, m1):
    # the one-sided three-point slope, set to 0 where its sign differs from
    # the end interval's and clamped to 3 m0 where the data turn
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """Fritsch-Carlson PCHIP of (x, y) as a PPoly that extrapolates: scipy's
    PchipInterpolator(x, y, extrapolate=True) coefficient for coefficient, by
    its arithmetic in its order. Refuses what scipy refuses: InvalidParams for
    non-finite knots, values or slopes, NonMonotone for knots that do not
    strictly increase."""
    x = np.array(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise InvalidParams("knots and values must be 1-d arrays of equal length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParams("knots and values must be finite")
    h = x[1:] - x[:-1]
    if (h <= 0).any():
        raise NonMonotone("knots must be strictly increasing")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = (y[1:] - y[:-1]) / h
        d = np.empty_like(y)
        if x.size == 2:  # the line through both knots
            d[:] = m[0]
        else:
            # weighted harmonic mean of the neighbouring secants, 0 at an extremum
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            sign = np.sign(m)
            flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        if not np.isfinite(d).all():
            raise InvalidParams("interpolant slopes must be finite at the knots")
        t = (d[:-1] + d[1:] - 2 * m) / h
        c = np.array((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
    return PPoly.construct_fast(c, x, extrapolate=True)


class _Table:
    """Fritsch-Carlson PCHIP interpolant of (x, y) and its slope, both
    extrapolated from the end intervals, built by `_pchip` and evaluated bit
    for bit as scipy's PchipInterpolator evaluates them.

    Large batches locate each point's interval once, for value and slope
    together. On knots that are equispaced to within one interval the index
    is an affine guess with a one-step correction; otherwise it is a binary
    search on the interior knots.
    """

    def __init__(self, x, y, slopes=None):
        self._pp = _signless_zeros(_pchip(x, y))
        if slopes is not None:
            self._dpp = _signless_zeros(_pchip(x, slopes))
        self.x = self._pp.x
        self._scale = (self.x.size - 1) / (self.x[-1] - self.x[0])
        # the guess is monotone in q, so it is within one interval of every
        # point's interval when it is for every knot
        miss = self._guess(self.x) - np.arange(self.x.size)
        if np.any((miss < -1) | (miss > 0)):
            self._scale = None

    @functools.cached_property
    def _dpp(self):
        # the slope: the interpolant's derivative, or the PCHIP of the
        # tabulated slopes given at construction (a cdf table's density)
        return _signless_zeros(self._pp.derivative())

    def _guess(self, q):
        # NaN and +inf guess the last interval, as searchsorted sorts them
        return np.fmin(np.maximum((q - self.x[0]) * self._scale, 0.0),
                       self.x.size - 2).astype(np.intp)

    def interval(self, q):
        """np.searchsorted(x[1:-1], q, side="right"): the polynomial piece at q."""
        if self._scale is None:
            return np.searchsorted(self.x[1:-1], q, side="right")
        i = self._guess(q)
        return np.clip(i + (q >= self.x[i + 1]) - (q < self.x[i]), 0, self.x.size - 2)

    def _eval(self, q, *pps):
        flat = q.ravel()
        i = self.interval(flat)
        s = flat - self.x[i]
        # scipy's compiled loop is silent where inf - inf makes a NaN
        with np.errstate(invalid="ignore", over="ignore"):
            return tuple(_power_sum(pp.c, i, s).reshape(q.shape) for pp in pps)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        return self._pp(q) if q.size < _NUMPY_MIN_POINTS else self._eval(q, self._pp)[0]

    def slope(self, q):
        q = np.asarray(q, dtype=float)
        return self._dpp(q) if q.size < _NUMPY_MIN_POINTS else self._eval(q, self._dpp)[0]

    def value_and_slope(self, q):
        q = np.asarray(q, dtype=float)
        if q.size < _NUMPY_MIN_POINTS:
            return self._pp(q), self._dpp(q)
        return self._eval(q, self._pp, self._dpp)

    def _newton(self, y, x, lo, hi, cap):
        x = np.clip(x, lo, hi)
        value, slope = self.value_and_slope(x)
        # np.clip(slope, 1e-12, None) is this maximum, behind ~3 us of Python
        step = (value - y) / np.maximum(slope, 1e-12)
        if cap is not None:
            step = np.where(np.abs(step) > cap, 0.0, step)
        return x - step, step

    def invert(self, y, x, lo, hi, cap=None):
        """The q in [lo, hi] where the table is y, refined from the guess x
        (broadcast to y's shape) by 3 Newton steps, the slope floored at 1e-12;
        a step longer than cap is skipped. A point whose step is exactly 0 is a
        fixed point that every later step would repeat, so after the first step
        only the points that moved go on, and the steps end when none moves."""
        y = np.asarray(y, dtype=float)
        x, step = self._newton(y, x, lo, hi, cap)
        live = step.ravel().nonzero()[0]  # np.flatnonzero, without its call overhead
        if live.size:
            x = np.asarray(x, order="C")
            flat = x.reshape(-1)  # a view, in step's flat order
            q = flat[live]
            t = (y if y.shape == x.shape else np.broadcast_to(y, x.shape)).ravel()[live]
            for _ in range(2):
                q, step = self._newton(t, q, lo, hi, cap)
                if not np.count_nonzero(step):
                    break
            flat[live] = q
        return np.clip(x, lo, hi)


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
        # the table refuses all but finite 1-d data on strictly increasing knots
        self._table = _Table(knots, values)
        self.knots = self._table.x
        self.values = np.asarray(values, dtype=float)
        if np.any(np.diff(self.values) <= 0):
            raise NonMonotone("values must be strictly increasing")
        if np.any(self._table.slope(self.knots) <= 0):
            raise NonMonotone("interpolant derivative must be positive on the knot range")

    @classmethod
    def from_callable(cls, fn, lo, hi, n=GRID_N):
        xs = np.linspace(lo, hi, n)
        return cls(xs, fn(xs))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # each knot but the last starts a piece (s = 0), where the cubic is
        # exactly the stored value
        return np.where(x == self.knots[-1], self.values[-1], self._table(x))

    def derivative(self, x):
        return self._table.slope(x)


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

    def isf(self, u):
        """Inverse survival function, the x with 1 - F(x) = u."""
        return self.quantile(1.0 - np.asarray(u, dtype=float))

    def mean(self):
        raise NotImplementedError

    @property
    def is_regular(self):
        raise NotImplementedError

    def virtual_value_clamped(self, x):
        """Vectorized virtual value with inputs clamped into psi_domain."""
        raise NotImplementedError

    def _inverse_virtual_clamped(self, t):
        """Vectorized inverse virtual value, clamped into psi_domain."""
        raise NotImplementedError

    def virtual_value_slope(self, x):
        """psi'(x), positive on a regular model."""
        raise NotImplementedError

    @property
    def law_key(self):
        """Equal between two models only if they give the same numbers: by
        default the model itself, which matches only itself."""
        return self

    @functools.cached_property
    def psi_domain(self):
        """(lo, hi), the values where psi is evaluated: the support by default."""
        return self.support

    @functools.cached_property
    def virtual_range(self):
        """psi at the ends of psi_domain; the top is inf on an unbounded support."""
        return tuple(float(v) for v in self.virtual_value_clamped(np.asarray(self.psi_domain)))

    def virtual_value(self, x):
        """psi(x) = x - (1 - F(x))/f(x); OutOfSupport outside psi_domain."""
        x = np.asarray(x, dtype=float)
        _check_within(x, self.psi_domain, 1e-12, "point outside the domain of psi")
        return self.virtual_value_clamped(x)

    def inverse_virtual_value(self, t):
        """psi^{-1}(t); OutOfSupport for a target outside virtual_range."""
        x = self._inverse_virtual_clamped(t)  # first: a non-regular grid raises NonRegular
        _check_within(np.asarray(t, dtype=float), self.virtual_range, 1e-9,
                      "target outside the range of the virtual value")
        return x

    def _virtual_law(self, t, density=False):
        """Law of V = psi(X) at t, from one clamped inverse x = psi^{-1}(t):
        (cdf, pdf if density else None). The cdf is F(x), and 1 above
        virtual_range; the pdf is f(x)/psi'(x) inside it and 0 outside."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.virtual_range
        x = self._inverse_virtual_clamped(t)
        above = t > hi
        cdf = np.where(above, 1.0, self.cdf(x))
        if not density:
            return cdf, None
        return cdf, np.where(above | (t < lo), 0.0, self.pdf(x) / self.virtual_value_slope(x))

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

    def scaled(self, alpha):
        """Law of alpha X for alpha > 0, the exact push-forward on default_grid:
        knots alpha x, density f(x)/alpha."""
        return push_forward(self, lambda x: alpha * x, lambda x: np.full_like(x, alpha),
                            self.default_grid())

    def tail_mean(self, x):
        """E[X | X >= x], by quadrature."""
        return conditional_tail_expectation(self, lambda t: t, x)

    def _check_support(self, x, tol=1e-12):
        _check_within(x, self.support, tol, "point outside support")


def _each_distinct(fn, items):
    """[fn(i) for i in items], calling fn once per distinct law (matched by
    law_key): k-1 i.i.d. competitors, passed as one repeated model or as equal
    GP models built apart, cost one call."""
    keys = [i.law_key for i in items]
    out = {}
    for key, i in zip(keys, items):
        if key not in out:
            out[key] = fn(i)
    return [out[key] for key in keys]


def _check_within(v, bounds, tol, what):
    """OutOfSupport if any of v is outside (lo, hi) by over tol * span (1 if hi is inf)."""
    lo, hi = bounds
    span = (hi - lo) if np.isfinite(hi) else 1.0
    if np.any(v < lo - tol * span) or np.any(v > hi + tol * span):
        raise OutOfSupport(f"{what} [{lo}, {hi}]")


class GPDistribution(DistributionModel):
    """Generalized Pareto model with closed-form virtual-value calculus."""

    kind = "generalized-pareto"

    def __init__(self, params: GPParams):
        self.params = params

    @functools.cached_property
    def law_key(self):
        """The bits of (mu, sigma, xi): equal parameters give equal numbers,
        and -0.0 and 0.0 stay apart."""
        p = self.params
        return np.array([p.mu, p.sigma, p.xi], dtype=float).tobytes()

    @property
    def support(self):
        p = self.params
        hi = np.inf if p.xi == 0 else p.mu - p.sigma / p.xi
        return (p.mu, hi)

    def _base(self, x, z):
        """1 + xi z, which sf and pdf raise to powers. Where xi < -1 it is
        taken as -xi (hi - x) / sigma, exactly 0 at the top hi: sf is then
        base ** (1 / |xi|) with 1 / |xi| < 1, which would blow the ~1e-16
        rounding error of 1 + xi z up (to sf = 6.06e-6 at the top of
        GP(0.3, 2, -3)). Where -1 <= xi < 0 the power does not amplify it."""
        p = self.params
        if p.xi < -1:
            return -p.xi * (self.support[1] - x) / p.sigma
        return 1.0 + p.xi * z

    def sf(self, x):
        p = self.params
        x = np.asarray(x, dtype=float)
        z = (x - p.mu) / p.sigma
        if p.xi == 0:
            out = np.exp(-np.maximum(z, 0.0))
        else:
            base = np.maximum(self._base(x, z), 0.0)
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
        base = self._base(x, z)
        inside = (z >= 0) & (base > 0)
        out = np.zeros_like(z)
        out[inside] = base[inside] ** (-1.0 / p.xi - 1.0) / p.sigma
        # bounded-support endpoint: finite limit only for xi = -1
        if p.xi == -1:
            out[(z >= 0) & (base == 0)] = 1.0 / p.sigma
        return out

    def quantile(self, q):
        return self.isf(1.0 - np.asarray(q, dtype=float))

    def isf(self, u):
        """Closed form in u, so that x stays finite for u below one ulp of 1."""
        p = self.params
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > 1):
            raise InvalidParams("probability argument must lie in [0, 1]")
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

    # psi(x) = (1 - xi)(x - r*) is affine
    def virtual_value_clamped(self, x):
        x = np.clip(np.asarray(x, dtype=float), *self.psi_domain)
        return (1.0 - self.params.xi) * (x - self.monopoly_price())

    def _inverse_virtual_clamped(self, t):
        x = np.asarray(t, dtype=float) / (1.0 - self.params.xi) + self.monopoly_price()
        return np.clip(x, *self.psi_domain)

    def virtual_value_slope(self, x):
        return 1.0 - self.params.xi

    def scaled(self, alpha):
        p = self.params
        return make_gp(alpha * p.mu, alpha * p.sigma, p.xi)

    def tail_mean(self, x):
        p = self.params
        return (x - p.mu + p.sigma) / (1.0 - p.xi) + p.mu


class GridDistribution(DistributionModel):
    """Distribution backed by tabulated cdf (and optionally pdf) values."""

    kind = "grid-backed"

    def __init__(self, knots, cdf_values, pdf_values=None):
        knots = np.asarray(knots, dtype=float)
        cdf_values = np.asarray(cdf_values, dtype=float)
        if knots.ndim != 1 or knots.shape != cdf_values.shape or knots.size < 4:
            raise InvalidParams("knots and cdf values must be 1-d arrays of equal length >= 4")
        if not np.all(np.isfinite(cdf_values)):
            raise InvalidParams("cdf values must be finite")
        if cdf_values[0] < -1e-12 or cdf_values[-1] > 1.0 + 1e-12:
            raise InvalidParams("cdf values must lie in [0, 1]")
        self.knots = knots
        self.cdf_values = np.clip(cdf_values, 0.0, 1.0)
        if np.any(np.diff(self.cdf_values) <= 0):
            raise NonMonotone("cdf values must be strictly increasing")
        if pdf_values is None:
            pdf_values = _pchip(knots, self.cdf_values).derivative()(knots)
        else:
            pdf_values = np.asarray(pdf_values, dtype=float)
        if np.any(~np.isfinite(pdf_values)) or np.any(pdf_values[1:-1] <= 0):
            raise InvalidParams("density must be finite and positive on the support interior")
        self.pdf_values = np.clip(pdf_values, 0.0, None)
        # cdf F and density f: one table, so that they share each lookup
        self._F = _Table(self.knots, self.cdf_values, self.pdf_values)
        self._Q = _Table(self.cdf_values, self.knots)
        if not np.isfinite(self._Q._pp.c).all():  # cdf steps so small that t/h overflows
            raise InvalidParams("quantile table coefficients must be finite")

        # virtual value tabulated where the tail is numerically safe, from the
        # first knot with positive density (psi is -inf where f = 0)
        cutoff = 1.0 - TAIL_CDF_CUTOFF
        mask = self.cdf_values <= cutoff
        mask[:np.argmax(self.pdf_values > 0)] = False
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
                fpdf = np.append(fpdf, np.clip(self._F.slope(x_c), 0.0, None))
        psi = xs - (1.0 - fcdf) / np.clip(fpdf, 1e-300, None)
        self.psi_domain = (float(xs[0]), float(xs[-1]))
        self._psi_values = psi
        # regularity is only decidable up to the grid's own resolution
        scale = max(abs(psi[0]), abs(psi[-1]), 1e-6)
        self._regular = bool(np.all(np.diff(psi) > -1e-9 * scale))
        self._psi = _Table(xs, psi)
        if self._regular:
            # inverse built on the strictly increasing envelope of the table
            keep = np.concatenate([[True], np.diff(np.maximum.accumulate(psi)) > 0])
            self._psi_inv = _Table(psi[keep], xs[keep])
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
        out[inside] = np.maximum(self._F.slope(x[inside]), 0.0)
        return out

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < 0) or np.any(q > 1):
            raise InvalidParams("quantile argument must lie in [0, 1]")
        qc = np.clip(q, self.cdf_values[0], self.cdf_values[-1])
        return self._F.invert(qc, self._Q(qc), self.knots[0], self.knots[-1])

    def mean(self):
        return float(np.sum(_quad.panel_integrals(lambda t: t * self.pdf(t), self.knots)))

    @property
    def is_regular(self):
        return self._regular

    def virtual_value_clamped(self, x):
        return self._psi(np.clip(np.asarray(x, dtype=float), *self.psi_domain))

    def _inverse_virtual_clamped(self, t):
        if not self._regular:
            raise NonRegular("virtual value is not increasing on the grid")
        t = np.clip(np.asarray(t, dtype=float), self._psi_values[0], self._psi_values[-1])
        lo, hi = self.psi_domain
        # damped: a step is skipped in near-flat regions of psi
        return self._psi.invert(t, self._psi_inv(t), lo, hi, cap=0.05 * (hi - lo))

    def virtual_value_slope(self, x):
        """The psi table's slope, floored at 1e-12 where the table flattens."""
        return np.maximum(self._psi.slope(x), 1e-12)


def make_gp(mu, sigma, xi) -> GPDistribution:
    """Build a generalized Pareto model from (mu, sigma, xi)."""
    return GPDistribution(GPParams(float(mu), float(sigma), float(xi)))


def make_uniform() -> GPDistribution:
    """Unif[0, 1], i.e. GP(0, 1, -1)."""
    return make_gp(0.0, 1.0, -1.0)


def make_grid(knots, cdf_values, pdf_values=None) -> GridDistribution:
    return GridDistribution(knots, cdf_values, pdf_values)


def push_forward(model: DistributionModel, fn, derivative, xs) -> GridDistribution:
    """Law of B = fn(X), X ~ model, on the knots fn(xs): H(fn(x)) = F(x) and
    h(fn(x)) = f(x) / fn'(x). NonMonotone unless fn' > 0 at every knot."""
    slope = derivative(xs)
    if np.any(slope <= 0):
        raise NonMonotone("beta must be strictly increasing on the support")
    return GridDistribution(fn(xs), model.cdf(xs), model.pdf(xs) / slope)


def transform_distribution(model: DistributionModel, beta: GridFunction) -> GridDistribution:
    """Law of B = beta(X), X ~ model, pushed forward on default_grid(beta.knots),
    or on default_grid() when beta has over 4 GRID_N knots inside it."""
    xs = model.default_grid()
    if np.count_nonzero((beta.knots > xs[0]) & (beta.knots < xs[-1])) <= 4 * GRID_N:
        xs = model.default_grid(beta.knots)
    return push_forward(model, beta, beta.derivative, xs)


def conditional_tail_expectation(model: DistributionModel, h, x) -> float:
    """E[h(X) | X >= x]; h=None means the identity, model.tail_mean(x)
    (a closed form on GP models)."""
    x = float(x)
    model._check_support(np.asarray(x))
    if h is None:
        return model.tail_mean(x)
    tail = float(model.sf(x))
    upper = model.grid_upper()
    if tail < 1e-12 or x >= upper:
        # degenerate tail: E[h(X) | X >= x] -> h(x)
        return float(np.asarray(h(np.asarray([x], dtype=float)))[0])
    num = _quad.integrate(lambda t: np.asarray(h(t)) * model.pdf(t), x, upper)
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


def _check(value, kind, field):
    """value checked as a `kind`: a JSON type, or a list of kinds for an array
    with one element per kind, where [kind] takes an array of any length. A
    float field also takes an integer and returns a float; only a bool field
    takes true or false."""
    if isinstance(kind, list):
        items = _check(value, list, field)
        kinds = kind * len(items) if len(kind) == 1 else kind
        if len(kinds) != len(items):
            raise ConfigError(field, f"expected {len(kinds)} elements, got {len(items)}")
        return [_check(v, k, f"{field}[{i}]") for i, (v, k) in enumerate(zip(items, kinds))]
    if isinstance(value, bool) != (kind is bool) \
            or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


def _field(cfg: dict, name, kind=float):
    """cfg[name] checked as a `kind` for the config parsers; a missing field, or
    a value _check refuses, raises InvalidParams naming the field."""
    if name not in cfg:
        raise InvalidParams(f"missing field {name!r}")
    try:
        return _check(cfg[name], kind, name)
    except ConfigError:
        raise InvalidParams(f"invalid value for field {name!r}: {cfg[name]!r}") from None


def _gp_params(cfg: dict) -> GPParams:
    return GPParams(*(_field(cfg, name) for name in ("mu", "sigma", "xi")))


def model_from_config(cfg: dict) -> DistributionModel:
    """Parse {"kind": "gp", ...} or {"kind": "grid", ...} JSON config."""
    kind = cfg.get("kind")
    if kind == "gp":
        return GPDistribution(_gp_params(cfg))
    if kind == "grid":
        return make_grid(_field(cfg, "knots", [float]), _field(cfg, "cdf", [float]),
                         _field(cfg, "pdf", [float]) if "pdf" in cfg else None)
    raise InvalidParams(f"unknown distribution kind: {kind!r}")
