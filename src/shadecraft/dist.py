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
# Batches smaller than these go to the compiled loop of scipy's PPoly, which
# gives the same bits and wins on small batches, such as the ~15 points of
# a quadrature panel. Its per-point binary search is fast on sorted points
# and slow on shuffled ones, and a value-and-slope read runs it twice, where
# numpy locates the points once. Compiled loop / numpy in us per read on the
# 2,048-knot uniform bid and psi tables, fresh batches, two runs (2-core
# x86-64 host):
#                       sorted           shuffled
#   value, 512:         29-39 / 28-49    56-63 / 30-32
#   value, 1,024:       46-64 / 33-38    113-124 / 37-58
#   value+slope, 128:   23-31 / 26-49    33-41 / 26-40
#   value+slope, 256:   35-47 / 29-55    58-64 / 30-36
#   value+slope, 512:   57-76 / 34-67    116-131 / 35-40
# The library's value reads under 1,024 points are quadrature nodes and
# probes, sorted or nearly so; its value-and-slope reads are Newton steps,
# under 256 points in quadrature and ~22k in Monte Carlo.
_NUMPY_MIN_POINTS = 1024
_NUMPY_MIN_PAIR_POINTS = 256
# the ufunc np.clip ends in, after ~2 us of Python; private to numpy, and held
# to np.clip's bits by tests/test_table.py
_clip = np._core.umath.clip


def _power_sums(cs, i, s):
    """For each coefficient array c of cs, sum_k c[-1 - k, i] * s**k, term by
    term in scipy PPoly's order. The arrays are summed side by side, so that
    each power of s is formed once, in one array updated in place."""
    outs = [c[-1][i] for c in cs]
    power = s
    for k in range(1, max(len(c) for c in cs)):
        if k == 2:
            power = s * s
        elif k > 2:
            power *= s
        for c, out in zip(cs, outs):
            if k < len(c):
                term = c[-1 - k][i]
                term *= power
                out += term
                del term  # freed before the next term or power is formed
    return outs


def _signless_zeros(pp):
    # scipy starts each sum from 0.0, turning a constant term of -0.0 into
    # 0.0; doing that here once changes none of scipy's results and lets a
    # numpy sum start from the constant term
    pp.c[-1] += 0.0
    return pp


def _same_sign(a, b):
    # np.sign(a) == np.sign(b) on floats: false where either is NaN
    return (a > 0 and b > 0) or (a < 0 and b < 0) or (a == 0 and b == 0)


def _end_slope(h, m):
    # the one-sided three-point slope from the end interval's width h[0] and
    # secant m[0] and its neighbour's, set to 0 where its sign differs from
    # m[0]'s and clamped to 3 m[0] where the data turn; on Python floats
    (h0, h1), (m0, m1) = h.tolist(), m.tolist()
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if not _same_sign(d, m0):
        return 0.0
    if not _same_sign(m0, m1) and abs(d) > 3.0 * abs(m0):
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
            d[0] = _end_slope(h[:2], m[:2])
            d[-1] = _end_slope(h[:-3:-1], m[:-3:-1])
        if not np.isfinite(d).all():
            raise InvalidParams("interpolant slopes must be finite at the knots")
        t = (d[:-1] + d[1:] - 2 * m) / h
        c = np.array((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
    # c and x are new C-contiguous arrays, as are those of pp.derivative()
    return PPoly.construct_fast(c, x, extrapolate=True)


class _Table:
    """Fritsch-Carlson PCHIP interpolant of (x, y) and its slope, both
    extrapolated from the end intervals, built by `_pchip` and evaluated bit
    for bit as scipy's PchipInterpolator evaluates them.

    Small batches call the compiled loop that PPoly.__call__ ends in, on
    `_pchip`'s C-contiguous coefficients and knots, as that loop requires.
    Large batches (see `_NUMPY_MIN_POINTS` and `_NUMPY_MIN_PAIR_POINTS`)
    locate each point's interval once, for value and slope together. On
    knots that are equispaced to within one interval the index is an affine
    guess, checked by two gathers: of the knot on its left, which also gives
    the offset s, and of the interval's right end (none for the last). A
    point it misses steps one interval toward q, and is binary-searched on
    the interior knots if it still misses, so any guess gives the exact
    interval; on other knots every point is searched. Each polynomial then
    takes one gather per coefficient, and value and slope share the powers
    of s. `invert` solves the table for q by Newton steps from a table of its
    inverse, which also brackets each root by two of this table's knots.
    """

    def __init__(self, x, y, slopes=None):
        self._pp = _signless_zeros(_pchip(x, y))
        if slopes is not None:
            self._dpp = _signless_zeros(_pchip(x, slopes))
        self.x = self._pp.x
        self.y = np.asarray(y, dtype=float)
        self._step = (self.x.size - 1) / (self.x[-1] - self.x[0])  # knots per unit of q
        # 1e-9 of an interval below x[0], so that however (q - x[0]) * _step
        # rounds, a knot guesses its own interval; tables are read at their knots
        self._origin = self.x[0] - 1e-9 / self._step

    @functools.cached_property
    def _scale(self):
        # _step where the guess, monotone in q, is within one interval at
        # every knot, and so at every point; else None, and nothing is guessed.
        # On GRID_N equispaced knots it misses no knot and none of 2^20 uniform
        # points; ~p^2/2 + (1-p)^2/2 of them once a kink at p of the span is
        # added (25% on the K=3 one-vs-uniform gamma table); 99.9% on the GP
        # bid laws' tables.
        # Computed on the first numpy-sized read, from the knots alone, so that
        # worker threads that make that read together all get the finished value
        miss = self._guess(self.x) - np.arange(self.x.size)
        return None if np.any((miss < -1) | (miss > 0)) else self._step

    @functools.cached_property
    def _right(self):
        # each interval's right end as searchsorted places q, the last's +inf;
        # made on the first guessed read, as most tables are never read so
        return np.append(self.x[1:-1], np.inf)

    @functools.cached_property
    def _dpp(self):
        # the slope: the interpolant's derivative, or the PCHIP of the
        # tabulated slopes given at construction (a cdf table's density)
        return _signless_zeros(self._pp.derivative())

    def _guess(self, q):
        # NaN and +inf guess the last interval, as searchsorted sorts them
        g = q - self._origin
        g *= self._step
        np.maximum(g, 0.0, out=g)
        return np.fmin(g, self.x.size - 2, out=g).astype(np.intp)

    def _locate(self, q):
        """(i, q - x[i]) for 1-d q, i = np.searchsorted(x[1:-1], q, side="right")."""
        x = self.x
        if self._scale is None:
            i = x[1:-1].searchsorted(q, side="right")
            return i, q - x[i]
        i = self._guess(q)
        left = x[i]
        right = self._right
        hit = (q >= left) & (q < right[i])  # false at NaN, whatever its guess
        if not hit.all():
            # a miss steps one interval toward q; where it still misses, a search
            miss = (~hit).nonzero()[0]
            qm, j = q[miss], i[miss]
            j = _clip(j + (qm >= right[j]) - (qm < left[miss]), 0, x.size - 2)
            far = ~((qm >= x[j]) & (qm < right[j]))
            j[far] = x[1:-1].searchsorted(qm[far], side="right")
            i[miss], left[miss] = j, x[j]
        return i, np.subtract(q, left, out=left)

    def _eval(self, q, *pps, located=False):
        """Each PPoly of pps at q, bit for bit as PPoly.__call__ gives it; if
        located, then each point's interval, as searchsorted places flat q."""
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        if flat.size < (_NUMPY_MIN_POINTS if len(pps) == 1 else _NUMPY_MIN_PAIR_POINTS):
            # without PPoly.__call__'s ~2 us of checks, copies and reshapes
            outs = []
            for pp in pps:
                out = np.empty((flat.size, 1))
                pp._evaluate(flat, 0, True, out)
                outs.append(out.reshape(q.shape))
            i = self.x[1:-1].searchsorted(flat, side="right") if located else None
        else:
            i, s = self._locate(flat)
            # scipy's compiled loop is silent where inf - inf makes a NaN
            with np.errstate(invalid="ignore", over="ignore"):
                outs = [out.reshape(q.shape) for out in _power_sums([pp.c for pp in pps], i, s)]
        return outs + [i] if located else outs

    def __call__(self, q):
        return self._eval(q, self._pp)[0]

    def slope(self, q):
        return self._eval(q, self._dpp)[0]

    def value_and_slope(self, q):
        return self._eval(q, self._pp, self._dpp)

    def _newton(self, y, x, ends, i):
        value, slope = self.value_and_slope(x)
        # np.clip(slope, 1e-12, None) is this maximum, behind ~3 us of Python
        step = (value - y) / np.maximum(slope, 1e-12)
        new = x - step
        out = ((new < ends[i]) | (new > ends[i + 1])).nonzero()[0]
        if out.size:  # halfway to ends[i] where step > 0, else to ends[i + 1]
            new[out] = 0.5 * (x[out] + ends[i[out] + (step[out] <= 0)])
        return new

    def invert(self, y, inverse):
        """The q where the table is y, y clipped into the knots of `inverse`, a
        table of this one's inverse: 3 Newton steps, the slope floored at 1e-12,
        in the bracket that inverse's values give at the ends of y's interval,
        from the guess inverse(y) clipped into it (it rounds an ulp out at an
        interval's end). A step out of the bracket goes instead halfway to its
        end on the root's side: below x where the table is above y.
        A point that a step leaves where it was is a fixed point that every
        later step would repeat, so after the first step only the points that
        moved go on, and the steps end when none moves."""
        y = np.asarray(y, dtype=float)
        t = _clip(y.ravel(), inverse.x[0], inverse.x[-1])
        guess, i = inverse._eval(t, inverse._pp, located=True)
        guess = _clip(guess, inverse.y[i], inverse.y[i + 1])
        x = self._newton(t, guess, inverse.y, i)
        live = (x != guess).nonzero()[0]
        if live.size:
            q, t, i = x[live], t[live], i[live]
            for _ in range(2):
                q, last = self._newton(t, q, inverse.y, i), q
                if not np.count_nonzero(q != last):
                    break
            x[live] = q
        return x.reshape(y.shape)[()]


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
        # at each knot but the last the slope reads s = 0, so it is the PCHIP
        # slope c[2] (NaN where the cubic's other coefficients overflow): only
        # where one of those is not positive must every knot be read
        table = self._table
        knots = self.knots if np.any(table._pp.c[2] <= 0) else self.knots[-1:]
        if np.any(table.slope(knots) <= 0):
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
    """Common surface of value/bid distribution models. A family implements cdf
    or sf, and quantile or isf; the base derives the other rule of each pair,
    through 1 - F and 1 - q. `is_regular`, whether psi increases, is a value."""

    @property
    def support(self):
        raise NotImplementedError

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def sf(self, x):
        """Survival function 1 - F(x), computed without cancellation when possible."""
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        return self.isf(1.0 - np.asarray(q, dtype=float))

    def isf(self, u):
        """Inverse survival function, the x with 1 - F(x) = u."""
        return self.quantile(1.0 - np.asarray(u, dtype=float))

    def mean(self):
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

    def _check_support(self, x):
        _check_within(x, self.support, 1e-12, "point outside support")


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
    if (v < lo - tol * span).any() or (v > hi + tol * span).any():
        raise OutOfSupport(f"{what} [{lo}, {hi}]")


class GPDistribution(DistributionModel):
    """Generalized Pareto model with closed-form virtual-value calculus."""

    is_regular = True

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
        if not x.ndim:  # as a batch of one: numpy's scalar ** rounds differently
            return self.sf(x.reshape(1)).reshape(())
        z = (x - p.mu) / p.sigma
        if p.xi == 0:
            out = np.exp(-np.maximum(z, 0.0))
        else:
            base = np.maximum(self._base(x, z), 0.0)
            out = base ** (-1.0 / p.xi)
        return np.where(z < 0, 1.0, out)

    def pdf(self, x):
        p = self.params
        x = np.asarray(x, dtype=float)
        z = (x - p.mu) / p.sigma
        if p.xi == 0:
            out = np.exp(-z) / p.sigma
            return np.where(z < 0, 0.0, out)
        base = self._base(x, z)
        # bounded-support endpoint: finite limit only for xi = -1, where the
        # power is base ** 0 = 1
        inside = (z >= 0) & ((base >= 0) if p.xi == -1 else (base > 0))
        # the power only inside, and through the ufunc: a 0-d base is a numpy
        # scalar, whose ** rounds differently
        out = np.power(base, -1.0 / p.xi - 1.0, out=np.zeros(z.shape), where=inside)
        out /= p.sigma
        return out

    def isf(self, u):
        """Closed form in u, so that x stays finite for u below one ulp of 1."""
        p = self.params
        u = np.asarray(u, dtype=float)
        if (u < 0).any() or (u > 1).any():
            raise InvalidParams("probability argument must lie in [0, 1]")
        if p.xi == 0:
            with np.errstate(divide="ignore"):
                return p.mu - p.sigma * np.log(u)
        return p.mu + (p.sigma / p.xi) * (u ** (-p.xi) - 1.0)

    def mean(self):
        p = self.params
        return p.mu + p.sigma / (1.0 - p.xi)

    def monopoly_price(self):
        p = self.params
        return (p.sigma - p.xi * p.mu) / (1.0 - p.xi)

    # psi(x) = (1 - xi)(x - r*) is affine
    def virtual_value_clamped(self, x):
        x = _clip(np.asarray(x, dtype=float), *self.psi_domain)
        return (1.0 - self.params.xi) * (x - self.monopoly_price())

    def _inverse_virtual_clamped(self, t):
        x = np.asarray(t, dtype=float) / (1.0 - self.params.xi) + self.monopoly_price()
        return _clip(x, *self.psi_domain)

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
        # regularity is only decidable up to the grid's own resolution
        scale = max(abs(psi[0]), abs(psi[-1]), 1e-6)
        self.is_regular = bool(np.all(np.diff(psi) > -1e-9 * scale))
        self._psi = _Table(xs, psi)
        if self.is_regular:
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
        # the first piece starts at the first knot, where it is cdf_values[0]
        out = self._F(_clip(x, self.knots[0], self.knots[-1]))
        out = np.where(x > self.knots[-1], self.cdf_values[-1], out)
        return _clip(out, 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.knots[0]) & (x <= self.knots[-1])
        out = np.zeros(x.shape)
        out[inside] = np.maximum(self._F.slope(x[inside]), 0.0)
        return out

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if (q < 0).any() or (q > 1).any():
            raise InvalidParams("quantile argument must lie in [0, 1]")
        return self._F.invert(q, self._Q)

    def mean(self):
        return float(np.sum(_quad.panel_integrals(lambda t: t * self.pdf(t), self.knots)))

    def virtual_value_clamped(self, x):
        return self._psi(_clip(np.asarray(x, dtype=float), *self.psi_domain))

    def _inverse_virtual_clamped(self, t):
        if not self.is_regular:
            raise NonRegular("virtual value is not increasing on the grid")
        return self._psi.invert(t, self._psi_inv)

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


_REQUIRED = object()


def _get(cfg, field, kind, default=_REQUIRED):
    """The value at the dotted config path `field`, checked as a `kind`;
    `default` when it is absent, and required without one. The one reader of
    config fields: the command line's and the config parsers'."""
    parent, _, key = field.rpartition(".")
    if not isinstance(cfg, dict):
        raise ConfigError(parent, "must be an object")
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(field, "missing required field")
        return default
    return _check(cfg[key], kind, field)


def _gp_params(cfg: dict) -> GPParams:
    return GPParams(*(_get(cfg, name, float) for name in ("mu", "sigma", "xi")))


def model_from_config(cfg: dict) -> DistributionModel:
    """Parse {"kind": "gp", ...} or {"kind": "grid", ...} JSON config."""
    kind = cfg.get("kind")
    if kind == "gp":
        return GPDistribution(_gp_params(cfg))
    if kind == "grid":
        return make_grid(_get(cfg, "knots", [float]), _get(cfg, "cdf", [float]),
                         _get(cfg, "pdf", [float], None))
    raise InvalidParams(f"unknown distribution kind: {kind!r}")
