"""Adaptive Gauss-Legendre quadrature used by the payoff and shading engines.

An integrand takes a 1-d array of points and returns its values there, as an
array of the same length or as m rows for m functions integrated together. It
must act elementwise: many panels share one call.

`integrate` refines level by level. Its first call evaluates one 15-point
panel per breakpoint segment and both halves of each segment; each later call
evaluates both halves of every unresolved panel. A panel is resolved when its
halves agree with it (in every row); refinement stops at depth 48 or when the
panel budget runs out, and either warns if a panel is still unresolved.
"""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning

_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES10, _WEIGHTS10 = np.polynomial.legendre.leggauss(10)
_REL_TOL, _ABS_TOL, _MAX_DEPTH = 1e-9, 1e-13, 48


def _panels(f, lo, hi, nodes, weights, cuts=()):
    """Gauss-Legendre integrals of f over each [lo[i], hi[i]] from one call of f,
    as one array per block of panels between the indices in cuts; each of shape
    (k,), or (m, k) when f returns m rows.

    Each block is weighted on its own, because BLAS can round a panel's
    weighted sum differently at another position in a larger block."""
    mids = 0.5 * (hi + lo)
    halfs = 0.5 * (hi - lo)
    pts = mids[:, None] + halfs[:, None] * nodes[None, :]
    vals = np.asarray(f(pts.ravel()))
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    edges = (0, *cuts, lo.size)
    return [halfs[i:j] * (np.ascontiguousarray(vals[..., i:j, :]) @ weights)
            for i, j in zip(edges, edges[1:])]


def _halves(lo, hi):
    """The left halves of the panels [lo[i], hi[i]], then their right halves."""
    mid = 0.5 * (lo + hi)
    return np.concatenate([lo, mid]), np.concatenate([mid, hi])


def integrate(f, a, b, breakpoints=(), max_panels=100000):
    """Integrate f over [a, b], splitting at interior breakpoints (kinks).

    The first integrand call evaluates each segment between breakpoints and
    both of its halves; each later call, the halves of the panels still open.
    Returns a float, or an array of m integrals when f returns m rows."""
    if not b > a:
        return 0.0
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    lo, hi = _halves(pts[:-1], pts[1:])
    whole, halves = _panels(f, np.concatenate([pts[:-1], lo]), np.concatenate([pts[1:], hi]),
                            _NODES15, _WEIGHTS15, (pts.size - 1,))
    rough = np.abs(whole).sum(axis=-1, keepdims=True)
    tol = np.maximum(_ABS_TOL, _REL_TOL * rough) * (pts[1:] - pts[:-1]) / (b - a)
    total = 0.0
    budget = max_panels
    for depth in range(_MAX_DEPTH, -1, -1):
        k = whole.shape[-1]
        both = halves[..., :k] + halves[..., k:]
        budget -= 2 * k
        # the floor keeps child tolerances meaningful at machine precision
        ok = np.abs(both - whole) <= np.maximum(tol, 4e-16 * np.abs(both))
        done = ok.reshape(-1, k).all(axis=0)
        if depth == 0 or budget <= 0:
            if not done.all():
                why = f"used up its budget of {max_panels} panels" if depth \
                    else f"reached depth {_MAX_DEPTH} unresolved"
                warnings.warn(f"integral over [{a}, {b}] {why}", IntegrationWarning, stacklevel=2)
            done[:] = True
        total = total + both[..., done].sum(axis=-1)
        if done.all():
            break
        keep = np.tile(~done, 2)
        whole = halves[..., keep]
        tol = np.tile(np.maximum(0.5 * tol, 1e-16 * np.abs(both))[..., ~done], 2)
        lo, hi = _halves(lo[keep], hi[keep])
        halves, = _panels(f, lo, hi, _NODES15, _WEIGHTS15)
    return total if np.ndim(total) else float(total)


def panel_integrals(f, knots):
    """Fixed 10-point Gauss-Legendre integral of f over each knot interval.

    Returns an array of length len(knots) - 1. Accurate to machine precision
    for integrands that are smooth within each interval.
    """
    knots = np.asarray(knots, dtype=float)
    return _panels(f, knots[:-1], knots[1:], _NODES10, _WEIGHTS10)[0]
