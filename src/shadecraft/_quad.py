"""Adaptive Gauss-Legendre quadrature used by the payoff and shading engines.

An integrand takes a 1-d array of points and returns its values there, as an
array of the same length or as m rows for m functions integrated together. It
must act elementwise: many panels share one call, and a call takes a block
of at most 512 panels. The blocks fill one array of values before any of it
is weighted, so the bits do not depend on where the blocks end.

`integrate` refines level by level. Its first level evaluates one 15-point
panel per breakpoint segment and both halves of each segment; each later
level evaluates both halves of every unresolved panel. A level of up to 512
panels is one integrand call. A panel is resolved when its halves agree with it
(every row) to its share of max(_ABS_TOL, _REL_TOL * the integral's rough size);
refinement stops at depth 48 or out of panel budget, warning if one is open.
"""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning

_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES10, _WEIGHTS10 = np.polynomial.legendre.leggauss(10)
_REL_TOL, _ABS_TOL, _MAX_DEPTH = 1e-9, 1e-13, 48
# panels per integrand call: 512 panels of 10 points (panel_integrals) or 15
# (integrate), so that each of the integrand's temporaries (40 or 60 KB) stays
# under glibc's 128 KiB mmap threshold and reuses heap memory, where mapping
# it would fault in fresh pages
_BLOCK = 512


def _values(f, mids, halfs, nodes):
    """f at the nodes of the panels with these midpoints and half-widths,
    shaped (..., panels, nodes)."""
    pts = halfs[:, None] * nodes[None, :]
    pts += mids[:, None]
    vals = np.asarray(f(pts.ravel()))
    return vals.reshape(vals.shape[:-1] + pts.shape)


def _panels(f, lo, hi, nodes, weights, cuts=()):
    """Gauss-Legendre integrals of f over each [lo[i], hi[i]], as one array per
    group of panels between the indices in cuts; each of shape (k,), or (m, k)
    when f returns m rows.

    f is called once per block of _BLOCK panels, and the blocks fill one array
    of values. Each group is weighted on its own: OpenBLAS's matrix-vector
    product rounds its last (rows mod 4) rows in another kernel, and a one-row
    product takes numpy's dot, so a panel's bits depend on its group (x86-64)."""
    mids = 0.5 * (hi + lo)
    halfs = 0.5 * (hi - lo)
    if lo.size <= _BLOCK:
        vals = _values(f, mids, halfs, nodes)
    else:
        vals = None
        for i in range(0, lo.size, _BLOCK):
            block = _values(f, mids[i:i + _BLOCK], halfs[i:i + _BLOCK], nodes)
            if vals is None:
                vals = np.empty(block.shape[:-2] + (lo.size, nodes.size))
            vals[..., i:i + _BLOCK, :] = block
    edges = (0, *cuts, lo.size)
    return [halfs[i:j] * (np.ascontiguousarray(vals[..., i:j, :]) @ weights)
            for i, j in zip(edges, edges[1:])]


def integrate(f, a, b, breakpoints=(), max_panels=100000):
    """Integrate f over [a, b], splitting at interior breakpoints (kinks).

    The first level evaluates each segment between breakpoints and both of
    its halves; each later level, the halves of the panels still open.
    Returns a float, or an array of m integrals when f returns m rows."""
    if not b > a:
        return 0.0
    pts = np.array([a] + sorted({p for p in breakpoints if a < p < b}) + [b], dtype=float)
    n = pts.size - 1
    left, right = pts[:-1], pts[1:]
    mid = 0.5 * (left + right)
    # the n segments, then their n left and n right halves
    lo, hi = np.concatenate([left, left, mid]), np.concatenate([right, mid, right])
    whole, halves = _panels(f, lo, hi, _NODES15, _WEIGHTS15, (n,))
    lo, hi = lo[n:], hi[n:]
    rough = np.abs(whole).sum(axis=-1, keepdims=True)
    tol = np.maximum(_ABS_TOL, _REL_TOL * rough) * (right - left) / (b - a)
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
        # both[..., done] is F-ordered: each row of a multi-row total sums its
        # panels left to right, a one-row total pairwise (tests/test_quad.py)
        total = total + both[..., done].sum(axis=-1)
        if done.all():
            break
        keep = np.concatenate([~done, ~done])
        whole = halves[..., keep]
        tol = np.maximum(0.5 * tol, 1e-16 * np.abs(both))[..., ~done]
        tol = np.concatenate([tol, tol], axis=-1)
        lo, hi = lo[keep], hi[keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        halves, = _panels(f, lo, hi, _NODES15, _WEIGHTS15)
    return total if total.ndim else float(total)


def panel_integrals(f, knots):
    """Fixed 10-point Gauss-Legendre integral of f over each knot interval.

    Returns an array of length len(knots) - 1. Accurate to machine precision
    for integrands that are smooth within each interval. f must act
    elementwise: it is called once per block of at most 512 intervals, and
    the blocks' values are weighted together in one matrix product, so the
    bits are those of a single call on every node.
    """
    knots = np.asarray(knots, dtype=float)
    return _panels(f, knots[:-1], knots[1:], _NODES10, _WEIGHTS10)[0]
