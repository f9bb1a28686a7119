"""Bracketed one-dimensional searches shared by every refinement: a
bisection kernel, a Newton iteration safeguarded by its bracket (Press et
al., Numerical Recipes, 3rd ed., 2007, sec. 9.4) and a golden-section
minimizer (Brent, Algorithms for Minimization without Derivatives, 1973),
each with a fixed iteration budget.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

_INVPHI = 0.6180339887498949
_BISECTIONS = 60


def bisect_root(g: Callable[[float], float], lo: float, hi: float,
                g_lo: float, xtol: float = 0.0) -> float:
    """Root of g in [lo, hi], given g_lo = g(lo) and a sign change on the
    bracket.

    The bracket keeps the end whose sign class (> 0 or <= 0) matches g_lo;
    signs are compared, never multiplied, so tiny values cannot underflow
    into a false sign.  Returns the midpoint where g is exactly zero, where
    hi - lo <= xtol * max(1, |mid|), where it rounds to an end (the bracket
    has stalled) or after _BISECTIONS halvings.  A rounded g is often
    exactly zero over a run of ulps; to get the near edge of that run
    instead, pass a g that never returns 0.0.
    """
    up = g_lo > 0.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        gm = g(mid)
        if gm == 0.0 or hi - lo <= xtol * max(1.0, abs(mid)):
            return mid
        if (gm > 0.0) == up:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton_root(g: Callable[[float], float], dg: Callable[[float], float],
                lo: float, hi: float, g_lo: float, x: float, iters: int,
                xtol: float) -> float:
    """Root of g in [lo, hi] by Newton steps with slope dg from x, given
    g_lo = g(lo) and a sign change on the bracket.

    Each step first narrows the bracket at x as bisect_root does.  It
    returns x where g is exactly zero and the Newton point once the step
    is at most xtol * max(1, |x|); a Newton point outside the open
    bracket (a zero or non-finite slope included) is replaced by the
    bracket's midpoint, returned once the bracket is that narrow.  After
    iters steps the last point is returned.
    """
    up = g_lo > 0.0
    for _ in range(iters):
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx > 0.0) == up:
            lo = x
        else:
            hi = x
        slope = dg(x)
        step = gx / slope if slope != 0.0 else math.inf
        nxt = x - step
        if abs(step) <= xtol * max(1.0, abs(x)):
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if hi - lo <= xtol * max(1.0, abs(nxt)):
                return nxt
        x = nxt
    return x


def golden_min(fn: Callable[[float], float], lo: float,
               hi: float) -> Tuple[float, float]:
    """(x, fn(x)) at the midpoint of the bracket left by 80 golden-section
    steps on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)
