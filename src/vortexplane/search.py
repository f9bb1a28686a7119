"""Bracketed one-dimensional searches shared by every refinement: a
bisection kernel and a golden-section minimizer (Brent, Algorithms for
Minimization without Derivatives, 1973), each with a fixed iteration count.
"""

from __future__ import annotations

from typing import Callable, Tuple

_INVPHI = 0.6180339887498949


def bisect_root(g: Callable[[float], float], lo: float, hi: float,
                g_lo: float, iters: int, xtol: float = 0.0) -> float:
    """Root of g in [lo, hi], given g_lo = g(lo) and a sign change on the
    bracket.

    The bracket keeps the end whose sign class (> 0 or <= 0) matches g_lo;
    signs are compared, never multiplied, so tiny values cannot underflow
    into a false sign.  Returns the midpoint where g is exactly zero or
    where hi - lo <= xtol * max(1, |mid|), else the final midpoint.  A
    rounded g is often exactly zero over a run of ulps; to get the near
    edge of that run instead, pass a g that never returns 0.0.
    """
    up = g_lo > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0 or hi - lo <= xtol * max(1.0, abs(mid)):
            return mid
        if (gm > 0.0) == up:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_min(fn: Callable[[float], float], lo: float, hi: float,
               iters: int = 80) -> Tuple[float, float]:
    """(x, fn(x)) at the midpoint of the bracket left by iters golden-section
    steps on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    for _ in range(iters):
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
