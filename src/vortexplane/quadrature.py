"""Scalar quadrature helpers.

The toolkit deliberately sticks to two closed Newton-Cotes rules: an
adaptive Simpson scheme for one-off integrals of smooth scalar functions
and cumulative trapezoid/Simpson passes on uniform grids.  Fixed-point
operators iterate with the trapezoid rule; the Simpson pass serves as the
independent residual oracle.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ParameterDomainError, ToleranceError

_MAX_DEPTH = 48


def _simpson_panel(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, floor, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson_panel(a, fa, m, fm, flm)
    right = _simpson_panel(m, fm, b, fb, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * max(tol, floor):
        return left + right + err / 15.0
    if depth >= _MAX_DEPTH:
        # a mild integrable kink leaves only roundoff-level mass this deep;
        # a genuine divergence still shows an error far above the floor
        if abs(err) <= 1e6 * floor:
            return left + right + err / 15.0
        raise ToleranceError(
            f"adaptive Simpson stalled on [{a}, {b}] with error {err:.3e}")
    half = 0.5 * tol
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, half, floor, depth + 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, half, floor,
                        depth + 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10) -> float:
    """Integrate f on [a, b] to absolute tolerance tol, finite and >= 0
    (a NaN tol would let no panel converge)."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterDomainError(
            f"tol must be finite and >= 0, got {tol!r}")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson_panel(a, fa, b, fb, fm)
    floor = 0.25 * np.finfo(float).eps * (abs(whole) + abs(b - a))
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, floor, 0)


def cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid integral of uniformly sampled y, starting at 0."""
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


def cumsimpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integral on a uniform grid, starting at 0.

    Each interval [r_j, r_{j+1}] is integrated with the quadratic through
    the three nearest nodes, which keeps the rule fourth order without
    demanding an even panel count.
    """
    n = len(y) - 1
    out = np.zeros_like(y)
    if n == 0:
        return out
    if n == 1:
        out[1] = 0.5 * h * (y[0] + y[1])
        return out
    inc = np.empty(n)
    # interior intervals use the centered parabola; the two edge intervals
    # use the one-sided parabola through their three nearest nodes
    yl = y[:-2][: n - 1]
    ym = y[1:-1][: n - 1]
    yr = y[2:][: n - 1]
    # integral of the parabola through (0,yl),(h,ym),(2h,yr) over [h,2h]
    right_half = h / 12.0 * (-yl + 8.0 * ym + 5.0 * yr)
    # ... and over [0,h]
    left_half = h / 12.0 * (5.0 * yl + 8.0 * ym - yr)
    inc[0] = left_half[0]
    inc[1:] = right_half
    # average with the forward-shifted estimate where both exist
    inc[1:-1] = 0.5 * (right_half[:-1] + left_half[1:])
    np.cumsum(inc, out=out[1:])
    return out
