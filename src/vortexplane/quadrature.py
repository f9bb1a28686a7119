"""Scalar quadrature helpers.

Two closed Newton-Cotes rules: an adaptive Simpson scheme for one-off
integrals of smooth scalar functions, and a cumulative trapezoid pass on
uniform grids, with which the backward fixed-point operator iterates.
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

