"""Vorticity function models.

A model packages the nonlinearity f of the radial profile equation

    psi'' + psi'/r + f(psi) = 0,        f(u) = u - g(u),

together with its potential F(psi) = int_0^psi f(u) du, its derivative
f' on u > 0 and a ledger of constants used by the solvers and checks.
The admissibility checks audit eta and L at the points where f's
convexity puts the extremes of |f| and |f'| on each ball; the others are
audited on samples:

    u0        positive zero of f (f vanishes exactly at 0 and +-u0)
    eta       growth constant for the short-range existence ball,
              |f(xi)| <= eta*a on [(1-eta/4)a, (1+eta/4)a], eta in (3, 7/2]
    L         Lipschitz bound for f on the same family of intervals
    lambda_g  flux ratio bound: int_0^psi g >= psi*g(psi)/(2*lambda_g)
    c, nu     ring bound: -c/R^nu <= psi*g(psi)/R^2 <= (1+c)/R^nu for |psi|<=R

All scalar callables accept and return plain floats; the *_arr variants
are vectorized over numpy arrays and exist for grid-based solvers; F_arr
gives F's bits over the nodes F accepts.  f rejects NaN and +-inf, df
anything but a finite u > 0; F, potential_grid and
potential_by_quadrature reject any psi whose psi^2/2 is not finite, NaN
and +-inf included.  F is exact for the constantin and power-law
families and a fixed Gauss-Legendre rule for the modulated one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (HypothesisViolationError, ParameterDomainError,
                     ToleranceError)
from .search import bisect_root

# exact admissibility ceiling for the modulated model parameter:
# (3 - 2*sqrt(2)) / (4 + 3*sqrt(2)); the rounded figure 0.02 that gets
# quoted for convenience is strictly below this value
C2_UPPER_BOUND = (3.0 - 2.0 * math.sqrt(2.0)) / (4.0 + 3.0 * math.sqrt(2.0))

_INF = math.inf
# u * u overflows past |u| ~ 1.34e154: the largest double in its place keeps
# the modulated model's c2 uu / (uu + 1) at its limit c2
_MAX = sys.float_info.max
_BIG = 1e154  # the modulated f squares u inline only below this

# 12-point Gauss-Legendre on [0, 1], nodes and weights correctly rounded
_GL_S = (0.009219682876640375, 0.04794137181476257, 0.11504866290284765,
         0.2063410228566913, 0.3160842505009099, 0.43738329574426554,
         0.5626167042557345, 0.6839157494990901, 0.7936589771433087,
         0.8849513370971523, 0.9520586281852375, 0.9907803171233597)
_GL_W = (0.023587668193255914, 0.05346966299765921, 0.08003916427167311,
         0.10158371336153296, 0.1167462682691774, 0.12457352290670139,
         0.12457352290670139, 0.1167462682691774, 0.10158371336153296,
         0.08003916427167311, 0.05346966299765921, 0.023587668193255914)
_GL = tuple(zip(_GL_S, _GL_W))
# the same rule as columns, one row per node, for a broadcast over limits
_GL_S_COL = np.array(_GL_S)[:, None]
_GL_W_COL = np.array(_GL_W)[:, None]

# Square-root families by model_id (f analytic in t = sqrt|psi|, as the
# integrator's crossing windows need), with a bound on -F for |psi| <= 1/4:
# -F = int_0^|psi| (sqrt(u) m(u) - u) du, m = 1 or the example's modulation,
# 1 <= m < 1.011 (c2 u^2/(u^2+1) <= c2/17), so 0 <= -F < 1.011/12 - 1/32
SQRT_FAMILY_NEG_F = {"constantin": 1.0 / 12.0, "example": 1.0 / 12.0}


@dataclass(frozen=True)
class ConstantsLedger:
    u0: float
    eta: float
    L: float
    lambda_g: float
    c: float
    nu: float
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VorticityModel:
    model_id: str
    f: Callable[[float], float]
    F: Callable[[float], float]
    ledger: ConstantsLedger
    f_arr: Callable[[np.ndarray], np.ndarray]
    g_arr: Callable[[np.ndarray], np.ndarray]
    # F over an array of finite nodes, bit for bit F's values
    F_arr: Callable[[np.ndarray], np.ndarray]
    # f' at finite u > 0, increasing there: f is convex on u > 0, and
    # check_ball reads the extremes of |f| and |f'| on a ball off that
    df: Callable[[float], float]


def _at_zero(u: float) -> float:
    """Value of an odd f at an input that is neither finite > 0 nor finite
    < 0: 0.0 at (signed) zero; NaN and +-inf are rejected, not taken for an
    equilibrium."""
    if u == 0.0:
        return 0.0
    raise ParameterDomainError(
        f"model input must be a finite number, got {u!r}")


def _finite(u: float) -> float:
    """u itself when finite; NaN and +-inf are rejected."""
    if math.isfinite(u):
        return u
    raise ParameterDomainError(f"model input must be finite, got {u!r}")


def _positive(u: float) -> float:
    """u itself when finite and > 0, the domain of every df."""
    if 0.0 < u < _INF:
        return u
    raise ParameterDomainError(f"df needs a finite u > 0, got {u!r}")


def _no_potential(psi: float) -> ParameterDomainError:
    """Every family's F is psi^2/2 less a sublinear integral: finite
    exactly where psi^2/2 is.  This refuses any other psi."""
    return ParameterDomainError(
        f"F needs a psi with finite psi^2/2, got psi={psi!r}")


def constantin_model() -> VorticityModel:
    """f(u) = u - sign(u) sqrt(|u|), the square-root vorticity profile.

    On u > 0, f'(u) = 1 - u^(-1/2)/2 and f''(u) = u^(-3/2)/4 > 0.
    """

    def f(u: float) -> float:
        if 0.0 < u < _INF:
            return u - math.sqrt(u)
        if -_INF < u < 0.0:
            return u + math.sqrt(-u)
        return _at_zero(u)

    def F(psi: float) -> float:
        half = 0.5 * psi * psi
        if not half < _INF:
            raise _no_potential(psi)
        a = abs(psi)
        return half - (2.0 / 3.0) * a * math.sqrt(a)

    def F_arr(psi: np.ndarray) -> np.ndarray:
        a = np.abs(psi)
        return 0.5 * psi * psi - (2.0 / 3.0) * a * np.sqrt(a)

    ledger = ConstantsLedger(
        u0=1.0,
        eta=28.0 / 9.0,
        L=1.0 + math.sqrt(2.0),
        lambda_g=0.75,
        c=0.0,
        nu=0.5,
    )
    return VorticityModel(
        model_id="constantin",
        f=f, F=F, ledger=ledger,
        f_arr=lambda u: u - np.sign(u) * np.sqrt(np.abs(u)),
        g_arr=lambda u: np.sign(u) * np.sqrt(np.abs(u)),
        F_arr=F_arr,
        df=lambda u: 1.0 - 0.5 / math.sqrt(_positive(u)),
    )


def example_model(c2: float) -> VorticityModel:
    """Sinusoidally modulated square-root profile.

    g(u) = sign(u) sqrt(|u|) (1 + c1 - sin(c2 u^2/(u^2+1))) with
    c1 = sin(c2/2), admissible for 0 < c2 < C2_UPPER_BOUND.  The
    modulation keeps u0 = 1 while breaking the closed-form potential.
    With u = t^2 the modulated part of F integrates 2 t^2 sin(c2 t^4/(t^4+1)),
    analytic with its nearest singularities 0.71 off the real axis, so a
    fixed Gauss-Legendre rule per panel of width <= 1 converges
    geometrically (Trefethen, SIAM Review 50, 2008).

    f is convex on u > 0.  With m the modulation, x = c2 u^2/(u^2+1),
    m' = -cos(x) x' and m'' = sin(x) x'^2 - cos(x) x'',

        u^(3/2) f''(u) = m/4 - u m' - u^2 m''.

    Here m >= 1 - c2, |u x'| = 2 c2 u^2/(u^2+1)^2 <= c2/2,
    |u^2 x''| = 2 c2 u^2 |1 - 3u^2|/(u^2+1)^3 <= 0.76 c2 and
    |sin(x) u^2 x'^2| <= c2^3/4, so u^(3/2) f'' >= (1 - c2)/4 - 1.27 c2
    > 0.21 for every c2 < C2_UPPER_BOUND.  From u = _BIG on, f and f' take
    m's limit m(inf) in place of m, a change below their rounding.
    """
    if not 0.0 < c2 < C2_UPPER_BOUND:
        raise ParameterDomainError(
            f"c2 must lie in (0, {C2_UPPER_BOUND!r}), got {c2!r}")
    c1 = math.sin(0.5 * c2)
    # the modulation's limit, c2 uu / (uu + 1) -> c2, where u * u overflows
    m_big = 1.0 + c1 - math.sin(c2)

    def f(u: float) -> float:
        if 0.0 < u < _BIG:
            uu = u * u
            return u - math.sqrt(u) * (1.0 + c1
                                       - math.sin(c2 * uu / (uu + 1.0)))
        if -_BIG < u < 0.0:
            uu = u * u
            return u + math.sqrt(-u) * (1.0 + c1
                                        - math.sin(c2 * uu / (uu + 1.0)))
        # zero, NaN, +-inf or |u| >= _BIG
        if _finite(u) > 0.0:
            return u - math.sqrt(u) * m_big
        if u < 0.0:
            return u + math.sqrt(-u) * m_big
        return 0.0

    # panel and tail take float limits, with math's sin and cos, for F and
    # the stepper; panel_arr and tail_arr take arrays of limits and run
    # each node as one row of a (12, m) broadcast, in the same operation
    # order, then add the rows in the scalar loop's order, so F_arr keeps
    # F's bits; the tests check that np.sin and np.cos round alike
    def panel(lo, hi, sin=math.sin):
        """int_lo^hi 2 t^2 sin(c2 t^4/(t^4+1)) dt, one Gauss panel."""
        h = hi - lo
        acc = 0.0
        for sg, wg in _GL:
            t = lo + h * sg
            tt = t * t
            t4 = tt * tt
            acc += wg * tt * sin(c2 * t4 / (t4 + 1.0))
        return 2.0 * h * acc

    def tail(lo, sin=math.sin, cos=math.cos):
        """int_lo^(1/2) 2 s^-4 (sin(c2 w) - sin(c2)) ds, w = 1/(1+s^4), with
        the difference as -2 cos(c2 (1+w)/2) sin(c2 (1-w)/2)."""
        h = 0.5 - lo
        acc = 0.0
        for sg, wg in _GL:
            s = lo + h * sg
            s4 = s * s * s * s
            q = s4 / (1.0 + s4)  # 1 - w, free of cancellation
            acc += (wg * cos(c2 * (1.0 - 0.5 * q))
                    * sin(0.5 * c2 * q) / s4)
        return -4.0 * h * acc

    def rows_added(terms):
        acc = np.zeros(terms.shape[1])
        for row in terms:
            acc += row
        return acc

    def panel_arr(lo, hi):
        h = hi - lo
        t = lo + h * _GL_S_COL
        tt = t * t
        t4 = tt * tt
        terms = _GL_W_COL * tt * np.sin(c2 * t4 / (t4 + 1.0))
        return 2.0 * h * rows_added(terms)

    def tail_arr(lo):
        h = 0.5 - lo
        s = lo + h * _GL_S_COL
        s4 = s * s * s * s
        q = s4 / (1.0 + s4)
        terms = (_GL_W_COL * np.cos(c2 * (1.0 - 0.5 * q))
                 * np.sin(0.5 * c2 * q) / s4)
        return -4.0 * h * rows_added(terms)

    p1 = panel(0.0, 1.0)
    p2 = p1 + panel(1.0, 2.0)
    sin_c2 = math.sin(c2)

    def F(psi: float) -> float:
        half = 0.5 * psi * psi
        if not half < _INF:
            raise _no_potential(psi)
        x = abs(psi)
        t = math.sqrt(x)
        if t <= 1.0:
            s = panel(0.0, t)
        elif t <= 2.0:
            s = p1 + panel(1.0, t)
        else:
            # past t = 2 the integrand tends to 2 t^2 sin(c2): that part in
            # closed form, the remainder in s = 1/t on [1/t, 1/2]
            s = p2 + sin_c2 * (2.0 / 3.0) * (x * t - 8.0) + tail(1.0 / t)
        return half - (1.0 + c1) * (2.0 / 3.0) * x * t + s

    def F_arr(psi: np.ndarray) -> np.ndarray:
        # F's three branches over masks of the nodes, in F's operation order
        x = np.abs(psi)
        t = np.sqrt(x)
        s = np.empty_like(t)
        near, far = t <= 1.0, t > 2.0
        mid = ~(near | far)
        s[near] = panel_arr(0.0, t[near])
        s[mid] = p1 + panel_arr(1.0, t[mid])
        tf = t[far]
        s[far] = (p2 + sin_c2 * (2.0 / 3.0) * (x[far] * tf - 8.0)
                  + tail_arr(1.0 / tf))
        return 0.5 * psi * psi - (1.0 + c1) * (2.0 / 3.0) * x * t + s

    def g_arr(u: np.ndarray) -> np.ndarray:
        uu = np.minimum(u * u, _MAX)
        mod = 1.0 + c1 - np.sin(c2 * uu / (uu + 1.0))
        return np.sign(u) * np.sqrt(np.abs(u)) * mod

    def f_arr(u: np.ndarray) -> np.ndarray:
        return u - g_arr(u)

    def df(u: float) -> float:
        # f' = 1 - m/(2 sqrt u) - sqrt(u) m', m' = -cos(x) x'
        r = math.sqrt(_positive(u))
        if u >= _BIG:
            return 1.0 - 0.5 * m_big / r
        uu = u * u
        d = uu + 1.0
        x = c2 * uu / d
        return (1.0 - 0.5 * (1.0 + c1 - math.sin(x)) / r
                + r * math.cos(x) * (2.0 * c2 * u / d / d))

    ledger = ConstantsLedger(
        u0=1.0,
        eta=10.0 / 3.0,
        L=2.5,
        lambda_g=0.75 / (1.0 + math.sin(0.5 * c2) - math.sin(c2)),
        c=0.5 * c2,
        nu=0.5,
        params={"c2": c2},
    )
    return VorticityModel(
        model_id="example",
        f=f, F=F, ledger=ledger,
        f_arr=f_arr, g_arr=g_arr, F_arr=F_arr, df=df,
    )


def power_law_model(alpha: float) -> VorticityModel:
    """f(u) = u - sign(u) |u|^alpha for an exponent alpha in (0, 1).

    On u > 0, f'(u) = 1 - alpha u^(alpha-1) and
    f''(u) = alpha (1 - alpha) u^(alpha-2) > 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    eta = 28.0 / 9.0

    def f(u: float) -> float:
        if 0.0 < u < _INF:
            return u - u ** alpha
        if -_INF < u < 0.0:
            return u + (-u) ** alpha
        return _at_zero(u)

    def F(psi: float) -> float:
        half = 0.5 * psi * psi
        if not half < _INF:
            raise _no_potential(psi)
        return half - abs(psi) ** (1.0 + alpha) / (1.0 + alpha)

    def F_arr(psi: np.ndarray) -> np.ndarray:
        # np.float_power rounds as ** does; np.power does not everywhere
        return (0.5 * psi * psi
                - np.float_power(np.abs(psi), 1.0 + alpha) / (1.0 + alpha))

    ledger = ConstantsLedger(
        u0=1.0,
        eta=eta,
        # slope ceiling attained at the left edge of the smallest window,
        # xi = (1 - eta/4) * a with a = 1
        L=1.0 + alpha * (1.0 - 0.25 * eta) ** (alpha - 1.0),
        lambda_g=0.5 * (1.0 + alpha),
        c=0.0,
        nu=1.0 - alpha,
        params={"alpha": alpha},
    )
    return VorticityModel(
        model_id="powerlaw",
        f=f, F=F, ledger=ledger,
        f_arr=lambda u: u - np.sign(u) * np.abs(u) ** alpha,
        g_arr=lambda u: np.sign(u) * np.abs(u) ** alpha,
        F_arr=F_arr,
        df=lambda u: 1.0 - alpha * _positive(u) ** (alpha - 1.0),
    )


def make_model(model_id: str, c2: Optional[float] = None,
               alpha: Optional[float] = None) -> VorticityModel:
    """Build a model from its string id plus numeric parameters; a
    parameter the family does not take is an error."""
    if c2 is not None and model_id != "example":
        raise ParameterDomainError(
            f"c2 applies to the example model only, not {model_id!r}")
    if alpha is not None and model_id != "powerlaw":
        raise ParameterDomainError(
            f"alpha applies to the powerlaw model only, not {model_id!r}")
    if model_id == "constantin":
        return constantin_model()
    if model_id == "example":
        return example_model(0.02 if c2 is None else c2)
    if model_id == "powerlaw":
        return power_law_model(0.5 if alpha is None else alpha)
    raise ParameterDomainError(f"unknown model id {model_id!r}")


def arrival_law(model: VorticityModel) -> Optional[Tuple[float, float]]:
    """(alpha, lam) with f(u) = u - lam u^alpha (1 + O(u^2)) as u -> 0+: the
    law by which an orbit of the family arrives at the origin; None for a
    model outside the three families."""
    if model.model_id == "constantin":
        return 0.5, 1.0
    if model.model_id == "example":
        # the modulation is 1 + c1 - O(u^2)
        return 0.5, 1.0 + math.sin(0.5 * model.ledger.params["c2"])
    if model.model_id == "powerlaw":
        return model.ledger.params["alpha"], 1.0
    return None


# adaptive Simpson, potential_by_quadrature's rule: bisection depth cap
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


def potential_by_quadrature(model: VorticityModel, psi: float) -> float:
    """F(psi) by direct adaptive quadrature of f to 1e-12; the independent
    route.  It takes the psi that F takes."""
    if not 0.5 * psi * psi < _INF:
        raise _no_potential(psi)
    if psi == 0.0:
        return 0.0
    return adaptive_simpson(model.f, 0.0, psi, tol=1e-12)


def potential_grid(model: VorticityModel, psis: np.ndarray) -> np.ndarray:
    """F on a 1-d grid of any order and sign, bit for bit the scalar F's
    values, in one F_arr pass.  A node F refuses is refused as F refuses
    it."""
    psis = np.asarray(psis, dtype=float)
    if psis.ndim != 1 or len(psis) == 0:
        raise ParameterDomainError("psis must be a nonempty 1-d array")
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(0.5 * psis * psis < _INF)
    if bad.any():
        raise _no_potential(float(psis[bad][0]))
    return model.F_arr(psis)


def find_positive_zero(model: VorticityModel) -> float:
    """Locate the positive zero of f by probing (0, 2] at 200 points in
    one f_arr pass and bisecting f to 1e-13: the first probe where f is
    exactly zero wins, else the first sign change between probes.

    Raises HypothesisViolationError when no sign change (or exact zero)
    shows up among the probes, e.g. for f(u) = u.
    """
    us = 2.0 * (np.arange(200) + 1.0) / 200
    vals = model.f_arr(us)
    hits = np.flatnonzero(vals == 0.0)
    if hits.size:
        return float(us[hits[0]])
    hits = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    if hits.size:
        j = int(hits[0])
        return bisect_root(model.f, float(us[j]), float(us[j + 1]),
                           float(vals[j]), 1e-13)
    raise HypothesisViolationError(
        "f has no sign change on the probe grid; no positive zero found")
