"""Adaptive integration of psi' = beta, beta' = -beta/r - f(psi).

The stepper is an embedded Dormand-Prince 5(4) pair with FSAL, PI step
control, and two dense representations per accepted step: the order-4
interpolant of the pair (used to integrate the dissipation density
beta^2/r with a 5-point Gauss rule) and the cubic Hermite of the stored
endpoints (used for the zero-energy stop, the origin capture, the closest
approach and all after-the-fact sampling, so results never depend on which
steps the controller happened to take beyond their endpoints).

In the loop R = hypot(psi, beta) serves only the origin capture: a step
with an endpoint below _R_WATCH gets its hull bound on R (_hull_floor), and
only where that lies below origin_radius an 11-point grid and a golden
search.  Trajectory.closest_approach finds the closest approach afterwards.

The left endpoint r = 0 is singular, so integrate() opens with a short
Picard series head on [0, r_handoff] computed by the fixed-point solver
(_PICARD_N points, tolerance _PICARD_TOL) and hands the state to the
stepper at r_handoff.  The other end an orbit can have, its arrival at the
origin at a finite radius R, starts a backward sweep from arrival_start's
series.

The forward, restart and backward sweeps share one core, _integrate_core.
It ends a step early in one place: with stop_at_zero_energy, where the
energy E = beta^2/2 + F(psi) first falls through 0, or at an origin capture
strictly before that.  It forms every row that is not an accepted step's
end with _row, and returns the Trajectory, reversed into ascending r for a
backward sweep.  An accepted step calls no Python function but f and F, or
hands over to a crossing window: the core inlines _hull_floor and the
full-step _dissipation, each with the same operations in the same order.

For the square-root families, f(sig t^2) = sig (t^2 - t m(t^2)), so psi(r)
carries a (r - r_c)^(5/2) term at each crossing r_c of psi = 0, where no
r-step is smooth.  A forward sweep hands each crossing with |psi| < 1/4 to a
crossing window (_window), which steps t = sqrt|psi|, where the orbit is
analytic.  An entry floor on E keeps E > 0 and R > origin_radius through a
window, so the zero-energy stop and the origin capture stay on the plain path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ParameterDomainError
from .fixedpoint import (beta_from_psi, check_start_value, picard_solve,
                         require_finite)
from .phaseplane import TWO_PI
from .quadrature import cumtrapz
from .search import bisect_root, golden_min
from .vorticity import SQRT_FAMILY_NEG_F, VorticityModel, arrival_law

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)

# dense-output polynomial: y(s) = y0 + h s (Q0 + s Q1 + s^2 Q2 + s^3 Q3),
# Q_j = sum_i k_i P[i][j]; each row of P sums to the 5th-order weight b_i
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
)
((_P00, _P01, _P02, _P03), _, (_P20, _P21, _P22, _P23),
 (_P30, _P31, _P32, _P33), (_P40, _P41, _P42, _P43),
 (_P50, _P51, _P52, _P53), (_P60, _P61, _P62, _P63)) = _P

# 5-point Gauss-Legendre on [0, 1]
_GAUSS_S = (0.046910077030668004, 0.23076534494715845, 0.5,
            0.7692346550528415, 0.953089922969332)
_GAUSS_W = (0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
            0.23931433524968324, 0.11846344252809454)
_GS0, _GS1, _GS2, _GS3, _GS4 = _GAUSS_S
_GW0, _GW1, _GW2, _GW3, _GW4 = _GAUSS_W
# the dense polynomial at each Gauss point: y(s) = y0 + h sum_i k_i W[i]
_GAUSS_P = tuple(tuple(s * (p0 + s * (p1 + s * (p2 + s * p3)))
                       for p0, p1, p2, p3 in _P[:1] + _P[2:])
                 for s in _GAUSS_S)

# Picard head grid size and sweep tolerance
_PICARD_N = 512
_PICARD_TOL = 1e-13
# the in-step search for the radius minimum switches on below this R
_R_WATCH = 2.5
_STOP_BISECTIONS = 60
_THETA_STEP_CAP = 0.9 * math.pi
# crossing windows (_window) open below |psi| = _WINDOW_PSI = _WINDOW_T^2;
# there |beta| stays above _BETA_MIN (or origin_radius)
_WINDOW_PSI, _WINDOW_T, _BETA_MIN = 0.25, 0.5, 0.05


class Termination(enum.Enum):
    REACHED_RMAX = "reached_rmax"
    ORIGIN_REACHED = "origin_reached"
    EVENT = "event"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IntegrationConfig:
    r_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    r_handoff: float = 0.0625
    max_steps: int = 2_000_000
    origin_radius: float = 1e-6
    # end the run where E = beta^2/2 + F(psi) first falls through 0
    stop_at_zero_energy: bool = False

    def __post_init__(self) -> None:
        for name in ("r_max", "r_handoff", "origin_radius", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterDomainError(
                    f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise ParameterDomainError(
                f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if self.max_steps < 1:
            raise ParameterDomainError(
                f"max_steps must be >= 1, got {self.max_steps!r}")


def _hermite(y0: float, y1: float, d0: float, d1: float, h: float,
             s: float) -> float:
    s2 = s * s
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0
            + s * (1.0 - s) ** 2 * h * d0
            + s2 * (3.0 - 2.0 * s) * y1
            + s2 * (s - 1.0) * h * d1)


def _hermite_radius(s: float, psi: float, beta: float, psi1: float,
                    beta1: float, k1p: float, k1b: float, k7p: float,
                    k7b: float, h: float) -> float:
    """hypot of the Hermite state at s, bit for bit what
    math.hypot(_hermite(psi, ...), _hermite(beta, ...)) returns."""
    s2 = s * s
    t2 = (1.0 - s) ** 2
    w0 = (1.0 + 2.0 * s) * t2
    w1 = s * t2 * h
    w2 = s2 * (3.0 - 2.0 * s)
    w3 = s2 * (s - 1.0) * h
    return math.hypot(w0 * psi + w1 * k1p + w2 * psi1 + w3 * k7p,
                      w0 * beta + w1 * k1b + w2 * beta1 + w3 * k7b)


# steps per block of the array passes over stored steps
_BLOCK = 4096


def _hull_floor(psi, beta, psi1, beta1, k1p, k1b, k7p, k7b, h,
                hypot=np.hypot):
    """Lower bound on _hermite_radius over s in [0, 1], for one step or for
    numpy arrays of steps.

    The cubic Hermite from P0 = (psi, beta) to P3 = (psi1, beta1) with end
    slopes h*k1 and h*k7 is the Bezier curve with control points P0,
    P0 + (h/3) k1, P3 - (h/3) k7, P3, so it stays in their convex hull.
    For the unit vector u along P0 + P3, R(s) >= u.P(s) >= min_i u.P_i.
    This holds for either sign of h.  The slack, 1e-12 of the control
    points' size (plus 1e-300 for underflow), is orders above the few-ulp
    rounding of this bound and of the radius as _hermite_radius computes it.
    On floats with hypot=math.hypot it gives the core's inline copy's bits.
    """
    sx = psi + psi1
    sy = beta + beta1
    norm = hypot(sx, sy)
    slack = 1e-12 * (abs(psi) + abs(beta) + abs(psi1) + abs(beta1)
                     + abs(h) * (abs(k1p) + abs(k1b) + abs(k7p) + abs(k7b))
                     ) + 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        ux, uy = np.divide(sx, norm), np.divide(sy, norm)
    h3 = h / 3.0
    c0 = ux * psi + uy * beta
    c3 = ux * psi1 + uy * beta1
    floor = np.minimum(np.minimum(c0, c0 + h3 * (ux * k1p + uy * k1b)),
                       np.minimum(c3 - h3 * (ux * k7p + uy * k7b), c3))
    return np.where(norm == 0.0, -slack, floor - slack)


def _radius_grid(seg: Tuple[float, ...], s_lo: float = 0.0) -> List[float]:
    """_hermite_radius(s, *seg) at s = s_lo + (1 - s_lo) k/10, k = 0..10."""
    return [_hermite_radius(s_lo + (1.0 - s_lo) * (k / 10.0), *seg)
            for k in range(11)]


def _radius_search(seg: Tuple[float, ...], rgrid: List[float],
                   s_lo: float = 0.0) -> Tuple[float, float]:
    """(s, R) of a step's radius minimum: golden_min of
    _hermite_radius(s, *seg) around the minimum of rgrid, the step's
    _radius_grid(seg, s_lo), where it is lower, else that grid point."""
    j = rgrid.index(min(rgrid))
    lo, mid, hi = (s_lo + (1.0 - s_lo) * (k / 10.0)
                   for k in (max(0, j - 1), j, min(10, j + 1)))
    s, rad = golden_min(lambda s: _hermite_radius(s, *seg), lo, hi)
    return (s, rad) if rad < rgrid[j] else (mid, rgrid[j])


def _dissipation(r: float, hs: float, beta: float, q0: float, q1: float,
                 q2: float, q3: float, s_hi: float) -> float:
    """int beta^2/r dr over the first s_hi of a step, 5-point Gauss on the
    pair's dense beta = beta + hs s (q0 + s q1 + s^2 q2 + s^3 q3)."""
    acc = 0.0
    for sg, wg in zip(_GAUSS_S, _GAUSS_W):
        s = s_hi * sg
        bd = beta + hs * s * (q0 + s * (q1 + s * (q2 + s * q3)))
        acc += wg * bd * bd / (r + s * hs)
    return hs * s_hi * acc


@dataclass
class Trajectory:
    """Accepted-step samples of one orbit, ascending in r.

    dissipation[i] holds int beta^2/r dr over [r[i], r[i+1]], evaluated
    from the stepper's own dense output, so cumulative sums reproduce the
    energy drop to integration accuracy.
    """
    model: VorticityModel
    r: np.ndarray
    psi: np.ndarray
    beta: np.ndarray
    radius: np.ndarray
    theta: np.ndarray
    E: np.ndarray
    dissipation: np.ndarray
    termination: Termination

    @property
    def n_points(self) -> int:
        return len(self.r)

    def locate(self, r: float) -> Tuple[int, float]:
        """(i, s) with r[i] <= r <= r[i+1] and s the local coordinate of r
        in [0, 1] on that step."""
        if len(self.r) < 2:
            raise ParameterDomainError("a one-row trajectory has no steps")
        if not self.r[0] <= r <= self.r[-1]:
            raise ParameterDomainError(
                f"r={r!r} outside the stored range "
                f"[{self.r[0]!r}, {self.r[-1]!r}]")
        i = int(np.searchsorted(self.r, r, side="right")) - 1
        i = min(max(i, 0), len(self.r) - 2)
        h = float(self.r[i + 1] - self.r[i])
        return i, 0.0 if h == 0.0 else (r - float(self.r[i])) / h

    def node(self, name: str, i: int) -> Tuple[float, float]:
        """(value, d/dr) at node i of psi, beta, radius, theta or E, with
        the derivative taken from the vector field itself."""
        r = float(self.r[i])
        psi = float(self.psi[i])
        beta = float(self.beta[i])
        if r == 0.0:
            dpsi, dbeta = 0.0, -0.5 * self.model.f(psi)
        else:
            dpsi, dbeta = beta, -beta / r - self.model.f(psi)
        if name == "theta":
            rr = psi * psi + beta * beta
            dth = 0.0 if rr == 0.0 else (psi * dbeta - beta * dpsi) / rr
            return float(self.theta[i]), dth
        if name == "E":
            de = 0.0 if r == 0.0 else -beta * beta / r
            return float(self.E[i]), de
        if name == "radius":
            rad = float(self.radius[i])
            drad = 0.0 if rad == 0.0 else (psi * dpsi + beta * dbeta) / rad
            return rad, drad
        if name == "psi":
            return psi, dpsi
        if name == "beta":
            return beta, dbeta
        raise ValueError(f"unknown quantity {name!r}")

    def hermite(self, name: str, i: int) -> Callable[[float], float]:
        """Cubic Hermite of a quantity on step i as a function of the local
        coordinate s in [0, 1]; s keeps full precision where r itself would
        round to a grid endpoint."""
        h = float(self.r[i + 1] - self.r[i])
        y0, d0 = self.node(name, i)
        y1, d1 = self.node(name, i + 1)
        return lambda s: _hermite(y0, y1, d0, d1, h, s)

    def closest_approach(self, r_from: Optional[float] = None
                         ) -> Tuple[float, float]:
        """(r, R) of the smallest R = hypot(psi, beta) on the Hermite of the
        stored steps over [r_from, r[-1]], the whole orbit by default.

        One numpy pass in blocks forms each step's _hull_floor from the node
        slopes of node(); only steps whose floor lies below the smallest node
        radius get the grid, and _radius_search runs on them in order of grid
        minimum while a floor is below the best value found."""
        r, psi, beta, radius = self.r, self.psi, self.beta, self.radius
        if len(r) == 1 and r_from in (None, r[0]):
            return float(r[0]), float(radius[0])
        i0, s0 = (0, 0.0) if r_from is None else self.locate(r_from)
        first = i0 + 1 if s0 > 0.0 else i0
        k = first + int(np.argmin(radius[first:]))
        best_r, best = float(r[k]), float(radius[k])
        cands = []
        for lo in range(i0, len(r) - 1, _BLOCK):
            hi = min(lo + _BLOCK, len(r) - 1) + 1
            rs, ps, bs = r[lo:hi], psi[lo:hi], beta[lo:hi]
            fp = self.model.f_arr(ps)
            with np.errstate(divide="ignore", invalid="ignore"):
                db = np.where(rs == 0.0, -0.5 * fp, -bs / rs - fp)
            dp = np.where(rs == 0.0, 0.0, bs)
            cols = (ps[:-1], bs[:-1], ps[1:], bs[1:], dp[:-1], db[:-1],
                    dp[1:], db[1:], np.diff(rs))
            floor = _hull_floor(*cols)
            for j in np.flatnonzero(floor < best).tolist():
                seg = tuple(float(c[j]) for c in cols)
                s_lo = s0 if lo + j == i0 else 0.0
                grid = _radius_grid(seg, s_lo)
                cands.append((min(grid), float(floor[j]), lo + j, s_lo, grid,
                              seg))
        for _, floor, i, s_lo, grid, seg in sorted(cands, key=lambda c: c[0]):
            if floor < best:
                s, rad = _radius_search(seg, grid, s_lo)
                if rad < best:
                    best_r, best = float(r[i]) + s * seg[-1], rad
        r_lo = float(r[0] if r_from is None else r_from)
        return min(max(best_r, r_lo), float(r[-1])), best

    @cached_property
    def _closest(self) -> Tuple[float, float]:
        return self.closest_approach()

    min_radius = property(lambda self: self._closest[1])
    min_radius_r = property(lambda self: self._closest[0])

    def to_csv(self, fh) -> None:
        fh.write("r,psi,beta,R,theta,E\n")
        cols = (self.r, self.psi, self.beta, self.radius, self.theta, self.E)
        # blocks of rows keep the float lists small next to the text
        for j in range(0, len(self.r), 4096):
            rows = zip(*(c[j:j + 4096].tolist() for c in cols))
            fh.writelines(f"{r!r},{p!r},{b!r},{R!r},{t!r},{e!r}\n"
                          for r, p, b, R, t, e in rows)


def _initial_step(f: Callable[[float], float], r0: float, psi: float,
                  beta: float, direction: float, rel_tol: float,
                  abs_tol: float, span: float) -> float:
    # standard two-stage heuristic: trial Euler step, then bound by the
    # observed second derivative
    d_psi = beta
    d_beta = -beta / r0 - f(psi)
    sc_p = abs_tol + rel_tol * abs(psi)
    sc_b = abs_tol + rel_tol * abs(beta)
    d0 = math.sqrt(0.5 * ((psi / sc_p) ** 2 + (beta / sc_b) ** 2))
    d1 = math.sqrt(0.5 * ((d_psi / sc_p) ** 2 + (d_beta / sc_b) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    r1 = r0 + direction * h0
    psi1 = psi + direction * h0 * d_psi
    beta1 = beta + direction * h0 * d_beta
    e_psi = beta1
    e_beta = -beta1 / r1 - f(psi1)
    d2 = math.sqrt(0.5 * (((e_psi - d_psi) / sc_p) ** 2
                          + ((e_beta - d_beta) / sc_b) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _row(model: VorticityModel, r: float, psi: float, beta: float,
         theta_prev: Optional[float] = None
         ) -> Tuple[float, float, float, float, float, float]:
    """Stored row (r, psi, beta, R, theta, E) of a state.  A start row
    (theta_prev None) keeps the raw atan2; any other row has theta unwrapped
    to within pi of theta_prev, and theta_prev itself at the origin, where
    the angle is undefined."""
    th = math.atan2(beta, psi)
    if theta_prev is not None:
        th = th if (psi != 0.0 or beta != 0.0) else theta_prev
        th += TWO_PI * round((theta_prev - th) / TWO_PI)
    return (r, psi, beta, math.hypot(psi, beta), th,
            0.5 * beta * beta + model.F(psi))


def _window(f, F, r, psi, beta, theta, e, h, facold, rtol, atol, r_target,
            e_floor, append_row, append_diss):
    """Cross psi = 0 in t = sqrt|psi| from the state after an accepted step.

    z = r + i beta (one complex state) runs in t, psi = sig t^2, by the same
    pair: t falls to 0, where the crossing is stored with psi = 0, then rises
    (sig flipped) to _WINDOW_T.  Each t-step stores a row and int 2 sig t
    beta/r dt, 5-point Gauss on the dense z; a step past r_target, below
    1e-14, or to E or beta^2/2 <= e_floor is not taken.  Returns the last
    row's (r, psi, beta, theta, E), the next r-step, facold and attempts."""
    sig = 1.0 if psi > 0.0 else -1.0
    t, hdir, t_end, attempts = math.sqrt(sig * psi), -1.0, 0.0, 0
    ab, z = abs(beta), complex(r, beta)
    ht = h * ab / (t + t)  # dr = 2t dt / |beta|

    def rhs(tt, zz):  # dz/dt = dr/dt (1 + i dbeta/dr)
        kr = 2.0 * sig * tt / zz.imag
        return complex(kr, (-zz.imag / zz.real - f(sig * tt * tt)) * kr)

    k1 = rhs(t, z)
    while True:
        last = hdir * (t + hdir * ht - t_end) >= 0.0
        if last:
            ht = hdir * (t_end - t)
        if ht < 1e-14:
            break
        hs = hdir * ht
        attempts += 1
        k2 = rhs(t + _C2 * hs, z + hs * _A21 * k1)
        k3 = rhs(t + _C3 * hs, z + hs * (_A31 * k1 + _A32 * k2))
        k4 = rhs(t + _C4 * hs, z + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = rhs(t + _C5 * hs, z + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                         + _A54 * k4))
        t1 = t_end if last else t + hs
        k6 = rhs(t1, z + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                               + _A65 * k5))
        z1 = z + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = rhs(t1, z1)
        ez = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                   + _E7 * k7)
        r1, beta1, ab1 = z1.real, z1.imag, abs(z1.imag)
        err = math.sqrt(0.5 * ((ez.real / (atol + rtol * r1)) ** 2 + (
            ez.imag / (atol + rtol * (ab1 if ab1 > ab else ab))) ** 2))
        if err > 1.0:
            fac = 0.9 * err ** -0.2
            ht *= fac if fac > 0.1 else 0.1
            continue
        psi1 = sig * t1 * t1
        e1 = 0.5 * beta1 * beta1 + F(psi1)
        if not (r1 < r_target and e1 > e_floor < 0.5 * beta1 * beta1):
            break
        theta1 = math.atan2(beta1, psi1)
        theta1 += TWO_PI * round((theta - theta1) / TWO_PI)
        append_row((r1, psi1, beta1, math.hypot(psi1, beta1), theta1, e1))
        acc = 0.0
        for s, wg, (w1, w3, w4, w5, w6, w7) in zip(_GAUSS_S, _GAUSS_W,
                                                   _GAUSS_P):
            zg = z + hs * (w1 * k1 + w3 * k3 + w4 * k4 + w5 * k5 + w6 * k6
                           + w7 * k7)
            acc += wg * (t + s * hs) * zg.imag / zg.real
        append_diss(2.0 * sig * hs * acc)
        z, psi, theta, t, e, ab, k1 = z1, psi1, theta1, t1, e1, ab1, k7
        err = err if err > 1e-10 else 1e-10
        fac = 0.9 * err ** -0.17 * facold ** 0.04
        fac = fac if fac > 0.2 else 0.2
        ht *= fac if fac < 10.0 else 10.0
        facold = err
        if last:
            if hdir > 0.0:
                break
            sig, hdir, t_end = -sig, 1.0, _WINDOW_T  # on past the crossing
    return (z.real, psi, z.imag, theta, e, ht * (t + t + ht) / ab, facold,
            attempts)


def _integrate_core(model: VorticityModel, r_target: float,
                    direction: float, config: IntegrationConfig,
                    rows: List[Tuple[float, float, float, float, float, float]],
                    diss: List[float]) -> Trajectory:
    """March from the state in rows[-1] toward r_target and return the orbit.

    rows and diss (one interval fewer) are the orbit so far, the start row
    alone or a Picard head.  The core extends both lists in integration
    order and reverses them for a backward run.  A start already inside
    origin_radius is captured before the first step.
    """
    f, F = model.f, model.F
    hypot, atan2 = math.hypot, math.atan2
    append_row, append_diss = rows.append, diss.append
    rtol, atol = config.rel_tol, config.abs_tol
    # e0 is the stored E at the step's left end: the zero-energy stop
    # compares it with the right end's stored E
    r, psi, beta, radius0, theta, e0 = rows[-1]
    span = abs(r_target - r)
    if span <= 0.0:
        raise ParameterDomainError("empty integration range")
    h = _initial_step(f, r, psi, beta, direction, rtol, atol, span)
    k1p, k1b = beta, -beta / r - f(psi)
    origin_radius, stop = config.origin_radius, config.stop_at_zero_energy
    term = Termination.ORIGIN_REACHED if radius0 < origin_radius else None
    facold, nsteps = 1e-4, 0
    neg_f = SQRT_FAMILY_NEG_F.get(model.model_id) if direction > 0.0 else None
    e_floor = 0.5 * max(origin_radius, _BETA_MIN) ** 2
    # max, min and abs as comparisons that pick the same operand (max(a, b)
    # is b only where b > a); an absolute value may come out as -0.0 where
    # it only adds to a positive term; r > 0 and h > 0 on every sweep
    apsi, abeta = abs(psi), abs(beta)
    while term is None:
        if nsteps >= config.max_steps or h < 1e-14 * (r if r > 1.0 else 1.0):
            term = Termination.STEP_FAILURE
            break
        last = False
        if direction * (r + direction * h - r_target) >= 0.0:
            h = abs(r_target - r)
            last = True
        hs = direction * h
        nsteps += 1

        p2 = psi + hs * _A21 * k1p
        b2 = beta + hs * _A21 * k1b
        r2 = r + _C2 * hs
        k2p, k2b = b2, -b2 / r2 - f(p2)
        p3 = psi + hs * (_A31 * k1p + _A32 * k2p)
        b3 = beta + hs * (_A31 * k1b + _A32 * k2b)
        r3 = r + _C3 * hs
        k3p, k3b = b3, -b3 / r3 - f(p3)
        p4 = psi + hs * (_A41 * k1p + _A42 * k2p + _A43 * k3p)
        b4 = beta + hs * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
        r4 = r + _C4 * hs
        k4p, k4b = b4, -b4 / r4 - f(p4)
        p5 = psi + hs * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p)
        b5 = beta + hs * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
        r5 = r + _C5 * hs
        k5p, k5b = b5, -b5 / r5 - f(p5)
        p6 = psi + hs * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p
                         + _A65 * k5p)
        b6 = beta + hs * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b
                          + _A65 * k5b)
        r6 = r + hs
        k6p, k6b = b6, -b6 / r6 - f(p6)
        psi1 = psi + hs * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p
                           + _B6 * k6p)
        beta1 = beta + hs * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B5 * k5b
                             + _B6 * k6b)
        r1 = r_target if last else r + hs
        k7p, k7b = beta1, -beta1 / r1 - f(psi1)
        ep = hs * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p
                   + _E7 * k7p)
        eb = hs * (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b
                   + _E7 * k7b)
        ap1 = psi1 if psi1 >= 0.0 else -psi1
        ab1 = beta1 if beta1 >= 0.0 else -beta1
        sc_p = atol + rtol * (ap1 if ap1 > apsi else apsi)
        sc_b = atol + rtol * (ab1 if ab1 > abeta else abeta)
        err = math.sqrt(0.5 * ((ep / sc_p) ** 2 + (eb / sc_b) ** 2))
        if err > 1.0:
            # min(1.0, max(0.1, fac)) with fac < 0.9
            fac = 0.9 * err ** -0.2
            h *= fac if fac > 0.1 else 0.1
            continue

        theta1 = atan2(beta1, psi1)
        theta1 += TWO_PI * round((theta - theta1) / TWO_PI)
        dtheta = theta1 - theta
        if dtheta >= _THETA_STEP_CAP or dtheta <= -_THETA_STEP_CAP:
            # one step must never wrap the phase by anything close to a
            # half turn, or angle bookkeeping becomes ambiguous
            h *= 0.5
            continue

        # dense polynomial of the pair, for the dissipation quadrature
        q0 = (_P00 * k1b + _P20 * k3b + _P30 * k4b + _P40 * k5b + _P50 * k6b
              + _P60 * k7b)
        q1 = (_P01 * k1b + _P21 * k3b + _P31 * k4b + _P41 * k5b + _P51 * k6b
              + _P61 * k7b)
        q2 = (_P02 * k1b + _P22 * k3b + _P32 * k4b + _P42 * k5b + _P52 * k6b
              + _P62 * k7b)
        q3 = (_P03 * k1b + _P23 * k3b + _P33 * k4b + _P43 * k5b + _P53 * k6b
              + _P63 * k7b)

        # origin capture inside the step (see the module docstring)
        radius1, origin_s = hypot(psi1, beta1), None
        if radius0 < _R_WATCH or radius1 < _R_WATCH:
            # _hull_floor(*seg) inlined, same operations and order: the step's
            # Hermite is the Bezier curve on P0, P0 + hs k1/3, P3 - hs k7/3,
            # P3, so R >= u.P >= min_i u.P_i for u along P0 + P3, less slack
            sx, sy = psi + psi1, beta + beta1
            norm = hypot(sx, sy)
            slack = 1e-12 * (apsi + abeta + ap1 + ab1
                             + h * ((k1p if k1p >= 0.0 else -k1p)
                                    + (k1b if k1b >= 0.0 else -k1b)
                                    + (k7p if k7p >= 0.0 else -k7p)
                                    + (k7b if k7b >= 0.0 else -k7b))
                             ) + 1e-300
            if norm == 0.0:
                floor = -slack
            else:
                ux, uy = sx / norm, sy / norm
                h3 = hs / 3.0
                c0 = ux * psi + uy * beta
                c3 = ux * psi1 + uy * beta1
                floor = min(c0, c0 + h3 * (ux * k1p + uy * k1b),
                            c3 - h3 * (ux * k7p + uy * k7b), c3) - slack
            if not floor >= origin_radius:
                seg = (psi, beta, psi1, beta1, k1p, k1b, k7p, k7b, hs)
                cand_s, cand_rad = _radius_search(seg, _radius_grid(seg))
                if cand_rad < origin_radius:
                    origin_s = cand_s

        # the zero-energy stop: the first falling sign change of E on an
        # 11-point grid of the Hermite, then bisection
        e1 = 0.5 * beta1 * beta1 + F(psi1)
        s_cut = None
        if stop and e0 > 0.0 >= e1:
            def e_at(s: float) -> float:
                pm = _hermite(psi, psi1, k1p, k7p, hs, s)
                bm = _hermite(beta, beta1, k1b, k7b, hs, s)
                return 0.5 * bm * bm + F(pm)

            ev = [e_at(k / 10.0) for k in range(11)]
            for k in range(10):
                ea = ev[k]
                if ea > 0.0 >= ev[k + 1]:
                    # an exact zero sides with the far end: the root is the
                    # near edge of E's zero set
                    term = Termination.EVENT
                    s_cut = bisect_root(lambda s: e_at(s) or -ea, k / 10.0,
                                        (k + 1) / 10.0, ea, _STOP_BISECTIONS)
                    break

        # the one early end of a step: the zero-energy stop, unless the
        # origin capture comes strictly before it (the stop wins a tie)
        if origin_s is not None and (s_cut is None or origin_s < s_cut):
            term, s_cut = Termination.ORIGIN_REACHED, origin_s
        if s_cut is not None:
            append_row(_row(model, r + s_cut * hs,
                            _hermite(psi, psi1, k1p, k7p, hs, s_cut),
                            _hermite(beta, beta1, k1b, k7b, hs, s_cut), theta))
            append_diss(_dissipation(r, hs, beta, q0, q1, q2, q3, s_cut))
            break

        append_row((r1, psi1, beta1, radius1, theta1, e1))
        # _dissipation(..., 1.0) unrolled: s_hi = 1.0 makes s = sg and
        # hs*s_hi = hs, and 0.0 + t0 = t0 as each term t is >= +0
        b0 = beta + hs * _GS0 * (q0 + _GS0 * (q1 + _GS0 * (q2 + _GS0 * q3)))
        b1 = beta + hs * _GS1 * (q0 + _GS1 * (q1 + _GS1 * (q2 + _GS1 * q3)))
        b2 = beta + hs * _GS2 * (q0 + _GS2 * (q1 + _GS2 * (q2 + _GS2 * q3)))
        b3 = beta + hs * _GS3 * (q0 + _GS3 * (q1 + _GS3 * (q2 + _GS3 * q3)))
        b4 = beta + hs * _GS4 * (q0 + _GS4 * (q1 + _GS4 * (q2 + _GS4 * q3)))
        append_diss(hs * (_GW0 * b0 * b0 / (r + _GS0 * hs)
                          + _GW1 * b1 * b1 / (r + _GS1 * hs)
                          + _GW2 * b2 * b2 / (r + _GS2 * hs)
                          + _GW3 * b3 * b3 / (r + _GS3 * hs)
                          + _GW4 * b4 * b4 / (r + _GS4 * hs)))
        if radius1 < origin_radius:
            term = Termination.ORIGIN_REACHED
            break
        if last:
            term = Termination.REACHED_RMAX
            break
        r, psi, beta, theta = r1, psi1, beta1, theta1
        apsi, abeta = ap1, ab1
        k1p, k1b = k7p, k7b
        radius0, e0 = radius1, e1
        if 1e-10 > err:
            err = 1e-10
        fac = 0.9 * err ** -0.17 * facold ** 0.04
        fac = fac if fac > 0.2 else 0.2
        h *= fac if fac < 10.0 else 10.0
        facold = err
        # a crossing window opens where E stays above e_floor in it: there
        # -neg_f <= F <= 0, 2E <= beta^2 <= 2(E + neg_f), and E falls by
        # int 2t|beta|/r dt <= sqrt(2|E + neg_f|) (|psi| + 1/4)/r as t runs
        # |psi|^(1/2) -> 0 -> 1/2.  So beta^2/2 >= E > e_floor > 0 there, and
        # R >= |beta| > origin_radius: neither the stop nor the capture fires
        if (neg_f and 1e-20 < ap1 < _WINDOW_PSI and psi1 * beta1 < 0.0
                and e1 - math.sqrt(2.0 * abs(e1 + neg_f))
                * (ap1 + _WINDOW_PSI) / r1 > e_floor):
            r, psi, beta, theta, e0, h, facold, n = _window(
                f, F, r, psi, beta, theta, e0, h, facold, rtol, atol,
                r_target, e_floor, append_row, append_diss)
            nsteps += n
            assert 0.5 * beta * beta > e_floor  # the window bails out above it
            apsi, abeta = abs(psi), abs(beta)
            k1p, k1b, radius0 = beta, -beta / r - f(psi), hypot(psi, beta)

    if direction < 0.0:
        rows.reverse()
        diss = [-d for d in reversed(diss)]
    arr = np.asarray(rows, dtype=float)
    return Trajectory(
        model=model,
        r=arr[:, 0], psi=arr[:, 1], beta=arr[:, 2],
        radius=arr[:, 3], theta=arr[:, 4], E=arr[:, 5],
        dissipation=np.asarray(diss, dtype=float),
        termination=term)


def series_start(model: VorticityModel, a: float,
                 config: IntegrationConfig) -> Tuple[np.ndarray, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """Picard head on [0, r_handoff]: (r, psi, beta, cumulative dissipation)
    on the fine fixed-point grid."""
    grid = picard_solve(model, a, r_end=config.r_handoff, n=_PICARD_N,
                        tol=_PICARD_TOL)
    betas = beta_from_psi(model, grid)
    rs = grid.r
    dens = np.zeros_like(rs)
    dens[1:] = betas.values[1:] ** 2 / rs[1:]
    cum = cumtrapz(dens, float(rs[1] - rs[0]))
    return rs, grid.values, betas.values, cum


def arrival_start(model: VorticityModel, R: float,
                  s: float) -> Tuple[float, float]:
    """(psi, beta) at r = R - s on the orbit that reaches the origin at R.

    Where f(u) = u - lam u^alpha (1 + O(u^2)) as u -> 0+
    (vorticity.arrival_law), the orbit arrives as
    psi = k s^p (1 + b1 s + b2 s^2 + O(s^3)) with p = 2/(1 - alpha) and
    k = (lam/(p(p-1)))^(1/(1-alpha)).  The damping psi'/r gives
    b1 = c/R, c = 1/((p+1) - alpha(p-1)); b2 adds the linear part of f.
    """
    require_finite(R=R, s=s)
    if not 0.0 < s < R:
        raise ParameterDomainError(f"need 0 < s < R, got s={s!r}, R={R!r}")
    law = arrival_law(model)
    if law is None:
        raise ParameterDomainError(
            f"no arrival law for model {model.model_id!r}")
    alpha, lam = law
    p = 2.0 / (1.0 - alpha)
    q = p * (p - 1.0)
    k = (lam / q) ** (1.0 / (1.0 - alpha))
    b1 = 1.0 / (R * ((p + 1.0) - alpha * (p - 1.0)))
    b2 = ((((p + 1.0) * b1 + p / R) / R
           - 0.5 * alpha * (1.0 - alpha) * q * b1 * b1 - 1.0)
          / ((p + 2.0) * (p + 1.0) - alpha * q))
    ks = k * s ** (p - 1.0)
    # beta = dpsi/dr = -dpsi/ds
    return (ks * s * (1.0 + s * (b1 + s * b2)),
            -ks * (p + s * ((p + 1.0) * b1 + s * (p + 2.0) * b2)))


def integrate(model: VorticityModel, a: float,
              config: IntegrationConfig) -> Trajectory:
    """Orbit of the admissible profile from psi(0) = a, beta(0) = 0.

    The singular endpoint is covered by the Picard head; the zero-energy
    stop and the origin capture start at the handoff radius.
    """
    check_start_value(a)
    if config.r_max <= config.r_handoff:
        raise ParameterDomainError("r_max must exceed r_handoff")
    rs, psis, betas, cum = series_start(model, a, config)
    n = len(rs) - 1
    stride = max(1, n // 16)
    idx = list(range(0, n, stride)) + [n]

    rows = []
    theta = 0.0
    for j in idx:
        rows.append(_row(model, float(rs[j]), float(psis[j]),
                         float(betas[j]), theta))
        theta = rows[-1][4]
    diss = [float(cum[j1] - cum[j0]) for j0, j1 in zip(idx[:-1], idx[1:])]
    return _integrate_core(model, config.r_max, 1.0, config, rows, diss)


def integrate_from(model: VorticityModel, r0: float, psi0: float,
                   beta0: float, config: IntegrationConfig) -> Trajectory:
    """Forward orbit from an interior state (r0 > 0)."""
    require_finite(r0=r0, psi0=psi0, beta0=beta0)
    if r0 <= 0.0:
        raise ParameterDomainError(f"r0 must be positive, got {r0!r}")
    if config.r_max <= r0:
        raise ParameterDomainError("r_max must exceed r0")
    return _integrate_core(model, config.r_max, 1.0, config,
                           [_row(model, r0, psi0, beta0)], [])


def integrate_backward(model: VorticityModel, T: float, psi_T: float,
                       beta_T: float, r_end: Optional[float] = None,
                       config: Optional[IntegrationConfig] = None) -> Trajectory:
    """Sweep from the anchor (T, psi_T, beta_T) down to r_end < T.

    Results are stored ascending in r like every other trajectory; the
    per-interval dissipation keeps the ascending orientation.
    """
    require_finite(T=T, psi_T=psi_T, beta_T=beta_T)
    if r_end is None:
        if T <= 1.0:
            raise ParameterDomainError("default r_end needs T > 1")
        r_end = math.sqrt(T * T - 1.0)
    if not 0.0 < r_end < T:
        raise ParameterDomainError(
            f"need 0 < r_end < T, got r_end={r_end!r}, T={T!r}")
    if config is None:
        config = IntegrationConfig(r_max=T)
    return _integrate_core(model, r_end, -1.0, config,
                           [_row(model, T, psi_T, beta_T)], [])
