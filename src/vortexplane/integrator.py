"""Adaptive integration of psi' = beta, beta' = -beta/r - f(psi).

The stepper is DOP853, the 8th-order Dormand-Prince pair of Hairer, Norsett
& Wanner (Solving ODEs I, 2nd ed., II.10): 12 stages with FSAL, Hairer's
error norm, which blends the pair's 5th- and 3rd-order estimates, and
I-control of the step.  A step's dissipation int beta^2/r dr is a
component D' = beta^2/r of the same step: the pair's weights b_j on
beta_j^2/r_j at the stages it has already formed (II.1), at no f call.
Between its endpoints a step is read only through the cubic Hermite of
the stored endpoints: of E for the zero-energy stop, of psi and beta for
the cut row and of beta for its share of the dissipation, and for the
closest approach and all sampling after the run, so results never depend
on which steps the controller happened to take beyond their endpoints.
An orbit stores one row per accepted step.

The left endpoint r = 0 is singular, so integrate() opens with a Picard
head on [0, r_handoff], by default [0, 1], where fixedpoint audits the
short-range contraction: the fixed point collocated in s = r^2 as in
fixedpoint.picard_solve (tolerance _PICARD_TOL), exact to rounding there
and read on 17 rows.  The stepper takes the state over at r_handoff; an
r_max at or below it leaves the head on [0, r_max] alone.  An orbit's
arrival at the origin at a finite radius R is no event of the stepper: a
backward sweep starts from arrival_start's series, and analysis fits R.

The forward, restart and backward sweeps share one core, _integrate_core.
A run ends a step early in one place: with stop_at_zero_energy, where E's
Hermite (slopes dE/dr = -beta^2/r) first falls through 0, found by
_hermite_root as analysis.e_region_entry finds it, so the last (r, psi,
beta) of a stopped run is what e_region_entry reports for the same orbit.
integrate() scans the head's steps for it first (_head_stop), then the
core its own, and both cut with _cut.  The cut row keeps the energy of
its state, which misses 0 by the psi and beta Hermites' error (up to
3.7e-5, of either sign, over 123 shots at rel_tol 1e-9).  The cut step's
dissipation before the cut is _dissipation's 5-point Gauss on the cut
row's beta Hermite.  The core forms every row that is not an accepted
step's end with _row, and returns the Trajectory, reversed into ascending
r for a backward sweep.  An accepted step calls no Python function but f
and F, or hands over to a crossing window.

For the square-root families, f(sig t^2) = sig (t^2 - t m(t^2)), so psi(r)
carries a (r - r_c)^(5/2) term at each crossing r_c of psi = 0, where no
r-step is smooth.  A forward sweep hands each crossing with |psi| < 1/4 to a
crossing window (_window), which steps r and beta in t = sqrt|psi|, where
the orbit is analytic, as two real components with no Python call but f
and F; it starts from and appends to the core's rows and dissipation, and
the core goes on from the last row.  An entry floor on E keeps E > 0
through a window, so the zero-energy stop stays on the plain path.  The
stages, sums and error norms of both loops are generated from the tableau
at import (_define).
"""

from __future__ import annotations

import enum
import linecache
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ParameterDomainError
from .fixedpoint import (_check_count, check_start_value, picard_head,
                         require_finite)
from .phaseplane import TWO_PI
from .search import bisect_root, golden_min
from .vorticity import SQRT_FAMILY_NEG_F, VorticityModel, arrival_law

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10), with
# stages numbered from 1: k_i = f(r + c_i h, y + h sum_j a_ij k_j).  Stages
# 1-12 make the 8th-order step y1 = y + h sum_j b_j k_j (c_12 = 1); k13 =
# f(r + h, y1) starts the next step.  The pair's 7th-order dense output
# (stages 14-16) is not used: a step is read between its ends only on the
# cubic Hermite.  Only the nonzero a_ij, b_j and error weights are named,
# and the names are the sparsity: both stepper loops' stage, sum and error
# lines are generated from the names that exist (_sum, below).
_C2, _C3, _C4, _C5, _C6, _C7 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25)
_C8, _C9, _C10, _C11 = (
    0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571)
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = (0.2413651341592667, -0.8845494793282861,
                       0.924834003261792)
_A6_1, _A6_4, _A6_5 = (0.037037037037037035, 0.17082860872947386,
                       0.12546768756682242)
_A7_1, _A7_4, _A7_5, _A7_6 = (0.037109375, 0.17025221101954405,
                              0.06021653898045596, -0.017578125)
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196)
(_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10,
 _A12_11) = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259)
# the error estimates: h sum_j e_j k_j, of 5th (_E5) and 3rd order (_E3)
_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082)

# 5-point Gauss-Legendre on [0, 1], for the cut step of a zero-energy stop
_GAUSS_S = (0.046910077030668004, 0.23076534494715845, 0.5,
            0.7692346550528415, 0.953089922969332)
_GAUSS_W = (0.11846344252809454, 0.23931433524968324, 0.28444444444444444,
            0.23931433524968324, 0.11846344252809454)

# step control: the error norm is Hairer's, against _TOL_SCALE times the
# requested rel_tol and abs_tol; a step's factor is _SAFETY err^(-1/8), at
# most 3, at most 1 right after a rejection and at least 0.2 on one.
# Aiming at err = _SAFETY^8 = 0.17 with the tolerances scaled up keeps the
# global error below the 5(4) pair's at every rel_tol (see ROADMAP, Where
# the time goes) and rejects few steps.  A crossing window hands over an
# r-step of at most _EXIT_STEP |psi/beta|.
_TOL_SCALE, _SAFETY, _EXIT_STEP = 0.77, 0.8, 0.6
# the rows are sampled after the run on their cubic Hermite, which must
# resolve the damping beta/r near the centre and psi's (r - r_c)^(5/2) term
# at a crossing: an r-step is at most _R_STEP r, a window's t-step at most
# _WINDOW_DT.  _R_STEP binds on the 14-20 steps past the head at r = 1, out
# to r = 3-5, which are most of a short shot's (the a* of a shooting fit was
# off by 2.2e-10 without it, by 3.0e-11 with it, at a handoff of 1/16);
# _WINDOW_DT holds about a tenth of the rows of long orbits
_R_STEP, _WINDOW_DT = 0.08, 0.1

# Picard head sweep tolerance
_PICARD_TOL = 1e-13
_THETA_STEP_CAP = 0.9 * math.pi
# crossing windows (_window) open below |psi| = _WINDOW_PSI = _WINDOW_T^2;
# there |beta| stays above _BETA_MIN, as E stays above _E_FLOOR
_WINDOW_PSI, _WINDOW_T, _BETA_MIN = 0.25, 0.5, 0.05
_E_FLOOR = 0.5 * _BETA_MIN ** 2


class Termination(enum.Enum):
    REACHED_RMAX = "reached_rmax"
    EVENT = "event"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IntegrationConfig:
    r_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    r_handoff: float = 1.0
    max_steps: int = 2_000_000
    # end the run where the Hermite of the stored E first falls through 0
    stop_at_zero_energy: bool = False

    def __post_init__(self) -> None:
        for name in ("r_max", "r_handoff", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterDomainError(
                    f"{name} must be finite and positive, got {value!r}")
        # a relative tolerance of 100 % or more turns off the error control
        if self.rel_tol >= 1.0:
            raise ParameterDomainError(
                f"rel_tol must be below 1, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise ParameterDomainError(
                f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        # nsteps >= nan never holds: a float budget could be unlimited
        _check_count("max_steps", self.max_steps, 1)


def _hermite(y0: float, y1: float, d0: float, d1: float, h: float,
             s: float) -> float:
    s2 = s * s
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0
            + s * (1.0 - s) ** 2 * h * d0
            + s2 * (3.0 - 2.0 * s) * y1
            + s2 * (s - 1.0) * h * d1)


def _hermite_root(y0: float, y1: float, d0: float, d1: float, h: float,
                  level: float) -> float:
    """Local coordinate s in [0, 1] where the cubic Hermite of one step
    crosses level, given a sign change of y - level between its ends."""
    return bisect_root(lambda s: _hermite(y0, y1, d0, d1, h, s) - level,
                       0.0, 1.0, y0 - level)


# steps per block of the array passes over stored steps
_BLOCK = 4096


def _hull_floor(psi, beta, psi1, beta1, k1p, k1b, k13p, k13b, h):
    """Lower bound on a step's Hermite radius over s in [0, 1], for numpy
    arrays of steps.

    The cubic Hermite from P0 = (psi, beta) to P3 = (psi1, beta1) with end
    slopes h*k1 and h*k13 is the Bezier curve with control points P0,
    P0 + (h/3) k1, P3 - (h/3) k13, P3, so it stays in their convex hull.
    For the unit vector u along P0 + P3, R(s) >= u.P(s) >= min_i u.P_i.
    This holds for either sign of h.  The slack, 1e-12 of the control
    points' size (plus 1e-300 for underflow), is orders above the few-ulp
    rounding of this bound and of the radius as _step_minimum computes it.
    """
    sx = psi + psi1
    sy = beta + beta1
    norm = np.hypot(sx, sy)
    slack = 1e-12 * (abs(psi) + abs(beta) + abs(psi1) + abs(beta1)
                     + abs(h) * (abs(k1p) + abs(k1b) + abs(k13p) + abs(k13b))
                     ) + 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        ux, uy = np.divide(sx, norm), np.divide(sy, norm)
    h3 = h / 3.0
    c0 = ux * psi + uy * beta
    c3 = ux * psi1 + uy * beta1
    floor = np.minimum(np.minimum(c0, c0 + h3 * (ux * k1p + uy * k1b)),
                       np.minimum(c3 - h3 * (ux * k13p + uy * k13b), c3))
    return np.where(norm == 0.0, -slack, floor - slack)


def _step_minimum(seg: Tuple[float, ...],
                  s_lo: float) -> Tuple[float, float]:
    """(s, R) of the smallest R = hypot(psi, beta) on the Hermite of one
    step, seg = (psi, beta, psi1, beta1, k1p, k1b, k13p, k13b, h), over
    [s_lo, 1]: golden_min around the least of 11 evenly spaced points where
    that is lower, else that grid point."""
    psi, beta, psi1, beta1, k1p, k1b, k13p, k13b, h = seg

    def radius(s: float) -> float:
        return math.hypot(_hermite(psi, psi1, k1p, k13p, h, s),
                          _hermite(beta, beta1, k1b, k13b, h, s))

    grid = [radius(s_lo + (1.0 - s_lo) * (k / 10.0)) for k in range(11)]
    j = grid.index(min(grid))
    lo, mid, hi = (s_lo + (1.0 - s_lo) * (k / 10.0)
                   for k in (max(0, j - 1), j, min(10, j + 1)))
    s, rad = golden_min(radius, lo, hi)
    return (s, rad) if rad < grid[j] else (mid, grid[j])


def _dissipation(r: float, h: float, beta: float, beta1: float, d0: float,
                 d1: float, s_hi: float) -> float:
    """int beta^2/r dr over the first s_hi of a step of width h from r,
    5-point Gauss on the cubic Hermite of beta from (beta, d0) to
    (beta1, d1)."""
    acc = 0.0
    for sg, wg in zip(_GAUSS_S, _GAUSS_W):
        s = s_hi * sg
        b = _hermite(beta, beta1, d0, d1, h, s)
        acc += wg * b * b / (r + s * h)
    return h * s_hi * acc


def _slopes(f: Callable[[float], float], r: float, psi: float,
            beta: float) -> Tuple[float, float]:
    """(dpsi/dr, dbeta/dr) of the vector field, with its limit at r = 0."""
    if r == 0.0:
        return 0.0, -0.5 * f(psi)
    return beta, -beta / r - f(psi)


@dataclass
class Trajectory:
    """Accepted-step samples of one orbit, ascending in r.

    dissipation[i] holds int beta^2/r dr over [r[i], r[i+1]], integrated
    by the stepper as one more component of the step (E' = -beta^2/r), or
    for a stopped run's cut step on beta's Hermite, so cumulative sums
    reproduce the energy drop to integration accuracy.
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
        dpsi, dbeta = _slopes(self.model.f, r, psi, beta)
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
        slopes of node() and keeps the steps whose floor lies below the
        smallest node radius.  _step_minimum runs on them in ascending order
        of floor and stops at the first floor at or above the best value
        found: every step it skips has a minimum at or above that floor."""
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
            cands += [(float(floor[j]), lo + j,
                       tuple(float(c[j]) for c in cols))
                      for j in np.flatnonzero(floor < best).tolist()]
        for floor, i, seg in sorted(cands):
            if floor >= best:
                break
            s, rad = _step_minimum(seg, s0 if i == i0 else 0.0)
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
        h1 = (0.01 / max(d1, d2)) ** 0.125
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


def _cut(model: VorticityModel, rows: list, diss: list,
         left: Tuple[float, ...], right: Tuple[float, ...]) -> None:
    """The zero-energy stop on one stored step, given its ends (r, psi,
    beta, theta, E, dpsi/dr, dbeta/dr), E > 0 at the left and <= 0 at the
    right: appends the row where E's cubic Hermite (slopes dE/dr =
    -beta^2/r, 0 at r = 0) first falls through 0, found by _hermite_root,
    with psi and beta on their Hermites and theta unwrapped against the
    left end, and the step's _dissipation up to it.  The stepper and the
    head scan (_head_stop) both cut here, as analysis.e_region_entry reads
    the step."""
    r, psi, beta, theta, e0, dp0, db0 = left
    r1, psi1, beta1, _, e1, dp1, db1 = right
    h = r1 - r
    s = _hermite_root(e0, e1, 0.0 if r == 0.0 else -beta * beta / r,
                      -beta1 * beta1 / r1, h, 0.0)
    rows.append(_row(model, r + s * h, _hermite(psi, psi1, dp0, dp1, h, s),
                     _hermite(beta, beta1, db0, db1, h, s), theta))
    diss.append(_dissipation(r, h, beta, beta1, db0, db1, s))


def _head_stop(model: VorticityModel, rows: list, diss: list) -> bool:
    """Cut the head's rows and dissipation at the first step whose stored E
    falls through 0, at the node slopes (_slopes), as the stepper cuts its
    own steps; False, with nothing changed, where none does."""
    for i in range(len(rows) - 1):
        if rows[i][5] > 0.0 >= rows[i + 1][5]:
            left, right = ((r, psi, beta, theta, e,
                            *_slopes(model.f, r, psi, beta))
                           for r, psi, beta, _, theta, e in rows[i:i + 2])
            del rows[i + 1:], diss[i:]
            _cut(model, rows, diss, left, right)
            return True
    return False


def _trajectory(model: VorticityModel, rows: list, diss: list,
                termination: Termination) -> Trajectory:
    arr = np.asarray(rows, dtype=float)
    return Trajectory(
        model=model,
        r=arr[:, 0], psi=arr[:, 1], beta=arr[:, 2],
        radius=arr[:, 3], theta=arr[:, 4], E=arr[:, 5],
        dissipation=np.asarray(diss, dtype=float),
        termination=termination)


# The two stepper loops, _window and _integrate_core, are text: each is a
# template of its own lines into which the generators below write stages
# 2-12, the 8th-order end, the two error sums and the dissipation sum from
# the tableau's names.  The text keeps the operation order the pinned
# digests were made with.  _define compiles it once, here at import.

def _sum(row: str, term: str, first: Optional[str] = None) -> str:
    """The nonzero weights of row ("_A5_", "_B", "_E3_", ...), the names of
    the tableau, on term for stage j, joined by +; first replaces stage 1's
    term where given."""
    return " + ".join(
        f"{row}{j} * {first if j == 1 and first else term.format(j=j)}"
        for j in range(1, 13) if f"{row}{j}" in globals())


def _step(row: str, term: str) -> str:
    """hs times _sum(row, term).  A lone weight multiplies hs first, as
    (hs * w) * k: hs * (w * k) would round differently."""
    terms = _sum(row, term)
    return f"hs * ({terms})" if " + " in terms else f"hs * {terms}"


def _stages(stage: Callable[[int], Tuple[str, ...]]) -> str:
    """The lines of stages 2-12 from stage(i), at the loops' indent."""
    return "\n        ".join(line for i in range(2, 13) for line in stage(i))


def _define(name: str, src: str) -> Callable:
    """The function that src defines as name, in this module's namespace.
    The text goes into linecache with mtime None, which checkcache keeps,
    so tracebacks and inspect.getsource show the lines that run, until
    linecache.clearcache() drops it for good: on Python 3.11 updatecache
    returns [] for a <...> name before it asks any loader, and for other
    names lazycache asks the module's loader, which reads integrator.py."""
    filename = f"<vortexplane.integrator:{name}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                 filename)
    ns: dict = {}
    exec(compile(src, filename, "exec"), globals(), ns)
    return ns[name]


def _window_stage(i: int) -> Tuple[str, ...]:
    # stage i sits at ti; stage 12 at the step's end t1 (c_12 = 1)
    t = f"t + _C{i} * hs" if i < 12 else "t1"
    return (f"zr = r + {_step(f'_A{i}_', 'k{j}r')}",
            f"zb = beta + {_step(f'_A{i}_', 'k{j}b')}",
            f"k{i}r = 2.0 * sig * (t{i} := {t}) / zb",
            f"q{i} = zb / zr",
            f"k{i}b = (-q{i} - f(sig * t{i} * t{i})) * k{i}r")


_window = _define("_window", f'''\
def _window(f, F, rows, diss, h, rtol, atol, r_target):
    """Cross psi = 0 in t = sqrt|psi| from rows[-1], an accepted step's end.

    The same pair steps r and beta in t, psi = sig t^2, as two real
    components: kNr = 2 sig t / beta and kNb = (-beta/r - f(psi)) kNr at
    stage N, each operation in the order of the complex z = r + i beta the
    pinned digests were made with (_step's rule: a lone weight multiplies
    hs first).  t falls to 0, where the crossing is stored with psi = 0,
    then rises (sig flipped) to _WINDOW_T.  Each t-step appends its row to
    rows and int 2 sig t beta/r dt, the pair's weights on its stages, to
    diss; a step past r_target, below 1e-14, or to E or beta^2/2 <=
    _E_FLOOR is not taken.  rtol and atol are the core's scaled
    tolerances.  Returns the next r-step and the attempts; the state to go
    on from is rows[-1]."""
    r, psi, beta, _, theta, _ = rows[-1]
    append_row, append_diss = rows.append, diss.append
    sig = 1.0 if psi > 0.0 else -1.0
    t, hdir, t_end, attempts = math.sqrt(sig * psi), -1.0, 0.0, 0
    ab, rejected = abs(beta), False
    ht = h * ab / (t + t)  # dr = 2t dt / |beta|
    k1r = 2.0 * sig * t / beta
    k1b = (-beta / r - f(sig * t * t)) * k1r
    while True:
        if ht > _WINDOW_DT:
            ht = _WINDOW_DT
        # a step that would stop within 1 % of it to t_end goes there, so
        # that no sliver of a step is left: its rows would coincide
        last = hdir * (t_end - t) <= 1.01 * ht
        if last:
            ht = hdir * (t_end - t)
        if ht < 1e-14:
            break
        hs = hdir * ht
        attempts += 1
        t1 = t_end if last else t + hs
        {_stages(_window_stage)}
        r1 = r + {_step("_B", "k{j}r")}
        beta1 = beta + {_step("_B", "k{j}b")}
        ab1 = abs(beta1)
        sc_r = atol + rtol * r1
        sc_b = atol + rtol * (ab1 if ab1 > ab else ab)
        x5 = (({_sum("_E5_", "k{j}r")}) / sc_r) ** 2 + (
            ({_sum("_E5_", "k{j}b")}) / sc_b) ** 2
        x3 = (({_sum("_E3_", "k{j}r")}) / sc_r) ** 2 + (
            ({_sum("_E3_", "k{j}b")}) / sc_b) ** 2
        err = ht * x5 / math.sqrt(2.0 * (x5 + 0.01 * x3)) if x5 else 0.0
        if err > 1.0:
            fac = _SAFETY * err ** -0.125
            ht *= fac if fac > 0.2 else 0.2
            rejected = True
            continue
        psi1 = sig * t1 * t1
        e1 = 0.5 * beta1 * beta1 + F(psi1)
        if not (r1 < r_target and e1 > _E_FLOOR < 0.5 * beta1 * beta1):
            break
        theta1 = math.atan2(beta1, psi1)
        theta1 += TWO_PI * round((theta - theta1) / TWO_PI)
        append_row((r1, psi1, beta1, math.hypot(psi1, beta1), theta1, e1))
        k13r = 2.0 * sig * t1 / beta1
        k13b = (-beta1 / r1 - f(psi1)) * k13r
        # int 2 sig t beta/r dt over the step: the pair's weights on
        # the stages, tj qj = tj zb/zr at stage j
        append_diss(2.0 * sig * hs * (
            {_sum("_B", "t{j} * q{j}", "t * beta / r")}))
        r, beta, theta, t, ab = r1, beta1, theta1, t1, ab1
        k1r, k1b = k13r, k13b
        fac = _SAFETY * err ** -0.125 if err > 1e-10 else 3.0
        if rejected and fac > 1.0:
            fac = 1.0
        rejected = False
        ht *= fac if fac < 3.0 else 3.0
        if last:
            if hdir > 0.0:
                break
            sig, hdir, t_end = -sig, 1.0, _WINDOW_T  # on past the crossing
    return ht * (t + t + ht) / ab, attempts
''')


def _core_stage(i: int) -> Tuple[str, ...]:
    # kip is beta at stage i, the slope of psi, and qi = kip / (r + c_i hs)
    c = f"_C{i} * hs" if i < 12 else "hs"  # c_12 = 1
    return (f"k{i}p = beta + {_step(f'_A{i}_', 'k{j}b')}",
            f"q{i} = k{i}p / (r + {c})",
            f"k{i}b = -q{i} - f(psi + {_step(f'_A{i}_', 'k{j}p')})")


_integrate_core = _define("_integrate_core", f'''\
def _integrate_core(model: VorticityModel, r_target: float,
                    direction: float, config: IntegrationConfig,
                    rows: List[Tuple[float, float, float, float, float, float]],
                    diss: List[float]) -> Trajectory:
    """March from the state in rows[-1] toward r_target and return the orbit.

    rows and diss (one interval fewer) are the orbit so far, the start row
    alone or a Picard head.  The core extends both lists in integration
    order and reverses them for a backward run.  A start at the origin,
    where the phase is undefined, is refused.
    """
    f, F = model.f, model.F
    hypot, atan2, sqrt = math.hypot, math.atan2, math.sqrt
    append_row, append_diss = rows.append, diss.append
    rtol, atol = _TOL_SCALE * config.rel_tol, _TOL_SCALE * config.abs_tol
    # e0 is the stored E at the step's left end: the zero-energy stop
    # compares it with the right end's stored E
    r, psi, beta, _, theta, e0 = rows[-1]
    span = abs(r_target - r)
    if span <= 0.0:
        raise ParameterDomainError("empty integration range")
    if psi == 0.0 and beta == 0.0:
        raise ParameterDomainError("the start state is the origin")
    h = _initial_step(f, r, psi, beta, direction, rtol, atol, span)
    k1p, k1b = beta, -beta / r - f(psi)
    stop, nsteps, rejected = config.stop_at_zero_energy, 0, False
    neg_f = SQRT_FAMILY_NEG_F.get(model.model_id) if direction > 0.0 else None
    # max, min and abs as comparisons that pick the same operand (max(a, b)
    # is b only where b > a); an absolute value may come out as -0.0 where
    # it only adds to a positive term; r > 0 and h > 0 on every sweep
    apsi, abeta = abs(psi), abs(beta)
    while True:
        if nsteps >= config.max_steps or h < 1e-14 * (r if r > 1.0 else 1.0):
            term = Termination.STEP_FAILURE
            break
        if h > _R_STEP * r:
            h = _R_STEP * r
        last = False
        if direction * (r + direction * h - r_target) >= 0.0:
            h = abs(r_target - r)
            last = True
        hs = direction * h
        nsteps += 1

        {_stages(_core_stage)}
        psi1 = psi + {_step("_B", "k{j}p")}
        beta1 = beta + {_step("_B", "k{j}b")}
        r1 = r_target if last else r + hs
        # Hairer's error norm: the 5th-order estimate, damped where it
        # exceeds a tenth of the 3rd-order one
        ap1 = psi1 if psi1 >= 0.0 else -psi1
        ab1 = beta1 if beta1 >= 0.0 else -beta1
        sc_p = atol + rtol * (ap1 if ap1 > apsi else apsi)
        sc_b = atol + rtol * (ab1 if ab1 > abeta else abeta)
        ep = ({_sum("_E5_", "k{j}p")}) / sc_p
        eb = ({_sum("_E5_", "k{j}b")}) / sc_b
        x5 = ep * ep + eb * eb
        ep = ({_sum("_E3_", "k{j}p")}) / sc_p
        eb = ({_sum("_E3_", "k{j}b")}) / sc_b
        err = h * x5 / sqrt(2.0 * (x5 + 0.01 * (ep * ep + eb * eb))
                            ) if x5 else 0.0
        if err > 1.0:
            # max(0.2, fac) with fac < _SAFETY
            fac = _SAFETY * err ** -0.125
            h *= fac if fac > 0.2 else 0.2
            rejected = True
            continue

        theta1 = atan2(beta1, psi1)
        theta1 += TWO_PI * round((theta - theta1) / TWO_PI)
        dtheta = theta1 - theta
        if dtheta >= _THETA_STEP_CAP or dtheta <= -_THETA_STEP_CAP:
            # one step must never wrap the phase by anything close to a
            # half turn, or angle bookkeeping becomes ambiguous
            h *= 0.5
            rejected = True
            continue

        # the end slope, the next step's first stage
        k13p, k13b = beta1, -beta1 / r1 - f(psi1)

        # the zero-energy stop, on the Hermites of the stored step r1 - r
        e1 = 0.5 * beta1 * beta1 + F(psi1)
        if stop and e0 > 0.0 >= e1:
            _cut(model, rows, diss, (r, psi, beta, theta, e0, k1p, k1b),
                 (r1, psi1, beta1, theta1, e1, k13p, k13b))
            term = Termination.EVENT
            break

        append_row((r1, psi1, beta1, hypot(psi1, beta1), theta1, e1))
        # int beta^2/r dr over the step: the pair's weights on the stage
        # betas kjp, at their radii r + c_j hs, where qj = kjp / (r + c_j hs)
        append_diss(hs * ({_sum("_B", "k{j}p * q{j}", "beta * beta / r")}))
        if last:
            term = Termination.REACHED_RMAX
            break
        # the step factor, at most 1 right after a rejection and at most 3.
        # While a square-root family's orbit closes in on psi = 0, whose
        # branch point of f bounds the r-steps, h also shrinks with the
        # distance |psi/beta| to it
        fac = _SAFETY * err ** -0.125 if err > 1e-10 else 3.0
        if rejected and fac > 1.0:
            fac = 1.0
        rejected = False
        if neg_f and psi1 * beta1 < 0.0 and psi * beta < 0.0:
            rho0, rho1 = apsi / abeta, ap1 / ab1
            if rho1 < rho0:
                fac *= rho1 / rho0
        h *= fac if fac < 3.0 else 3.0
        r, psi, beta, theta = r1, psi1, beta1, theta1
        apsi, abeta = ap1, ab1
        k1p, k1b, e0 = k13p, k13b, e1
        # a crossing window opens where E stays above _E_FLOOR in it: there
        # -neg_f <= F <= 0, 2E <= beta^2 <= 2(E + neg_f), and E falls by
        # int 2t|beta|/r dt <= sqrt(2|E + neg_f|) (|psi| + 1/4)/r as t runs
        # |psi|^(1/2) -> 0 -> 1/2.  So beta^2/2 >= E > _E_FLOOR > 0 there,
        # and the stop does not fire in a window; the core resumes at rows[-1]
        if (neg_f and 1e-20 < ap1 < _WINDOW_PSI and psi1 * beta1 < 0.0
                and e1 - math.sqrt(2.0 * abs(e1 + neg_f))
                * (ap1 + _WINDOW_PSI) / r1 > _E_FLOOR):
            h, n = _window(f, F, rows, diss, h, rtol, atol, r_target)
            r, psi, beta, _, theta, e0 = rows[-1]
            nsteps += n
            assert 0.5 * beta * beta > _E_FLOOR  # the window bails out above
            apsi, abeta = abs(psi), abs(beta)
            k1p, k1b = beta, -beta / r - f(psi)
            # the first r-step past a full window is a share of the distance
            # |psi/beta| back to the branch point
            if apsi == _WINDOW_PSI and h > _EXIT_STEP * apsi / abeta:
                h = _EXIT_STEP * apsi / abeta

    if direction < 0.0:
        rows.reverse()
        diss = [-d for d in reversed(diss)]
    return _trajectory(model, rows, diss, term)
''')


def series_start(model: VorticityModel, a: float,
                 config: IntegrationConfig) -> Tuple[np.ndarray, ...]:
    """Picard head on [0, r_h], r_h = min(r_handoff, r_max): (r, psi, beta,
    cumulative dissipation) on 17 rows r_j = j r_h / 16 (see
    fixedpoint.picard_head)."""
    return picard_head(model, a, min(config.r_handoff, config.r_max),
                       _PICARD_TOL)


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


def _check_start_energy(psi: float, beta: float) -> None:
    """Refuse a start state whose psi^2 or beta^2 overflows: its energy
    beta^2/2 + F(psi) has no finite value (psi^2/2 overflows before
    int_0^psi g does in every family)."""
    if not (math.isfinite(psi * psi) and math.isfinite(beta * beta)):
        raise ParameterDomainError(
            f"start (psi, beta) = ({psi!r}, {beta!r}) has no finite energy")


def integrate(model: VorticityModel, a: float,
              config: IntegrationConfig) -> Trajectory:
    """Orbit of the admissible profile from psi(0) = a, beta(0) = 0.

    The singular endpoint is covered by the Picard head (series_start),
    which is the whole orbit where r_max <= r_handoff; the stepper goes on
    from its last row.  The zero-energy stop reads the head's steps first,
    by the stepper's own cut (_cut).
    """
    check_start_value(a)
    _check_start_energy(a, 0.0)
    rs, psis, betas, cum = series_start(model, a, config)
    # the head keeps psi >= a/8 > 0, so each theta lies within pi/2 of 0
    rows = [_row(model, *state, 0.0)
            for state in zip(rs.tolist(), psis.tolist(), betas.tolist())]
    diss = np.diff(cum).tolist()
    if config.stop_at_zero_energy and _head_stop(model, rows, diss):
        return _trajectory(model, rows, diss, Termination.EVENT)
    if config.r_max <= config.r_handoff:
        return _trajectory(model, rows, diss, Termination.REACHED_RMAX)
    return _integrate_core(model, config.r_max, 1.0, config, rows, diss)


def integrate_from(model: VorticityModel, r0: float, psi0: float,
                   beta0: float, config: IntegrationConfig) -> Trajectory:
    """Forward orbit from an interior state (r0 > 0)."""
    require_finite(r0=r0, psi0=psi0, beta0=beta0)
    _check_start_energy(psi0, beta0)
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
    _check_start_energy(psi_T, beta_T)
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
