"""Orbit diagnostics: ring capture, energy-region entry, rotation counting,
and shooting for the origin.

Everything here consumes stored trajectories.  A boolean mask over the
stored columns picks the steps that hold a feature, and only those steps
are refined on the cubic Hermite interpolant between accepted steps, so two
trajectories with the same stored points give identical diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (HypothesisViolationError, NoBracketError,
                     ParameterDomainError, ToleranceError)
from .fixedpoint import _check_count, check_start_value, require_finite
from .integrator import (IntegrationConfig, Termination, Trajectory,
                         _check_start_energy, _hermite_root, arrival_start,
                         integrate, integrate_backward)
from .phaseplane import TWO_PI
from .search import _BISECTIONS
from .vorticity import VorticityModel, arrival_law

# the arrival fit of shoot_for_origin: the backward start lies
# _ARRIVAL_S0 inside R, the part-orbits meet at _MATCH_SHARE of the
# larger stop radius of the bracket's ends, and the fit ends once its step
# falls below _FIT_STEP of (a, R) or after _FIT_ITER iterations
_ARRIVAL_S0 = 0.05
_MATCH_SHARE = 0.5
_FIT_STEP = 1e-8
_FIT_ITER = 12
# scan_for_bracket refuses a walk of more start values (one shot each)
_SCAN_MAX_SHOTS = 10_000
# the rotation window: crossing_sequence times each turn's passage from
# theta_start + _THETA0 to theta_start + _THETA1, less 2 pi per turn
_THETA0, _THETA1 = 3.0 * math.pi / 4.0, math.pi / 4.0


# ---------------------------------------------------------------- features

def _refine_crossing(traj: Trajectory, name: str, level: float,
                     i: int) -> Tuple[float, float]:
    """Root of quantity - level inside segment i of the Hermite interpolant.

    Bisection runs on the local coordinate sigma in [0, 1], whose full
    double resolution places the root far more finely than the nearest
    representable r ever could; returns (r, sigma).
    """
    (y0, d0), (y1, d1) = traj.node(name, i), traj.node(name, i + 1)
    h = float(traj.r[i + 1] - traj.r[i])
    s = _hermite_root(y0, y1, d0, d1, h, level)
    return float(traj.r[i]) + s * h, s


def _refine_crossings(traj: Trajectory, name: str, levels: np.ndarray,
                      nodes: np.ndarray) -> np.ndarray:
    """r of _refine_crossing(traj, name, levels[k], nodes[k])[0] for every
    k at once, with the same bits: one array bisection on the Hermite of
    each segment, which keeps bisect_root's rules per element (the stall
    exit, the exit on g == 0, the sign classes g > 0 and g <= 0 and the
    _BISECTIONS budget).

    The ends come from Trajectory.node and its scalar f.  The cubic
    squares with np.float_power, which rounds as Python's ** does; an
    array's ** rounds as x * x and moves some roots by an ulp.  A single
    root stays with _refine_crossing: each halving here costs a dozen
    numpy calls.
    """
    ends = [traj.node(name, i) + traj.node(name, i + 1)
            for i in nodes.tolist()]
    y0, d0, y1, d1 = np.array(ends, dtype=float).reshape(-1, 4).T
    r0 = traj.r[nodes]
    h = traj.r[nodes + 1] - r0
    up = y0 - levels > 0.0
    lo, hi = np.zeros(len(nodes)), np.ones(len(nodes))
    s = np.empty(len(nodes))
    live = np.ones(len(nodes), dtype=bool)
    for _ in range(_BISECTIONS):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        q, m2 = np.float_power(1.0 - mid, 2.0), mid * mid
        g = ((1.0 + 2.0 * mid) * q * y0 + mid * q * h * d0
             + m2 * (3.0 - 2.0 * mid) * y1 + m2 * (mid - 1.0) * h * d1
             - levels)
        done = live & ((mid == lo) | (mid == hi) | (g == 0.0))
        s[done] = mid[done]
        live &= ~done
        keep_lo = (g > 0.0) == up
        lo, hi = np.where(keep_lo, mid, lo), np.where(keep_lo, hi, mid)
    s[live] = 0.5 * (lo + hi)[live]
    return r0 + s * h


def _state(traj: Trajectory, i: int, s: float) -> Tuple[float, float]:
    """(psi, beta) on the Hermite of step i at local coordinate s."""
    return traj.hermite("psi", i)(s), traj.hermite("beta", i)(s)


def _first_crossing(traj: Trajectory, name: str,
                    level: float) -> Optional[Tuple[float, float, int]]:
    """(r, sigma, segment index) of the first downward crossing of level."""
    col = getattr(traj, name)
    hits = np.flatnonzero((col[:-1] > level) & (col[1:] <= level))
    if len(hits) == 0:
        return None
    i = int(hits[0])
    r_star, s = _refine_crossing(traj, name, level, i)
    return r_star, s, i


# ------------------------------------------------------------------- rings

@dataclass(frozen=True)
class RingSpec:
    """Annulus 1 + eps <= R <= 1 + delta used for capture statements.

    Admissibility of the widths against the model's ring constants:
    delta > eps > (1 + c)^(1/nu) - 1, so the inner circle clears the
    level where the outward flux term could balance the rotation.
    """
    epsilon: float
    delta: float
    c: float
    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ParameterDomainError(f"nu must lie in (0, 1], got {self.nu!r}")
        if self.c < 0.0:
            raise ParameterDomainError(f"c must be nonnegative, got {self.c!r}")
        floor = (1.0 + self.c) ** (1.0 / self.nu) - 1.0
        if not math.inf > self.delta > self.epsilon > floor:
            raise ParameterDomainError(
                f"need finite delta > epsilon > (1+c)^(1/nu) - 1 = {floor!r}, "
                f"got epsilon={self.epsilon!r}, delta={self.delta!r}")

    @classmethod
    def for_model(cls, model: VorticityModel, epsilon: float,
                  delta: float) -> "RingSpec":
        return cls(epsilon=epsilon, delta=delta, c=model.ledger.c,
                   nu=model.ledger.nu)

    @property
    def liminf_floor(self) -> float:
        return (1.0 + self.c) ** (1.0 / self.nu)

    def rate_eta(self, r_minus: float) -> float:
        """Certified rotation rate eta_hat = 1 - 1/(2 r_minus) - (1+eps)^-nu,
        valid while R >= 1 + eps and r >= r_minus > 0."""
        if not (math.isfinite(r_minus) and r_minus > 0.0):
            raise ParameterDomainError(
                f"r_minus must be finite and > 0, got {r_minus!r}")
        return 1.0 - 0.5 / r_minus - (1.0 + self.epsilon) ** (-self.nu)


def rate_onset_radius(traj: Trajectory, ring: RingSpec) -> float:
    """First stored node where the rotation-rate budget clears the margin:
    -1 + 1/(2r) + (1+eps)^-nu <= -0.01."""
    s = (1.0 + ring.epsilon) ** (-ring.nu)
    room = 1.0 - s - 0.01
    if room <= 0.0:
        raise HypothesisViolationError(
            "ring too tight: no radius gives rotation margin 0.01")
    threshold = 0.5 / room
    idx = np.flatnonzero(traj.r >= threshold)
    if len(idx) == 0:
        raise HypothesisViolationError(
            f"trajectory ends before the rate onset radius {threshold!r}")
    return float(traj.r[idx[0]])


@dataclass(frozen=True)
class RingEntry:
    r_entry: float
    psi: float
    beta: float
    min_radius_after: float
    min_radius_r: float
    liminf_floor: float


def ring_entry(traj: Trajectory, ring: RingSpec) -> Optional[RingEntry]:
    """First downward passage of R through 1 + delta, and the closest
    approach afterwards.  Requires the orbit to start well outside:
    R(start) > 8 (1 + delta)."""
    level = 1.0 + ring.delta
    if float(traj.radius[0]) <= 8.0 * level:
        raise HypothesisViolationError(
            f"start radius {float(traj.radius[0])!r} must exceed "
            f"8 (1 + delta) = {8.0 * level!r}")
    hit = _first_crossing(traj, "radius", level)
    if hit is None:
        return None
    r_star, s_star, i = hit
    psi_star, beta_star = _state(traj, i, s_star)
    min_r, min_rad = traj.closest_approach(r_from=r_star)
    return RingEntry(r_entry=r_star, psi=psi_star, beta=beta_star,
                     min_radius_after=min_rad, min_radius_r=min_r,
                     liminf_floor=ring.liminf_floor)


# ---------------------------------------------------------- energy region

@dataclass(frozen=True)
class EnergyEntry:
    r_cross: float
    psi: float
    beta: float
    side: str
    rate: float
    transversal: bool
    energy_after: float


def e_region_entry(traj: Trajectory) -> Optional[EnergyEntry]:
    """First downward crossing of E through 0.

    E is nonincreasing along orbits, so there is at most one crossing; the
    entry is transversal when beta stays away from 0 there, in which case
    dE/dr = -beta^2/r < 0 and the orbit genuinely enters {E < 0}.  A run
    ended by the zero-energy stop is refused: its last row is the crossing.
    """
    if traj.termination is Termination.EVENT:
        raise ParameterDomainError(
            "a stopped run's last row is its crossing; run without the stop")
    if float(traj.E[0]) <= 0.0:
        raise HypothesisViolationError(
            "energy must be positive at the start of the window")
    hit = _first_crossing(traj, "E", 0.0)
    if hit is None:
        return None
    r_star, s_star, i = hit
    psi_star, beta_star = _state(traj, i, s_star)
    rate = -beta_star * beta_star / r_star
    transversal = abs(beta_star) > 1e-8
    return EnergyEntry(r_cross=r_star, psi=psi_star, beta=beta_star,
                       side="right" if psi_star > 0.0 else "left",
                       rate=rate, transversal=transversal,
                       energy_after=float(traj.E[i + 1]))


@dataclass(frozen=True)
class AxisCrossing:
    r: float
    psi: float
    beta: float
    residual: float
    transversal: bool


def transversality_check(traj: Trajectory) -> List[AxisCrossing]:
    """All psi = 0 crossings while E > 0: each must be transversal
    (|beta| > 1e-8) and satisfy the flow identity beta' + beta/r = -f(psi),
    whose residual at the axis is |f(psi*)| ~ 0.

    A step holds a crossing when psi leaves one strict sign for zero or the
    other sign (signs are compared, never multiplied).
    """
    psi, E = traj.psi, traj.E
    a, b = psi[:-1], psi[1:]
    hits = (((a > 0.0) & (b <= 0.0)) | ((a < 0.0) & (b >= 0.0))) \
        & (E[:-1] > 0.0) & (E[1:] > 0.0)
    out: List[AxisCrossing] = []
    for i in np.flatnonzero(hits).tolist():
        if psi[i + 1] == 0.0:
            # a crossing window stored the crossing as this node; a search
            # would close on it and read psi = +0.0 (the node may hold -0.0)
            r_star, psi_star = float(traj.r[i + 1]), 0.0
            beta_star = float(traj.beta[i + 1])
        else:
            r_star, s_star = _refine_crossing(traj, "psi", 0.0, i)
            psi_star, beta_star = _state(traj, i, s_star)
        beta_prime = -beta_star / r_star - traj.model.f(psi_star)
        residual = abs(beta_prime + beta_star / r_star)
        out.append(AxisCrossing(r=r_star, psi=psi_star, beta=beta_star,
                                residual=residual,
                                transversal=abs(beta_star) > 1e-8))
    return out


# ------------------------------------------------------- rotation counting

@dataclass(frozen=True)
class CrossingSequence:
    """Radii r_minus[n] / r_plus[n] where the unwrapped angle reaches
    theta_start + 3 pi/4 - 2 pi n and theta_start + pi/4 - 2 pi n."""
    r_start: float
    r_end: float
    theta_start: float
    r_minus: np.ndarray
    r_plus: np.ndarray

    @property
    def count(self) -> int:
        return len(self.r_plus)


def _theta_nodes(window: np.ndarray, targets: Sequence[float],
                 i_lo: int) -> np.ndarray:
    """For each target, the last node of the strictly decreasing angle
    window (nodes i_lo..) at or above it, short of the window's last node:
    the node a bisection over the window picks."""
    k = np.searchsorted(-window, -np.asarray(targets, dtype=float),
                        side="right")
    return np.minimum(i_lo + k - 1, i_lo + len(window) - 2)


def crossing_sequence(traj: Trajectory,
                      r_start: Optional[float] = None,
                      r_end: Optional[float] = None
                      ) -> Optional[CrossingSequence]:
    """Locate the per-rotation window passages, or None when the angle is
    not strictly decreasing across the requested span (e.g. after the orbit
    falls into a potential well and the rotation stalls)."""
    r_lo = float(traj.r[0]) if r_start is None else float(r_start)
    r_hi = float(traj.r[-1]) if r_end is None else float(r_end)
    if not (traj.r[0] <= r_lo < r_hi <= traj.r[-1]):
        raise ParameterDomainError(
            f"window [{r_lo!r}, {r_hi!r}] not inside the stored range")
    i_lo, s_lo = traj.locate(r_lo)
    i_end, s_end = traj.locate(r_hi)
    window = traj.theta[i_lo:i_end + 2]
    if np.any(np.diff(window) >= 0.0):
        return None
    theta_start = traj.hermite("theta", i_lo)(s_lo)
    theta_end = traj.hermite("theta", i_end)(s_end)
    taus: List[float] = []      # tau_minus, tau_plus of each rotation
    n = 1
    while theta_start + _THETA1 - TWO_PI * n >= theta_end:
        taus += [theta_start + _THETA0 - TWO_PI * n,
                 theta_start + _THETA1 - TWO_PI * n]
        n += 1
    radii = _refine_crossings(traj, "theta", np.array(taus, dtype=float),
                              _theta_nodes(window, taus, i_lo))
    return CrossingSequence(r_start=r_lo, r_end=r_hi,
                            theta_start=theta_start, r_minus=radii[0::2],
                            r_plus=radii[1::2])


@dataclass(frozen=True)
class CrossingBoundsReport:
    """Numerical audit of the per-rotation estimates on a window where the
    audited rate eta_hat applies."""
    eta_hat: float
    rate_margin: float          # max sampled theta' + eta_hat (<= 0 wanted)
    gap_lower: float
    gap_upper: float
    gaps: np.ndarray
    gaps_ok: bool
    linear_bound_ok: bool       # r_plus[n] <= (2 pi n - theta drop)/eta_hat + r_start
    harmonic_terms: np.ndarray  # t_n = gap_n / (4 r_plus[n])
    harmonic_floors: np.ndarray
    harmonic_ok: bool
    harmonic_sum: float
    chain_ok: bool              # 2 eta_hat < 2 < (3+c)/(1+c) <= 3 - 2c(1+eps)^-nu

    @property
    def ok(self) -> bool:
        return (self.rate_margin <= 1e-9 and self.gaps_ok
                and self.linear_bound_ok and self.harmonic_ok
                and self.chain_ok)


def verify_crossing_bounds(traj: Trajectory, seq: CrossingSequence,
                           ring: RingSpec,
                           slack: float = 1e-9) -> CrossingBoundsReport:
    require_finite(slack=slack)
    eta_hat = ring.rate_eta(seq.r_start)
    if eta_hat <= 0.0:
        raise HypothesisViolationError(
            f"nonpositive certified rate eta_hat = {eta_hat!r}")
    s = (1.0 + ring.epsilon) ** (-ring.nu)

    # sampled rotation rate on window nodes where the annulus hypothesis
    # holds: theta' = (psi beta' - beta^2) / R^2 from the vector field
    part = slice(int(np.searchsorted(traj.r, seq.r_start, side="left")),
                 int(np.searchsorted(traj.r, seq.r_end, side="right")))
    keep = traj.radius[part] >= 1.0 + ring.epsilon
    r, psi, beta = (c[part][keep] for c in (traj.r, traj.psi, traj.beta))
    dbeta = -beta / r - traj.model.f_arr(psi)
    dth = (psi * dbeta - beta * beta) / (psi * psi + beta * beta)
    margin = float(np.max(dth + eta_hat)) if len(dth) else -math.inf

    gap_upper = 0.5 * math.pi / eta_hat
    gap_lower = math.pi / (3.0 - 2.0 * ring.c * s)
    gaps = seq.r_plus - seq.r_minus
    gaps_ok = bool(np.all(gaps <= gap_upper + slack)
                   and np.all(gaps >= gap_lower - slack))

    ns = np.arange(1, seq.count + 1, dtype=float)
    linear_cap = (TWO_PI * ns - _THETA1) / eta_hat + seq.r_start
    linear_ok = bool(np.all(seq.r_plus <= linear_cap + slack))

    terms = gaps / (4.0 * seq.r_plus)
    floors = (math.pi * eta_hat / (12.0 - 8.0 * ring.c * s)) \
        / (TWO_PI * ns - _THETA1 + eta_hat * seq.r_start)
    harmonic_ok = bool(np.all(terms >= floors - slack))

    chain_ok = (2.0 * eta_hat < 2.0 < (3.0 + ring.c) / (1.0 + ring.c)
                <= 3.0 - 2.0 * ring.c * s)

    return CrossingBoundsReport(
        eta_hat=eta_hat, rate_margin=margin,
        gap_lower=gap_lower, gap_upper=gap_upper, gaps=gaps, gaps_ok=gaps_ok,
        linear_bound_ok=linear_ok, harmonic_terms=terms,
        harmonic_floors=floors, harmonic_ok=harmonic_ok,
        harmonic_sum=float(np.sum(terms)), chain_ok=chain_ok)


# ---------------------------------------------------------------- shooting

@dataclass(frozen=True)
class ShotRecord:
    a: float
    outcome: str                # "left" | "right"
    r_stop: float
    min_radius: float


@dataclass(frozen=True)
class ShootingResult:
    a_lo: float
    a_hi: float
    a_star: float
    min_radius_achieved: float
    history: List[ShotRecord] = field(default_factory=list)
    # the fit to the arrival (None where the bisection safeguard decided)
    arrival_radius: Optional[float] = None
    fit_residual: Optional[float] = None
    # always False: no shot ends at the origin.  perfbench/workloads.py and
    # the shoot command's JSON still read it
    origin_hit: bool = False


def _classification_config(a: float, rel_tol: float,
                           model: VorticityModel) -> IntegrationConfig:
    # model is unused (the stepper evaluates E itself); perfbench's traced
    # replay of classify_shot calls this with it
    # the well entry radius grows roughly quadratically in a
    r_max = 50.0 + 0.8 * a * a
    return IntegrationConfig(
        r_max=r_max, rel_tol=rel_tol, abs_tol=1e-12, stop_at_zero_energy=True)


def classify_shot(model: VorticityModel, a: float,
                  rel_tol: float = 1e-9) -> ShotRecord:
    """Run from psi(0) = a until the orbit spends its energy and falls
    toward one side's well.

    The start must have finite, positive energy F(a): from E <= 0 the
    orbit never reaches the energy-zero event and no side can be named.
    """
    check_start_value(a)
    _check_start_energy(a, 0.0)
    start_energy = model.F(a)
    if not start_energy > 0.0:
        raise ParameterDomainError(
            f"shot a={a!r} starts at energy F(a) = {start_energy!r} <= 0")
    config = _classification_config(a, rel_tol, model)
    traj = integrate(model, a, config)
    if traj.termination is not Termination.EVENT:
        raise ToleranceError(
            f"shot a={a!r} did not resolve within r <= {config.r_max!r} "
            f"(termination {traj.termination.value})")
    return ShotRecord(a=a, outcome="right" if traj.psi[-1] > 0.0 else "left",
                      r_stop=float(traj.r[-1]), min_radius=traj.min_radius)


def scan_for_bracket(model: VorticityModel, a_start: float = 2.0,
                     a_stop: float = 20.0, step: float = 1.0,
                     rel_tol: float = 1e-9
                     ) -> Tuple[float, float, List[ShotRecord]]:
    """Walk start values until two consecutive shots fall on opposite sides."""
    require_finite(a_start=a_start, a_stop=a_stop, step=step)
    if a_stop <= a_start:
        raise ParameterDomainError(
            f"a_stop {a_stop!r} must exceed a_start {a_start!r}")
    # a += step must move a at both ends of the walk, and so between them
    if not (step > 0.0 and a_start + step > a_start
            and a_stop + step > a_stop):
        raise ParameterDomainError(
            f"step {step!r} does not advance a on [{a_start!r}, {a_stop!r}]")
    if (a_stop - a_start) / step >= _SCAN_MAX_SHOTS:
        raise ParameterDomainError(
            f"step {step!r} walks more than {_SCAN_MAX_SHOTS} start values "
            f"on [{a_start!r}, {a_stop!r}]")
    history: List[ShotRecord] = []
    prev: Optional[ShotRecord] = None
    a = a_start
    while a <= a_stop + 1e-12:
        rec = classify_shot(model, a, rel_tol)
        history.append(rec)
        if prev is not None and rec.outcome != prev.outcome:
            return prev.a, rec.a, history
        prev = rec
        a += step
    raise NoBracketError(
        f"no classification change on [{a_start!r}, {a_stop!r}]")


class _NoFit(Exception):
    """A part-orbit of the arrival fit cannot run to the matching radius."""


def _fit_arrival(model: VorticityModel, lo: ShotRecord, hi: ShotRecord,
                 rel_tol: float) -> Optional[Tuple[float, float, float]]:
    """(a, R, residual) of the orbit from psi(0) = a that reaches the
    origin at r = R, or None where the fit fails.

    The forward part-orbit from a and the backward one from the arrival
    start at R - _ARRIVAL_S0 must meet in (psi, beta) at the matching
    radius r_m: shooting to a fitting point (Keller 1968; Numerical
    Recipes, 3rd ed., 18.2).  The forward state depends on a alone and the
    backward one on R alone, so each column of the Jacobian is a secant of
    its own side.  The first a column is a forward difference; the first R
    column is -(psi', beta') at r_m, as moving R moves the arrival orbit
    along r up to the damping's dependence on r.  A step in a that would
    leave the bracket (lo.a, hi.a) goes half way to the end it crosses.
    Once a step falls below _FIT_STEP of (a, R) the fit returns the point
    past it, with the larger mismatch of the last two part-orbits as the
    residual.  It fails where R - _ARRIVAL_S0 falls to r_m or below, a
    part-orbit stops short of r_m, or _FIT_ITER steps do not converge, and
    it is not tried for a model without an arrival law.
    """
    law = arrival_law(model)
    if law is None:
        return None
    r_m = _MATCH_SHARE * max(lo.r_stop, hi.r_stop)
    s0 = _ARRIVAL_S0
    # the backward sweeps read no r_max
    config = IntegrationConfig(r_max=r_m, rel_tol=rel_tol, abs_tol=1e-12)

    def forward(a: float) -> Tuple[float, float]:
        traj = integrate(model, a, config)
        if traj.termination is not Termination.REACHED_RMAX:
            raise _NoFit
        return float(traj.psi[-1]), float(traj.beta[-1])

    def backward(R: float) -> Tuple[float, float]:
        if not R - s0 > r_m:
            raise _NoFit
        psi, beta = arrival_start(model, R, s0)
        traj = integrate_backward(model, R - s0, psi, beta, r_end=r_m,
                                  config=config)
        if traj.termination is not Termination.REACHED_RMAX:
            raise _NoFit
        return float(traj.psi[0]), float(traj.beta[0])

    # start: a where the ends' closest approaches, signed by side, would
    # vanish if linear in a; R where |psi(r_m)| = k (R - r_m)^p, at least
    # 3 s0 past r_m
    width = hi.a - lo.a
    a = lo.a + width * lo.min_radius / (lo.min_radius + hi.min_radius)
    alpha, lam = law
    p = 2.0 / (1.0 - alpha)
    k = (lam / (p * (p - 1.0))) ** (1.0 / (1.0 - alpha))
    try:
        fp, fb = forward(a)
        R = r_m + max((abs(fp) / k) ** (1.0 / p), 3.0 * s0)
        bp, bb = backward(R)
        da = 1e-3 * width
        ap, ab = forward(a + da)
        ap, ab = (ap - fp) / da, (ab - fb) / da
        rp, rb = -bb, bb / r_m + model.f(bp)
        for _ in range(_FIT_ITER):
            # Newton step on (fp - bp, fb - bb) with Jacobian columns
            # (ap, ab) in a and -(rp, rb) in R
            gp, gb = fp - bp, fb - bb
            det = rp * ab - ap * rb
            if not (det != 0.0 and math.isfinite(det)):
                return None
            step_a = (gp * rb - gb * rp) / det
            step_R = (gp * ab - gb * ap) / det
            if (abs(step_a) <= _FIT_STEP * abs(a)
                    and abs(step_R) <= _FIT_STEP * R):
                return a + step_a, R + step_R, max(abs(gp), abs(gb))
            if not lo.a < a + step_a < hi.a:
                step_a = 0.5 * ((hi.a if step_a > 0.0 else lo.a) - a)
            a1, R1 = a + step_a, R + step_R
            fp1, fb1 = forward(a1)
            bp1, bb1 = backward(R1)
            if step_a:
                ap, ab = (fp1 - fp) / step_a, (fb1 - fb) / step_a
            if step_R:
                rp, rb = (bp1 - bp) / step_R, (bb1 - bb) / step_R
            a, R, fp, fb, bp, bb = a1, R1, fp1, fb1, bp1, bb1
    except _NoFit:
        pass
    return None


def shoot_for_origin(model: VorticityModel, a_lo: float, a_hi: float,
                     tol: float = 1e-6, rel_tol: float = 1e-9,
                     max_iter: int = 60,
                     ends: Optional[Tuple[ShotRecord, ShotRecord]] = None
                     ) -> ShootingResult:
    """The start value a* in (a_lo, a_hi) whose orbit reaches the origin,
    and the radius R where it does.

    a_lo and a_hi must classify on opposite sides.  A fit to the arrival
    (_fit_arrival) gives a* and R; the shots a* -/+ tol/2 then confirm it by
    classifying on the sides of a_lo and a_hi, which ends the solve with
    the bracket [a* - tol/2, a* + tol/2].  Where the fit fails or is not
    confirmed, bisection on the classification, from the bracket the shots
    left, is the safeguard: it squeezes the bracket to width tol, and
    a_star is its midpoint.  history holds the classification shots, the
    ends first, and min_radius_achieved their closest approach to the
    origin.  ends, the records of a_lo and a_hi at this rel_tol
    (scan_for_bracket's last two), spares shooting them again.
    """
    require_finite(a_lo=a_lo, a_hi=a_hi, tol=tol)
    if not a_lo < a_hi:
        raise ParameterDomainError(f"need a_lo < a_hi, got {a_lo!r}, {a_hi!r}")
    if not tol > 0.0:
        raise ParameterDomainError(f"tol must be positive, got {tol!r}")
    _check_count("max_iter", max_iter, 1)
    if ends is None:
        ends = (classify_shot(model, a_lo, rel_tol),
                classify_shot(model, a_hi, rel_tol))
    lo, hi = ends
    if (lo.a, hi.a) != (a_lo, a_hi):
        raise ParameterDomainError(
            f"ends shot {lo.a!r}, {hi.a!r}, not [{a_lo!r}, {a_hi!r}]")
    history = [lo, hi]
    if lo.outcome == hi.outcome:
        raise NoBracketError(
            f"both endpoints classify as {lo.outcome!r}; no separatrix "
            f"bracketed on [{a_lo!r}, {a_hi!r}]")
    fit = _fit_arrival(model, lo, hi, rel_tol) if a_hi - a_lo > tol else None
    probes = [] if fit is None else [fit[0] - 0.5 * tol, fit[0] + 0.5 * tol]
    left_a, right_a = a_lo, a_hi
    for _ in range(max_iter):
        if right_a - left_a <= tol or [left_a, right_a] == probes:
            break
        # a probe of the fit while one lies inside the bracket (a probe
        # shot becomes an end), then midpoints
        mid = next((a for a in probes if left_a < a < right_a),
                   0.5 * (left_a + right_a))
        rec = classify_shot(model, mid, rel_tol)
        history.append(rec)
        if rec.outcome == lo.outcome:
            left_a = mid
        else:
            right_a = mid
    confirmed = [left_a, right_a] == probes
    return ShootingResult(
        a_lo=left_a, a_hi=right_a,
        a_star=fit[0] if confirmed else 0.5 * (left_a + right_a),
        min_radius_achieved=min(r.min_radius for r in history),
        history=history,
        arrival_radius=fit[1] if confirmed else None,
        fit_residual=fit[2] if confirmed else None)
