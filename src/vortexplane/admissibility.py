"""Admissibility audit for vorticity models.

Each check reports a CheckRecord: pass/fail, the tolerance used, and the
witnesses (extremal value, location, audited constant) a reader needs to
audit the verdict.  Most checks sample a stated inequality with
low-discrepancy points; checks that read the same sample share one f
pass, as check_symmetry gives the oddness and decomposition records of
[-100, 100].  check_ball samples nothing: every family's f is convex on
u > 0, so the growth and Lipschitz bounds of a ball are read off f and f'
at its two ends and at f's minimum (interval analysis in its simplest
form; Moore, Kearfott & Cloud, Introduction to Interval Analysis, SIAM
2009).  A record with passed=None marks a check that does not apply to
the model at hand.

The samples depend on the seed alone, so the last few seeds' geometry is
cached read-only and shared by every model: the symmetry sample and its
negation, and the ring's radii, ray positions and squared radii.  Each is
computed by the same operations as a fresh draw, so a report keeps its
bits.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ParameterDomainError
from .fixedpoint import _PHI_AT_3, check_ball_centre
from .search import bisect_root
from .sequences import _integer, kronecker, sample_interval, sample_loglin
from .vorticity import (C2_UPPER_BOUND, VorticityModel, find_positive_zero,
                        potential_grid)

SCHEMA_VERSION = 1
_N = 10_000  # points per sampled check


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: Optional[bool]
    tolerance: float
    witnesses: dict
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "witnesses": {k: v for k, v in sorted(self.witnesses.items())},
            "note": self.note,
        }


@dataclass
class AdmissibilityReport:
    model_id: str
    params: dict
    seed: int
    checks: List[CheckRecord] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model_id,
            "params": {k: v for k, v in sorted(self.params.items())},
            "seed": self.seed,
            "overall": self.overall,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _samples(seed: int) -> Tuple[np.ndarray, ...]:
    """(us, -us, radii, psis, radii ** 2) of seed, read-only: the symmetry
    sample of [-100, 100] and its negation, and the ring's radii, ray
    positions psi and squared radii."""
    return _sample_cache(_integer("seed", seed))


@functools.lru_cache(maxsize=8)
def _sample_cache(seed: int) -> Tuple[np.ndarray, ...]:
    us = sample_interval(_N, -100.0, 100.0, seed=seed)
    pts = kronecker(_N, dim=2, seed=seed)
    radii = 10.0 ** (-2.0 + 5.0 * pts[:, 0])
    psis = (2.0 * pts[:, 1] - 1.0) * radii
    out = (us, -us, radii, psis, radii ** 2)
    for arr in out:
        arr.flags.writeable = False
    return out


def check_zero(model: VorticityModel) -> CheckRecord:
    """The located positive zero of f agrees with the ledger value u0."""
    tol = 1e-9
    root = find_positive_zero(model)
    dev = abs(root - model.ledger.u0)
    return CheckRecord(
        name="positive_zero", passed=dev <= tol, tolerance=tol,
        witnesses={"root": root, "u0": model.ledger.u0, "deviation": dev})


def check_symmetry(model: VorticityModel, seed: int = 0
                   ) -> Tuple[CheckRecord, CheckRecord]:
    """The oddness record, f(-u) = -f(u), and the decomposition record,
    f(u) = u - g(u), on one sample of [-100, 100]."""
    tol = 1e-12
    us, neg_us = _samples(seed)[:2]
    fv = model.f_arr(us)

    def record(name: str, dev: np.ndarray) -> CheckRecord:
        j = int(np.argmax(dev))
        return CheckRecord(
            name=name, passed=bool(dev[j] <= tol), tolerance=tol,
            witnesses={"max_relative_deviation": float(dev[j]),
                       "argmax": float(us[j])})

    return (record("oddness",
                   np.abs(model.f_arr(neg_us) + fv) / (1.0 + np.abs(fv))),
            record("decomposition",
                   np.abs(fv - (us - model.g_arr(us))) / (1.0 + np.abs(us))))


def check_ball(model: VorticityModel, a: float
               ) -> Tuple[CheckRecord, CheckRecord]:
    """The growth and Lipschitz records of the ball [lo, hi] =
    [(1-eta/4)a, (1+eta/4)a], read off f and f' where their extremes lie.

    Growth: eta lies in (3, 7/2] and max |f| <= eta a.  Lipschitz:
    sup |f'| stays within the ledger's constant L, which itself lies below
    rate_transform(3) ~ 2.616, the ceiling select_contraction_constants
    takes L up to.  f is convex on u > 0 (each family's constructor proves
    f'' > 0 there), so f' is increasing: sup |f'| = max(|f'(lo)|,
    |f'(hi)|), and max |f| is the largest |f| at lo, at hi and, when
    f'(lo) < 0 < f'(hi), at the root of f' that bisect_root finds.  The
    values there are rounded evaluations, which the records' relative
    tolerance covers.  A centre that is not > 0, or whose ball end
    (1 + eta/4) a or bound eta a is not finite, is refused; so is a ball
    narrower than 1e-13 max(1, hi), too narrow to take a slope over, and
    one that reaches u <= 0, where f is not convex.
    """
    tol = 1e-12
    eta, L = model.ledger.eta, model.ledger.L
    range_ok = 3.0 < eta <= 3.5
    check_ball_centre(a, eta)
    lo, hi, bound = (1.0 - eta / 4.0) * a, (1.0 + eta / 4.0) * a, eta * a
    if not hi - lo > 1e-13 * max(1.0, hi):
        raise ParameterDomainError(
            f"ball centre a={a!r} is too small: the growth interval "
            f"[{lo!r}, {hi!r}] is too narrow to take a slope over")
    if not lo > 0.0:
        raise ParameterDomainError(
            f"eta={eta!r} puts the ball [{lo!r}, {hi!r}] of a={a!r} on "
            f"u <= 0, where f is not convex")
    d_lo, d_hi = model.df(lo), model.df(hi)
    points = [lo, hi]
    if d_lo < 0.0 < d_hi:
        points.insert(1, bisect_root(model.df, lo, hi, d_lo))
    absf = [abs(model.f(x)) for x in points]
    j = absf.index(max(absf))
    growth = CheckRecord(
        name=f"growth_a_{a:g}",
        passed=range_ok and bool(absf[j] <= bound * (1.0 + tol)),
        tolerance=tol,
        witnesses={"eta": eta, "max_abs_f": absf[j],
                   "argmax": points[j], "bound": bound,
                   "interval": [lo, hi], "eta_in_range": range_ok})
    max_slope = max(abs(d_lo), abs(d_hi))
    lipschitz = CheckRecord(
        name=f"lipschitz_a_{a:g}",
        passed=bool(max_slope <= L * (1.0 + tol) and L < _PHI_AT_3),
        tolerance=tol,
        witnesses={"max_slope": max_slope, "L": L, "ceiling": _PHI_AT_3,
                   "interval": [lo, hi]})
    return growth, lipschitz


def check_lambda(model: VorticityModel, seed: int = 0) -> CheckRecord:
    """Flux ratio: psi g(psi) >= 0 and
    int_0^psi g >= psi g(psi) / (2 lambda_g), sampled on a log grid."""
    tol = 1e-10
    lam = model.ledger.lambda_g
    psis = sample_loglin(1000, 1e-3, 1e3, seed=seed)
    flux = psis * model.g_arr(psis)
    # int_0^psi g = psi^2/2 - F(psi)
    gints = 0.5 * psis * psis - potential_grid(model, psis)
    lhs_ok = bool(np.all(flux >= -tol * (1.0 + np.abs(flux))))
    margin = gints - flux / (2.0 * lam)
    scale = 1.0 + np.abs(flux)
    j = int(np.argmin(margin / scale))
    ratio_ok = bool(margin[j] / scale[j] >= -tol)
    return CheckRecord(
        name="flux_ratio", passed=lhs_ok and ratio_ok, tolerance=tol,
        witnesses={"lambda_g": lam,
                   "worst_margin": float(margin[j]),
                   "arg_worst": float(psis[j]),
                   "flux_nonnegative": lhs_ok,
                   "in_range": bool(0.0 < lam < 1.0)})


def check_ring_bound(model: VorticityModel, seed: int = 0) -> CheckRecord:
    """-c/R^nu <= psi g(psi)/R^2 <= (1+c)/R^nu for |psi| <= R, sampled over
    radii and ray positions."""
    tol = 1e-9
    c, nu = model.ledger.c, model.ledger.nu
    radii, psis, radii_sq = _samples(seed)[2:]
    vals = psis * model.g_arr(psis) / radii_sq
    decay = radii ** (-nu)
    upper = (1.0 + c) * decay
    lower = -c * decay
    scale = np.maximum(1.0, decay)
    up_dev = np.max((vals - upper) / scale)
    lo_dev = np.max((lower - vals) / scale)
    return CheckRecord(
        name="ring_bound",
        passed=bool(up_dev <= tol and lo_dev <= tol), tolerance=tol,
        witnesses={"c": c, "nu": nu,
                   "upper_violation": float(up_dev),
                   "lower_violation": float(lo_dev)})


def check_level_set_sandwich(model: VorticityModel) -> CheckRecord:
    """Modulated models only: the energy sits between the two reference
    surfaces R^2/2 - kappa (2/3)|psi|^{3/2} for kappa = 1+c1 (below) and
    kappa = 1-(c2-c1) (above)."""
    tol = 1e-9
    c2 = model.ledger.params.get("c2")
    if c2 is None:
        return CheckRecord(
            name="level_set_sandwich", passed=None, tolerance=tol,
            witnesses={}, note="needs the modulated model")
    c1 = math.sin(0.5 * c2)
    psis = np.linspace(-4.0, 4.0, 200)
    pot = potential_grid(model, psis)
    cubic = (2.0 / 3.0) * np.abs(psis) ** 1.5
    # beta^2/2 is in the energy and in both surfaces, so it cancels
    base = 0.5 * psis ** 2
    scale = 1.0 + np.abs(psis) ** 1.5
    worst_lo = float(np.min((pot - (base - (1.0 + c1) * cubic)) / scale))
    worst_hi = float(np.min((base - (1.0 - (c2 - c1)) * cubic - pot) / scale))
    return CheckRecord(
        name="level_set_sandwich",
        passed=bool(worst_lo >= -tol and worst_hi >= -tol), tolerance=tol,
        witnesses={"c1": c1, "c2": c2,
                   "lower_margin": worst_lo, "upper_margin": worst_hi})


def check_coercivity(model: VorticityModel) -> CheckRecord:
    """F(psi)/psi grows along 10^2, 10^3, 10^4: the quadratic part wins."""
    probes = [1e2, 1e3, 1e4]
    ratios = [model.F(p) / p for p in probes]
    ok = ratios[0] < ratios[1] < ratios[2] and ratios[-1] > 10.0
    return CheckRecord(
        name="coercivity", passed=ok, tolerance=0.0,
        witnesses={"probes": probes, "ratios": ratios})


def check_equilibrium_energy(model: VorticityModel) -> CheckRecord:
    """The nontrivial equilibrium sits strictly inside {E < 0}."""
    val = model.F(model.ledger.u0)
    return CheckRecord(
        name="equilibrium_energy", passed=val < 0.0, tolerance=0.0,
        witnesses={"u0": model.ledger.u0, "F_u0": val})


def check_parameter_bound(model: VorticityModel) -> Optional[CheckRecord]:
    """Modulated models only: c2 below the exact admissibility ceiling.

    The ceiling (3 - 2 sqrt 2)/(4 + 3 sqrt 2) = 0.02081528... is slightly
    above the convenient round figure 0.02, so c2 = 0.02 is admissible but
    the round figure is not itself a valid ceiling.
    """
    c2 = model.ledger.params.get("c2")
    if c2 is None:
        return None
    return CheckRecord(
        name="parameter_bound", passed=bool(0.0 < c2 < C2_UPPER_BOUND),
        tolerance=0.0,
        witnesses={"c2": c2, "exact_bound": C2_UPPER_BOUND,
                   "below_round_two_percent": bool(c2 < 0.02),
                   "round_figure_is_safe": bool(0.02 <= C2_UPPER_BOUND)})


def full_report(model: VorticityModel, a_values=(1.0, 10.0, 100.0),
                seed: int = 0) -> AdmissibilityReport:
    """Every admissibility check of model, with the ball checks at each
    centre in a_values.  seed shifts the phase of every Kronecker sample;
    it must be an integer of either sign (kronecker refuses the rest).
    a_values must hold real numbers, no bool, whose record names f"{a:g}"
    are distinct."""
    try:
        centres = tuple(a_values)
    except TypeError:
        raise ParameterDomainError(
            f"a_values must be a sequence of ball centres, got {a_values!r}"
        ) from None
    if not centres:
        raise ParameterDomainError("full_report needs a ball centre a")
    for a in centres:
        if isinstance(a, bool) or not isinstance(a, numbers.Real):
            raise ParameterDomainError(
                f"a ball centre must be a real number, got {a!r}")
    names = [f"{a:g}" for a in centres]
    if len(set(names)) < len(names):
        raise ParameterDomainError(
            f"ball centres {centres!r} share a record name: {names!r}")
    report = AdmissibilityReport(model_id=model.model_id,
                                 params=dict(model.ledger.params), seed=seed)
    report.checks.append(check_zero(model))
    report.checks.extend(check_symmetry(model, seed=seed))
    report.checks.append(check_lambda(model, seed=seed))
    report.checks.append(check_ring_bound(model, seed=seed))
    report.checks.append(check_coercivity(model))
    report.checks.append(check_equilibrium_energy(model))
    report.checks.append(check_level_set_sandwich(model))
    pb = check_parameter_bound(model)
    if pb is not None:
        report.checks.append(pb)
    for a in centres:
        report.checks.extend(check_ball(model, a))
    return report
