"""End-to-end acceptance suite: thirteen numbered checks with frozen
tolerances.

Each criterion exercises a pipeline (model construction, admissibility,
integration, fixed points, orbit analysis) and returns a record with the
measured quantities.  ``run_all`` evaluates the whole suite; trajectory
runs are cached so criteria sharing a configuration pay for it once.  The
final criterion re-derives the first twelve from a fresh cache and demands
byte-identical rendered reports, which pins down every remaining source of
nondeterminism (iteration order, formatting, accidental wall-clock data).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .admissibility import full_report
from .analysis import (RingSpec, crossing_sequence, e_region_entry,
                       rate_onset_radius, ring_entry, scan_for_bracket,
                       shoot_for_origin, verify_crossing_bounds)
from .fixedpoint import (banach_solve, picard_residual, picard_solve,
                         rate_transform, select_contraction_constants)
from .integrator import (IntegrationConfig, Trajectory, integrate,
                         integrate_backward, integrate_from)
from .phaseplane import theta_envelope
from .vorticity import (constantin_model, example_model, find_positive_zero,
                        potential_by_quadrature, power_law_model)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CriterionResult:
    ident: int
    title: str
    passed: bool
    tolerance: str
    measures: Dict[str, object]

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{key}={_fmt(value)}"
                         for key, value in sorted(self.measures.items()))
        return f"[{self.ident:2d}] {verdict}  {self.title}  ({body})"

    def to_json_dict(self) -> dict:
        return {
            "id": self.ident,
            "title": self.title,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "measures": dict(sorted(self.measures.items())),
        }


def _fmt(value: object) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return f"{value:.6g}"


class RunCache:
    """Models plus memoized trajectory runs shared between criteria."""

    def __init__(self) -> None:
        self.constantin = constantin_model()
        self.example = example_model(0.02)
        self.powerlaw = power_law_model(0.3)
        self._runs: Dict[Tuple[float, float, float], Trajectory] = {}

    def run(self, a: float, r_max: float, rel_tol: float) -> Trajectory:
        key = (float(a), float(r_max), float(rel_tol))
        if key not in self._runs:
            config = IntegrationConfig(r_max=key[1], rel_tol=key[2],
                                       abs_tol=1e-12)
            self._runs[key] = integrate(self.constantin, key[0], config)
        return self._runs[key]


# --------------------------------------------------------------- criteria

def criterion_zero_location(cache: RunCache) -> CriterionResult:
    """1. The positive zero of f sits at 1 for all three models."""
    worst = 0.0
    for model in (cache.constantin, cache.example, cache.powerlaw):
        worst = max(worst, abs(find_positive_zero(model) - 1.0))
    return CriterionResult(
        1, "equilibrium zero location", worst <= 1e-9,
        "max |z - 1| <= 1e-9", {"max_abs_error": float(worst)})


def criterion_equilibrium_energy(cache: RunCache) -> CriterionResult:
    """2. F(1) = -1/6 in closed form and by quadrature."""
    closed = cache.constantin.F(1.0)
    quad = potential_by_quadrature(cache.constantin, 1.0)
    closed_err = abs(closed + 1.0 / 6.0)
    quad_gap = abs(quad - closed)
    return CriterionResult(
        2, "equilibrium energy value",
        closed_err <= 1e-9 and quad_gap <= 1e-10,
        "|F(1) + 1/6| <= 1e-9, quadrature gap <= 1e-10",
        {"closed_error": float(closed_err),
         "quadrature_gap": float(quad_gap)})


def criterion_admissibility_ledger(cache: RunCache) -> CriterionResult:
    """3. The modulated model passes every admissibility check at
    a in {1, 10, 100}, with the growth and slope margins measured
    directly on the fixed-point ball."""
    report = full_report(cache.example, a_values=(1.0, 10.0, 100.0), seed=0)
    eta = cache.example.ledger.eta
    growth_ratio = 0.0
    max_slope = 0.0
    for a in (1.0, 10.0, 100.0):
        u = np.linspace(a - eta * a / 4.0, a + eta * a / 4.0, 20001)
        values = cache.example.f_arr(u)
        growth_ratio = max(growth_ratio,
                           float(np.max(np.abs(values))) / (eta * a))
        max_slope = max(max_slope,
                        float(np.max(np.abs(np.diff(values) / np.diff(u)))))
    evaluated = sum(1 for c in report.checks if c.passed is not None)
    return CriterionResult(
        3, "modulated model ledger",
        report.overall and growth_ratio <= 1.0 and max_slope < 2.5,
        "all checks pass, max |f| <= (10/3) a, sampled slope < 5/2",
        {"checks_evaluated": int(evaluated),
         "overall": bool(report.overall),
         "growth_ratio": growth_ratio,
         "max_slope": max_slope})


def criterion_energy_decay(cache: RunCache) -> CriterionResult:
    """4. E never increases along stored samples and the total drop
    matches the accumulated dissipation integral."""
    worst_step = 0.0
    worst_rel = 0.0
    for a in (2.0, 10.0, 50.0):
        traj = cache.run(a, 100.0, 1e-10)
        jumps = np.diff(traj.E)
        worst_step = max(worst_step, float(jumps.max(initial=0.0)))
        drop = float(traj.E[0] - traj.E[-1])
        dissipated = float(np.sum(traj.dissipation))
        worst_rel = max(worst_rel, abs(drop - dissipated) / drop)
    return CriterionResult(
        4, "energy decay and dissipation balance",
        worst_step <= 1e-7 and worst_rel <= 1e-6,
        "single-step increase <= 1e-7, balance to rel 1e-6",
        {"max_step_increase": worst_step, "max_rel_imbalance": worst_rel})


def criterion_picard_window(cache: RunCache) -> CriterionResult:
    """5. The short-range fixed point on [0, 1], collocated and read on
    2^17 + 1 nodes, stays in its ball, keeps psi(1) >= a/8, and meets the
    Simpson oracle of the integral equation to 1e-8."""
    model = cache.constantin
    eta = model.ledger.eta
    ball_ratio = 0.0
    end_ratio = math.inf
    residual = 0.0
    measures: Dict[str, object] = {}
    for a in (1.0, 10.0, 100.0):
        grid = picard_solve(model, a, r_end=1.0, n=1 << 17, tol=1e-13)
        ball_ratio = max(ball_ratio,
                         float(np.max(np.abs(grid.values - a)))
                         / (eta * a / 4.0))
        end_ratio = min(end_ratio, float(grid.values[-1]) / (a / 8.0))
        residual = max(residual, picard_residual(model, grid))
        measures[f"a{a:g}_sweeps"] = grid.sweeps
        measures[f"a{a:g}_last_change"] = grid.last_change
    measures.update(ball_ratio=ball_ratio, end_ratio=end_ratio,
                    residual=residual)
    return CriterionResult(
        5, "short-range fixed point",
        ball_ratio <= 1.0 and end_ratio >= 1.0 and residual < 1e-8,
        "|psi - a| <= eta a/4, psi(1) >= a/8, residual < 1e-8", measures)


def criterion_contraction(cache: RunCache) -> CriterionResult:
    """6. The audited constants satisfy their defining relations, the
    backward solve contracts no slower than audited, and the anchor
    (1, 0) returns the constant solution."""
    cc = select_contraction_constants(T=6.0, L=1.0 + math.sqrt(2.0))
    mll = cc.lam_mid * math.log(cc.lam_mid)
    identity_gap = max(
        abs(rate_transform(cc.lam_star) - cc.L) / cc.L,
        abs(cc.lam_mid - 0.5 * (cc.lam_star + 3.0)) / cc.lam_mid,
        abs(cc.k_lo - max(mll, cc.L * (1.25 * mll + 0.5))) / cc.k_lo,
        abs(cc.k_hi - (cc.T + math.sqrt(cc.T ** 2 - 1.0))
            * math.log(cc.lam_mid)) / cc.k_hi,
        abs(cc.k - math.sqrt(cc.k_lo * cc.k_hi)) / cc.k,
        abs(cc.zeta - cc.k_lo / cc.k) / cc.zeta)
    ordered = cc.k_lo < cc.k < cc.k_hi and 1.0 < cc.lam_star < cc.lam_mid < 3.0
    solved, _, factor = banach_solve(cache.constantin, 6.0, 2.0, 0.1)
    probe_psi, probe_beta, _ = banach_solve(cache.constantin, 6.0, 1.0, 0.0)
    probe_dev = max(float(np.max(np.abs(probe_psi.values - 1.0))),
                    float(np.max(np.abs(probe_beta.values))))
    passed = (cc.zeta < 1.0 and ordered and identity_gap <= 1e-12
              and factor <= cc.zeta + 0.05 and probe_dev < 1e-8)
    return CriterionResult(
        6, "backward contraction constants and solve", passed,
        "identities to 1e-12, factor <= zeta + 0.05, probe dev < 1e-8",
        {"zeta": float(cc.zeta), "identity_gap": identity_gap,
         "observed_factor": float(factor), "probe_deviation": probe_dev,
         "banach_sweeps": solved.sweeps,
         "banach_last_change": solved.last_change})


def criterion_rotation_envelope(cache: RunCache) -> CriterionResult:
    """7. Finite-difference rotation rates stay inside the audited band
    wherever E > 0 and r >= 1."""
    traj = cache.run(10.0, 100.0, 1e-10)
    r, theta, energy = traj.r, traj.theta, traj.E
    mask = (r[:-1] >= 1.0) & (energy[:-1] > 0.0) & (energy[1:] > 0.0)
    left = r[:-1][mask]
    slopes = (np.diff(theta) / np.diff(r))[mask]
    lower, upper = theta_envelope(cache.constantin.ledger.lambda_g, left)
    lo_margin = float(np.min(slopes - (lower - 1e-4)))
    hi_margin = float(np.min(upper + 1e-4 - slopes))
    samples = int(len(slopes))
    return CriterionResult(
        7, "rotation rate envelope",
        samples > 0 and lo_margin >= 0.0 and hi_margin >= 0.0,
        "theta' in [-1 - 1/(2r) - 1e-4, -1/4 + 1/(2r) + 1e-4]",
        {"samples": samples, "lower_margin": lo_margin,
         "upper_margin": hi_margin})


def criterion_ring_capture(cache: RunCache) -> CriterionResult:
    """8. The a = 100 orbit enters the ring 1 + delta in finite radius and
    its later closest approach stays at or below 1.05."""
    traj = cache.run(100.0, 7000.0, 1e-9)
    ring = RingSpec.for_model(cache.constantin, epsilon=0.05, delta=0.1)
    entry = ring_entry(traj, ring)
    passed = (entry is not None and entry.r_entry < 1e4
              and entry.min_radius_after <= 1.05)
    measures: Dict[str, object] = {"found": entry is not None}
    if entry is not None:
        measures.update({"r_entry": float(entry.r_entry),
                         "min_radius_after": float(entry.min_radius_after),
                         "min_radius_r": float(entry.min_radius_r)})
    return CriterionResult(
        8, "ring capture", passed,
        "r_entry < 1e4, min R after entry <= 1.05", measures)


def criterion_energy_entry(cache: RunCache) -> CriterionResult:
    """9. Every start value crosses into {E < 0} at a finite radius with
    strictly negative energy immediately afterwards."""
    runs = ((5.0, 50.0, 1e-10), (10.0, 100.0, 1e-10),
            (50.0, 2500.0, 1e-9), (100.0, 7000.0, 1e-9))
    measures: Dict[str, object] = {}
    passed = True
    for a, r_max, rel in runs:
        entry = e_region_entry(cache.run(a, r_max, rel))
        good = (entry is not None and math.isfinite(entry.r_cross)
                and entry.energy_after < 0.0)
        passed = passed and good
        tag = f"a{int(a):03d}"
        measures[f"{tag}_r_cross"] = (
            float(entry.r_cross) if entry is not None else None)
        measures[f"{tag}_energy_after"] = (
            float(entry.energy_after) if entry is not None else None)
    return CriterionResult(
        9, "negative energy region entry", passed,
        "finite crossing radius, E < 0 at the next sample", measures)


def criterion_crossing_gaps(cache: RunCache) -> CriterionResult:
    """10. Per-rotation window passages obey the audited gap bounds and
    the linear growth cap on the passage radii."""
    traj = cache.run(100.0, 7000.0, 1e-9)
    ring = RingSpec.for_model(cache.constantin, epsilon=0.05, delta=0.1)
    r_minus = rate_onset_radius(traj, ring)
    entry = e_region_entry(traj)
    seq = crossing_sequence(traj, r_start=r_minus, r_end=entry.r_cross)
    if seq is None or seq.count == 0:
        return CriterionResult(
            10, "crossing gaps and linear growth", False,
            "pi/(2 eta) >= gap >= pi/3 - 1e-3, linear cap + 1e-3",
            {"count": 0})
    # the audit's gap floor pi/(3 - 2cs) is pi/3 at c = 0; its upper test
    # allows the slack, this criterion's does not
    audit = verify_crossing_bounds(traj, seq, ring, slack=1e-3)
    gaps = audit.gaps
    return CriterionResult(
        10, "crossing gaps and linear growth",
        bool(np.all(gaps <= audit.gap_upper)) and audit.ok,
        "pi/(2 eta) >= gap >= pi/3 - 1e-3, linear cap + 1e-3",
        {"count": int(seq.count), "eta_hat": float(audit.eta_hat),
         "min_gap": float(np.min(gaps)), "max_gap": float(np.max(gaps)),
         "gap_upper": float(audit.gap_upper),
         "linear_ok": audit.linear_bound_ok, "audit_ok": bool(audit.ok)})


def criterion_shooting(cache: RunCache) -> CriterionResult:
    """11. A classification change exists among integer start values, and
    the shots that confirm the arrival fit to width 1e-6 drive the closest
    approach below 0.05.  a*, the arrival radius R and the fit residual
    are reported."""
    a_lo, a_hi, scan_history = scan_for_bracket(
        cache.constantin, a_start=2.0, a_stop=200.0, step=1.0)
    result = shoot_for_origin(cache.constantin, a_lo, a_hi, tol=1e-6,
                              ends=(scan_history[-2], scan_history[-1]))
    return CriterionResult(
        11, "origin shooting",
        result.min_radius_achieved < 0.05,
        "bracket width 1e-6 reaches min R < 0.05",
        {"bracket_lo": float(a_lo), "bracket_hi": float(a_hi),
         "a_star": float(result.a_star),
         "arrival_radius": result.arrival_radius,
         "fit_residual": result.fit_residual,
         "min_radius_achieved": float(result.min_radius_achieved),
         "evaluations": int(len(scan_history) + len(result.history))})


def criterion_round_trip(cache: RunCache) -> CriterionResult:
    """12. Backward integration from (2, 0) at T = 6 followed by a forward
    run from its endpoint reproduces the anchor to 1e-8."""
    model = cache.constantin
    backward = integrate_backward(model, T=6.0, psi_T=2.0, beta_T=0.0)
    r0 = float(backward.r[0])
    forward = integrate_from(model, r0, float(backward.psi[0]),
                             float(backward.beta[0]),
                             IntegrationConfig(r_max=6.0))
    deviation = max(abs(float(forward.psi[-1]) - 2.0),
                    abs(float(forward.beta[-1])))
    return CriterionResult(
        12, "backward forward round trip", deviation <= 1e-8,
        "anchor reproduced within 1e-8",
        {"deviation": deviation, "r_low": r0})


_ORDERED: Tuple[Callable[[RunCache], CriterionResult], ...] = (
    criterion_zero_location,
    criterion_equilibrium_energy,
    criterion_admissibility_ledger,
    criterion_energy_decay,
    criterion_picard_window,
    criterion_contraction,
    criterion_rotation_envelope,
    criterion_ring_capture,
    criterion_energy_entry,
    criterion_crossing_gaps,
    criterion_shooting,
    criterion_round_trip,
)


def _render_partial(results: List[CriterionResult]) -> str:
    return json.dumps({"criteria": [r.to_json_dict() for r in results]},
                      sort_keys=True, indent=2)


def criterion_determinism(first_pass: List[CriterionResult]
                          ) -> CriterionResult:
    """13. An independent re-evaluation of criteria 1-12 from a fresh cache
    renders byte-identical report text."""
    fresh = RunCache()
    second_pass = [fn(fresh) for fn in _ORDERED]
    text_a = _render_partial(first_pass)
    text_b = _render_partial(second_pass)
    return CriterionResult(
        13, "report determinism", text_a == text_b,
        "re-evaluated report bytes identical",
        {"report_bytes": len(text_a.encode("utf-8")),
         "identical": text_a == text_b})


def run_all() -> List[CriterionResult]:
    cache = RunCache()
    results = [fn(cache) for fn in _ORDERED]
    results.append(criterion_determinism(results))
    return results


def report_payload(results: List[CriterionResult]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "overall_pass": all(r.passed for r in results),
        "criteria": [r.to_json_dict() for r in results],
    }


def render_report(results: List[CriterionResult]) -> str:
    return json.dumps(report_payload(results), sort_keys=True, indent=2) + "\n"


def matrix_lines(results: List[CriterionResult]) -> List[str]:
    lines = [r.line() for r in results]
    verdict = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {verdict}")
    return lines
