"""The four workloads: what one op is, how the inputs follow from the seed,
and how each op's output is checked.

Each op wraps every call it makes into the package in a span named
"<module>.<function>".  Untraced passes use a NullTracer, so the spans
cost next to nothing there.

Inputs are stratified: a run covers the documented parameter range in
equal strata and the seed places each op inside its stratum and orders
the ops.  A different seed gives different inputs, but every run does
about the same amount of work, so run-to-run spread is the host's, not
the seed's.
"""

from __future__ import annotations

import io
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from vortexplane import (admissibility, analysis, fixedpoint, integrator,
                         phaseplane, portrait, verify, vorticity)

import reference
from spans import NullTracer


class Check:
    """Verdict on one op: failure reason (None when every hard check
    passed), the error against the independent reference, and data the
    reference needs once the timed phase is over."""

    def __init__(self, failure: Optional[str] = None,
                 err: Optional[float] = None, pending=None) -> None:
        self.failure = failure
        self.err = err
        self.pending = pending


def _odd(x: float) -> int:
    """Nearest odd count >= 1, so a median is one op, not an average of
    two ops from different strata."""
    return max(1, 2 * int(round((x - 1.0) / 2.0)) + 1)


def _steps(traj, r_first: float) -> int:
    """Accepted steps: stored rows past the start radius."""
    return int(np.count_nonzero(traj.r > r_first))


class Workload:
    name = ""
    # (scalar, numpy) weights of the reference kernel for this workload,
    # and whether any op's mix weights the numpy part
    mix: Tuple[float, float] = (1.0, 0.0)
    with_numpy = False

    def plan(self, seed: int, seconds: float) -> List:
        raise NotImplementedError

    def mix_for(self, x) -> Tuple[float, float]:
        """Kernel mix that calibrates op x."""
        return self.mix

    def setup(self):
        """Build models and warm every code path once; returns the state."""
        raise NotImplementedError

    def begin(self, state, tr):
        """Context of one pass over the plan."""
        return {"state": state, "tr": tr}

    def op(self, ctx, x):
        raise NotImplementedError

    def check(self, ctx, x, out) -> Check:
        return Check()

    def resolve(self, state, checks: Sequence[Check]) -> None:
        """Fill in reference errors after the timed phase."""

    def replay(self, ctx, x, out) -> None:
        """Traced run only: repeat, in spans, integrations the package runs
        inside a call, so their steps and heads can be counted."""


# ------------------------------------------------------------ ring_capture

class RingCapture(Workload):
    """One long constantin orbit followed by every analysis pass and both
    writers.  The integrator dominates; analysis reads, CSV/SVG write."""

    name = "ring_capture"
    mix = (1.0, 0.0)
    op_seconds = 1.6
    # fixed radii where the orbit is compared with the DOP853 reference
    checkpoints = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0,
                   64.0)
    err_gate = 1e-4

    def plan(self, seed, seconds):
        rng = np.random.default_rng([seed, 1])
        n = _odd(seconds / self.op_seconds)
        jitter = rng.uniform(-0.1, 0.1, n)
        amps = [30.0 + 30.0 * (k + 0.5 + jitter[k]) / n for k in range(n)]
        return [float(amps[i]) for i in rng.permutation(n)]

    def setup(self):
        model = vorticity.constantin_model()
        state = {"model": model,
                 "ring": analysis.RingSpec.for_model(model, epsilon=0.05,
                                                     delta=0.1)}
        ctx = self.begin(state, NullTracer())
        self.check(ctx, 10.0, self.op(ctx, 10.0))
        return state

    def begin(self, state, tr):
        return {"state": state, "tr": tr, "model": tr.model(state["model"]),
                "ring": state["ring"]}

    def op(self, ctx, a):
        tr, model, ring = ctx["tr"], ctx["model"], ctx["ring"]
        config = integrator.IntegrationConfig(r_max=0.8 * a * a + 50.0,
                                              rel_tol=1e-9, abs_tol=1e-12)
        with tr.span("integrator.integrate"):
            traj = integrator.integrate(model, a, config)
            if tr.enabled:
                tr.add("steps", _steps(traj, config.r_handoff))
        with tr.span("analysis.e_region_entry"):
            energy = analysis.e_region_entry(traj)
        with tr.span("analysis.ring_entry"):
            entry = analysis.ring_entry(traj, ring)
        with tr.span("analysis.rate_onset_radius"):
            r_minus = analysis.rate_onset_radius(traj, ring)
        with tr.span("analysis.crossing_sequence"):
            seq = analysis.crossing_sequence(traj, r_start=r_minus,
                                             r_end=energy.r_cross)
        with tr.span("analysis.verify_crossing_bounds"):
            audit = analysis.verify_crossing_bounds(traj, seq, ring,
                                                    slack=1e-3)
        with tr.span("analysis.transversality_check"):
            axis = analysis.transversality_check(traj)
        buf = io.StringIO()
        with tr.span("integrator.to_csv"):
            traj.to_csv(buf)
        with tr.span("portrait.build_portrait_svg"):
            svg = portrait.build_portrait_svg(model, [traj], ring=ring)
        return traj, energy, entry, audit, axis, buf.getvalue(), svg

    def check(self, ctx, a, out):
        traj, energy, entry, audit, axis, csv, svg = out
        fails = []
        # criterion 8: entry in finite radius, closest approach <= 1.05
        if entry is None or not (entry.r_entry < 1e4
                                 and entry.min_radius_after <= 1.05):
            fails.append("ring entry")
        # criterion 9: finite crossing, E < 0 at the next sample
        if energy is None or not energy.energy_after < 0.0:
            fails.append("E < 0 entry")
        # criterion 4: no step raises E by 1e-7, balance to rel 1e-6
        drop = float(traj.E[0] - traj.E[-1])
        imbalance = abs(drop - float(np.sum(traj.dissipation))) / drop
        if float(np.max(np.diff(traj.E))) > 1e-7 or imbalance > 1e-6:
            fails.append("dissipation balance")
        # criterion 10: gap, linear and harmonic bounds with slack 1e-3
        if not audit.ok:
            fails.append("crossing bounds")
        if not axis or not all(c.transversal for c in axis):
            fails.append("transversality")
        if csv.count("\n") != traj.n_points + 1 or \
                not svg.startswith("<svg"):
            fails.append("writers")
        idx = np.searchsorted(traj.r, self.checkpoints)
        if idx[-1] >= traj.n_points:
            fails.append("orbit ends before the last checkpoint")
            idx = idx[idx < traj.n_points]
        pending = (a, traj.r[idx].copy(), traj.psi[idx].copy(),
                   traj.beta[idx].copy())
        return Check("; ".join(fails) or None, pending=pending)

    def resolve(self, state, checks):
        f = state["model"].f
        for c in checks:
            if c.pending is None:
                continue
            a, rs, psis, betas = c.pending
            ref = reference.dop853_states(f, a, rs)
            # distance in the phase plane, so the error does not depend on
            # the orbit's phase at a checkpoint
            c.err = float(np.max(np.hypot(ref[:, 0] - psis,
                                          ref[:, 1] - betas)))
            if not c.err <= self.err_gate:
                c.failure = (c.failure or "") + \
                    f" orbit error {c.err:.3g} > {self.err_gate:g}"


# ---------------------------------------------------------------- shooting

class Shooting(Workload):
    """One `vortexplane shoot` solve: bracket scan from a seeded start,
    then bisection to 1e-6, on each of the three model families."""

    name = "shooting"
    mix = (1.0, 0.0)
    op_seconds = 0.45
    err_gate = 2e-6

    def plan(self, seed, seconds):
        rng = np.random.default_rng([seed, 2])
        per_model = _odd(seconds / (3.0 * self.op_seconds))
        out = []
        for _ in range(per_model):
            for name, _params in reference.SHOOT_MODELS:
                out.append((name, float(2.0 + rng.uniform(0.0, 1.0))))
        return out

    def setup(self):
        models = {name: vorticity.make_model(name, **params)
                  for name, params in reference.SHOOT_MODELS}
        with open(reference.REFDATA) as fh:
            a_ref = json.load(fh)["a_star"]
        for model in models.values():
            analysis.classify_shot(model, 2.5)
        return {"models": models, "a_ref": a_ref}

    def begin(self, state, tr):
        return {"state": state, "tr": tr,
                "models": {k: tr.model(m)
                           for k, m in state["models"].items()}}

    def op(self, ctx, x):
        name, a_start = x
        tr, model = ctx["tr"], ctx["models"][name]
        with tr.span("analysis.scan_for_bracket"):
            lo, hi, scanned = analysis.scan_for_bracket(
                model, a_start=a_start, step=1.0, rel_tol=1e-9)
        with tr.span("analysis.shoot_for_origin"):
            result = analysis.shoot_for_origin(model, lo, hi, tol=1e-6,
                                               rel_tol=1e-9)
        tr.add("solves", 1)
        tr.add("shots", len(scanned) + len(result.history))
        return scanned, result

    def check(self, ctx, x, out):
        name, _ = x
        _, result = out
        fails = []
        lo, hi = result.history[0], result.history[1]
        if not (result.origin_hit or lo.outcome != hi.outcome):
            fails.append("bracket ends on the same side")
        err = abs(result.a_star - ctx["state"]["a_ref"][name])
        if not err <= self.err_gate:
            fails.append(f"|a* - a*_ref| = {err:.3g} > {self.err_gate:g}")
        return Check("; ".join(fails) or None, err=err)

    def replay(self, ctx, x, out):
        tr, model = ctx["tr"], ctx["models"][x[0]]
        scanned, result = out
        for rec in list(scanned) + list(result.history):
            # the exact config classify_shot integrates each shot with
            config = analysis._classification_config(rec.a, 1e-9, model)
            with tr.span("fixedpoint.series_start"):
                integrator.series_start(model, rec.a, config)
            with tr.span("integrator.integrate"):
                traj = integrator.integrate(model, rec.a, config)
                tr.add("steps", _steps(traj, config.r_handoff))


# ------------------------------------------------------------- model_audit

PSI_GRID = np.linspace(0.0, 50.0, 201)
PICARD_AMPS = (1.0, 10.0, 100.0)
FAMILIES = ("constantin", "example", "powerlaw")


def _audit_model(family: str, u: float):
    if family == "example":
        return vorticity.example_model(u * vorticity.C2_UPPER_BOUND)
    if family == "powerlaw":
        return vorticity.power_law_model(u)
    return vorticity.constantin_model()


class ModelAudit(Workload):
    """One model instance through the admissibility ledger, the level set,
    the potential grid and both fixed points.  No RK stepping, except the
    certificate's short forward sweep from the equilibrium."""

    name = "model_audit"
    # Picard sweeps on 2^17 points are most of an op; the scalar parts
    # (full_report, level set) slow less than the scalar kernel part
    mix = (0.1, 1.0)
    with_numpy = True
    op_seconds = 0.115

    def plan(self, seed, seconds):
        rng = np.random.default_rng([seed, 3])
        per_family = _odd(seconds / (3.0 * self.op_seconds))
        out = []
        for k in rng.permutation(per_family):
            for family in FAMILIES:
                # stratum k of the open unit interval
                u = (k + rng.uniform(0.05, 0.95)) / per_family
                out.append((family, float(u)))
        return out

    def setup(self):
        model = vorticity.constantin_model()
        admissibility.full_report(model)
        phaseplane.level_set_geometry(model)
        vorticity.potential_grid(model, PSI_GRID)
        fixedpoint.picard_solve(model, 10.0, r_end=1.0, n=1 << 10)
        fixedpoint.banach_solve(model, 6.0, 2.0, 0.1)
        fixedpoint.equilibrium_dichotomy_certificate(model)
        return {}

    def op(self, ctx, x):
        tr = ctx["tr"]
        plain = _audit_model(*x)
        model = tr.model(plain)
        with tr.span("admissibility.full_report"):
            report = admissibility.full_report(model)
        with tr.span("phaseplane.level_set_geometry"):
            phaseplane.level_set_geometry(model)
        with tr.span("vorticity.potential_grid"):
            pot = vorticity.potential_grid(model, PSI_GRID)
        grids = []
        for a in PICARD_AMPS:
            with tr.span("fixedpoint.picard_solve"):
                grids.append(fixedpoint.picard_solve(model, a, r_end=1.0,
                                                     n=1 << 17, tol=1e-13))
        with tr.span("fixedpoint.banach_solve"):
            _, _, factor = fixedpoint.banach_solve(model, 6.0, 2.0, 0.1)
        with tr.span("fixedpoint.equilibrium_dichotomy_certificate"):
            cert = fixedpoint.equilibrium_dichotomy_certificate(model)
        return plain, report, pot, grids, factor, cert

    def check(self, ctx, x, out):
        model, report, pot, grids, factor, cert = out
        fails = []
        if not report.overall:
            fails.append("full_report")
        zeta = fixedpoint.select_contraction_constants(
            T=6.0, L=min(model.ledger.L, 2.5)).zeta
        # criterion 6: observed factor <= zeta + 0.05
        if not factor <= zeta + 0.05:
            fails.append("banach factor")
        if not cert.ok:
            fails.append("dichotomy certificate")
        residual = max(fixedpoint.picard_residual(model, g) for g in grids)
        nodes = range(0, len(PSI_GRID), 25)
        gap = max(abs(vorticity.potential_by_quadrature(
            model, float(PSI_GRID[j])) - float(pot[j])) for j in nodes)
        zero = abs(vorticity.find_positive_zero(model) - 1.0)
        # criteria 5, 2 and 1
        if not (residual < 1e-8 and gap <= 1e-10 and zero <= 1e-9):
            fails.append(f"errors residual={residual:.3g} gap={gap:.3g} "
                         f"zero={zero:.3g}")
        return Check("; ".join(fails) or None,
                     err=max(residual, gap, zero))

    def replay(self, ctx, x, out):
        # the certificate's forward sweep from the equilibrium
        tr, model = ctx["tr"], ctx["tr"].model(out[0])
        T = 6.0
        r0 = math.sqrt(T * T - 1.0)
        config = integrator.IntegrationConfig(r_max=T, rel_tol=1e-12,
                                              abs_tol=1e-14)
        with tr.span("integrator.integrate_from"):
            traj = integrator.integrate_from(model, r0, model.ledger.u0, 0.0,
                                             config)
            tr.add("steps", _steps(traj, r0))


# -------------------------------------------------------------- acceptance

# error measures the criteria report, by criterion number
ERROR_MEASURES = {1: ("max_abs_error",), 2: ("closed_error", "quadrature_gap"),
                  4: ("max_rel_imbalance",), 5: ("residual",),
                  6: ("identity_gap", "probe_deviation"), 12: ("deviation",)}


class _TracedCache(verify.RunCache):
    """RunCache with counting models whose fresh orbits run in spans."""

    def __init__(self, tr) -> None:
        super().__init__()
        self._tr = tr
        self._seen = set()
        self.constantin = tr.model(self.constantin)
        self.example = tr.model(self.example)
        self.powerlaw = tr.model(self.powerlaw)

    def run(self, a, r_max, rel_tol):
        key = (float(a), float(r_max), float(rel_tol))
        if key in self._seen:
            return super().run(a, r_max, rel_tol)
        self._seen.add(key)
        with self._tr.span("integrator.integrate"):
            traj = super().run(a, r_max, rel_tol)
            self._tr.add("steps", _steps(traj, 0.0625))
        return traj


class Acceptance(Workload):
    """The 13 verify criteria in run_all's order, one op each; criterion 13
    re-derives 1-12 from a fresh cache.  A run makes whole passes, each on
    a fresh RunCache, one per 6 s of --seconds: two passes put two ops at
    the median.  The seed is not used."""

    name = "acceptance"
    mix = (1.0, 0.0)
    with_numpy = True

    def plan(self, seed, seconds):
        return list(range(1, 14)) * max(1, int(round(seconds / 6.0)))

    def mix_for(self, ident):
        # criterion 5 is three Picard solves on 2^17-point grids: numpy
        return (0.0, 1.0) if ident == 5 else self.mix

    def setup(self):
        verify.criterion_zero_location(verify.RunCache())
        return {}

    def op(self, ctx, ident):
        tr = ctx["tr"]
        if ident == 1:
            ctx["cache"] = _TracedCache(tr) if tr.enabled \
                else verify.RunCache()
            ctx["results"] = []
        with tr.span(f"verify.c{ident:02d}"):
            if ident == 13:
                result = verify.criterion_determinism(ctx["results"])
            else:
                # run_all's own sequence; run_all times only the whole
                result = verify._ORDERED[ident - 1](ctx["cache"])
        ctx["results"].append(result)
        return result

    def check(self, ctx, ident, result):
        err = max((float(result.measures[key])
                   for key in ERROR_MEASURES.get(ident, ())), default=None)
        return Check(None if result.passed else f"criterion {ident} failed",
                     err=err)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    RingCapture(), Shooting(), ModelAudit(), Acceptance())}
