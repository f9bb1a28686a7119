"""Command line front end.

Subcommands wrap the library into reproducible experiments: admissibility
reports, trajectory runs with event summaries, phase portraits, shooting,
both fixed-point solvers, and the full acceptance suite.  Identical
invocations produce byte-identical CSV, JSON, and SVG outputs.

Exit codes: 0 success, 1 a report ran but failed, 2 usage or parameter
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import verify
from .admissibility import full_report
from .analysis import (RingSpec, crossing_sequence, e_region_entry,
                       rate_onset_radius, ring_entry, scan_for_bracket,
                       shoot_for_origin, verify_crossing_bounds)
from .errors import (HypothesisViolationError, NumericalError,
                     ParameterDomainError)
from .fixedpoint import (banach_solve, beta_from_psi, check_start_value,
                         picard_residual, picard_solve,
                         select_contraction_constants)
from .integrator import IntegrationConfig, integrate
from .portrait import build_portrait_svg
from .vorticity import VorticityModel, make_model

SCHEMA_VERSION = 3

# ------------------------------------------------------------- plumbing

def _as_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParameterDomainError(f"{name} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise ParameterDomainError(f"{name} must be finite, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for the float flags: a finite number, else a usage
    error (exit 2) raised inside parse_args."""
    try:
        return _as_float(text, "value")
    except ParameterDomainError as exc:
        raise argparse.ArgumentTypeError(f"parameter error: {exc}")


def _parse_float_list(text: str, name: str) -> List[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ParameterDomainError(f"{name} must list at least one value")
    return [_as_float(piece.strip(), name) for piece in items]


def _parse_pair(text: str, name: str,
                form: str = "lo:hi") -> Tuple[float, float]:
    pieces = text.split(":")
    if len(pieces) != 2:
        raise ParameterDomainError(
            f"{name} must look like {form}, got {text!r}")
    return _as_float(pieces[0], name), _as_float(pieces[1], name)


def _load_config(path: str) -> List[str]:
    """The file's `key = value` lines as `--key=value` arguments, with `_`
    in a key read as `-`."""
    if not os.path.exists(path):
        raise ParameterDomainError(f"config file not found: {path}")
    flags: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterDomainError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _ensure_out(args: argparse.Namespace) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    return _write_text(out_dir, name,
                       json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _resolve_model(args: argparse.Namespace) -> VorticityModel:
    return make_model(args.model, c2=args.c2, alpha=args.alpha)


def _ring_from_args(args: argparse.Namespace,
                    model: VorticityModel) -> Optional[RingSpec]:
    if not args.ring:
        return None
    eps, delta = _parse_pair(args.ring, "--ring", "eps:delta")
    return RingSpec.for_model(model, epsilon=eps, delta=delta)


def _orbit_config(args: argparse.Namespace) -> IntegrationConfig:
    rel = 1e-10 if args.tol_rel is None else args.tol_rel
    return IntegrationConfig(r_max=args.rmax, rel_tol=rel,
                             abs_tol=args.tol_abs)


# ------------------------------------------------------------- commands

def cmd_check(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    a_values = tuple(_parse_float_list(args.a, "--a"))
    report = full_report(model, a_values=a_values, seed=args.seed)
    out = _ensure_out(args)
    path = _write_json(out, f"check_{model.model_id}.json",
                       report.to_json_dict())
    for check in report.checks:
        if check.passed is None:
            verdict = "skip"
        else:
            verdict = "pass" if check.passed else "FAIL"
        print(f"{verdict:4s}  {check.name}")
    print(f"overall: {'pass' if report.overall else 'FAIL'}")
    print(f"wrote {path}")
    return 0 if report.overall else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    a = _as_float(args.a, "--a")
    check_start_value(a)
    ring = _ring_from_args(args, model)
    config = _orbit_config(args)
    traj = integrate(model, a, config)

    entry = None
    if float(traj.E[0]) > 0.0:
        entry = e_region_entry(traj)
    capture = None
    capture_note = None
    if ring is not None:
        try:
            capture = ring_entry(traj, ring)
        except HypothesisViolationError as exc:
            capture_note = str(exc)
    rotation = rotation_note = None
    if ring is not None and entry is not None:
        # criterion 10's audit: passages up to the E = 0 crossing, past
        # which the angle can stall inside the well
        try:
            r_onset = rate_onset_radius(traj, ring)
            if r_onset >= entry.r_cross:
                raise HypothesisViolationError(
                    f"rate onset r = {r_onset!r} is not before E = 0")
            seq = crossing_sequence(traj, r_start=r_onset,
                                    r_end=entry.r_cross)
            if seq is None or seq.count == 0:
                raise HypothesisViolationError(
                    "the angle is not strictly decreasing up to E = 0"
                    if seq is None else "no window passage before E = 0")
            audit = verify_crossing_bounds(traj, seq, ring, slack=1e-3)
            rotation = {"r_onset": r_onset, "eta_hat": float(audit.eta_hat),
                        "count": int(seq.count),
                        "min_gap": float(np.min(audit.gaps)),
                        "max_gap": float(np.max(audit.gaps)),
                        "audit_ok": bool(audit.ok)}
        except HypothesisViolationError as exc:
            rotation_note = str(exc)

    out = _ensure_out(args)
    tag = f"{model.model_id}_a{a:g}"
    csv_path = os.path.join(out, f"trajectory_{tag}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        traj.to_csv(fh)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model.model_id,
        "a": a,
        "r_max": args.rmax,
        "rel_tol": config.rel_tol,
        "abs_tol": config.abs_tol,
        "samples": int(len(traj.r)),
        "termination": traj.termination.value,
        "min_radius": float(traj.min_radius),
        "min_radius_r": float(traj.min_radius_r),
        "energy_entry": None if entry is None else {
            "r_cross": float(entry.r_cross), "psi": float(entry.psi),
            "beta": float(entry.beta), "side": entry.side,
            "transversal": bool(entry.transversal),
            "energy_after": float(entry.energy_after)},
        "ring": None if ring is None else {
            "epsilon": ring.epsilon, "delta": ring.delta,
            "c": ring.c, "nu": ring.nu},
        "ring_entry": None if capture is None else {
            "r_entry": float(capture.r_entry),
            "min_radius_after": float(capture.min_radius_after),
            "min_radius_r": float(capture.min_radius_r)},
        "ring_note": capture_note,
        "rotation": rotation,
        "rotation_note": rotation_note,
    }
    json_path = _write_json(out, f"events_{tag}.json", payload)
    print(f"model={model.model_id} a={a:g} r_max={args.rmax:g} "
          f"samples={len(traj.r)}")
    print(f"termination={traj.termination.value}")
    print("r_entry=" + ("none" if capture is None
                        else f"{capture.r_entry:.6f}"))
    print("r_cross=" + ("none" if entry is None
                        else f"{entry.r_cross:.6f}"))
    print("rotation=none" if rotation is None else
          "rotation={count} passages eta_hat={eta_hat:.6f} "
          "audit_ok={audit_ok}".format(**rotation))
    print(f"min_radius={traj.min_radius:.6g} at r={traj.min_radius_r:.6g}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_portrait(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    a_values = _parse_float_list(args.a, "--a")
    ring = _ring_from_args(args, model)
    config = _orbit_config(args)
    # lazy orbits: build_portrait_svg refuses a bad clip before it runs one
    svg = build_portrait_svg(model,
                             (integrate(model, a, config) for a in a_values),
                             ring=ring, clip_radius=args.clip)
    out = _ensure_out(args)
    path = _write_text(out, f"portrait_{model.model_id}.svg", svg)
    print(f"wrote {path} ({len(svg.encode('utf-8'))} bytes, "
          f"{len(a_values)} orbits)")
    return 0


def cmd_shoot(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    a_lo, a_hi = _parse_pair(args.a, "--a")
    rel = 1e-9 if args.tol_rel is None else args.tol_rel
    lo, hi, history = scan_for_bracket(model, a_start=a_lo, a_stop=a_hi,
                                       step=1.0, rel_tol=rel)
    result = shoot_for_origin(model, lo, hi, tol=1e-6, rel_tol=rel,
                              ends=(history[-2], history[-1]))
    out = _ensure_out(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model.model_id,
        "scanned": [{"a": rec.a, "outcome": rec.outcome,
                     "min_radius": rec.min_radius} for rec in history],
        "bracket": [lo, hi],
        "a_star": result.a_star,
        "origin_hit": bool(result.origin_hit),
        "min_radius_achieved": result.min_radius_achieved,
        "arrival_radius": result.arrival_radius,
        "fit_residual": result.fit_residual,
        "classification_shots": len(result.history),
    }
    path = _write_json(out, f"shoot_{model.model_id}.json", payload)
    print(f"bracket=({lo:g}, {hi:g}) a_star={result.a_star!r}")
    print(f"arrival_radius={result.arrival_radius!r} "
          f"fit_residual={result.fit_residual!r}")
    print(f"min_radius_achieved={result.min_radius_achieved!r}")
    print(f"wrote {path}")
    return 0


def cmd_picard(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    a = _as_float(args.a, "--a")
    grid = picard_solve(model, a, r_end=1.0, n=1 << 17, tol=1e-13)
    residual = picard_residual(model, grid)
    slope = beta_from_psi(model, grid)
    out = _ensure_out(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model.model_id,
        "a": a,
        "r_end": 1.0,
        "n": 1 << 17,
        "psi_end": float(grid.values[-1]),
        "beta_end": float(slope.values[-1]),
        "residual": residual,
        "sweeps": grid.sweeps,
        "last_change": grid.last_change,
    }
    path = _write_json(out, f"picard_{model.model_id}.json", payload)
    print(f"psi({grid.r[-1]:g}) = {float(grid.values[-1])!r}")
    print(f"beta({grid.r[-1]:g}) = {float(slope.values[-1])!r}")
    print(f"residual = {residual!r}")
    print(f"wrote {path}")
    return 0


def cmd_banach(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    constants = select_contraction_constants(T=args.T, L=model.ledger.L)
    psi, beta, factor = banach_solve(model, args.T, args.psi_t, args.beta_t)
    dev_from_anchor = float(np.max(np.abs(psi.values - args.psi_t)))
    out = _ensure_out(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model.model_id,
        "T": args.T,
        "psi_T": args.psi_t,
        "beta_T": args.beta_t,
        "interval": [float(psi.r[0]), float(psi.r[-1])],
        "lam_star": constants.lam_star,
        "lam_mid": constants.lam_mid,
        "k": constants.k,
        "zeta": constants.zeta,
        "observed_factor": factor,
        "psi_low": float(psi.values[0]),
        "beta_low": float(beta.values[0]),
        "max_dev_from_anchor_value": dev_from_anchor,
        "sweeps": psi.sweeps,
        "last_change": psi.last_change,
    }
    path = _write_json(out, f"banach_{model.model_id}.json", payload)
    print(f"interval=[{psi.r[0]:.6f}, {psi.r[-1]:g}] "
          f"zeta={constants.zeta:.6f} factor={factor:.6f}")
    if args.beta_t == 0.0 and model.f(args.psi_t) == 0.0:
        print(f"constant solution, max deviation {dev_from_anchor!r}")
    print(f"psi({psi.r[0]:.6f}) = {float(psi.values[0])!r}")
    print(f"wrote {path}")
    return 0


def cmd_verify_paper(args: argparse.Namespace) -> int:
    results = verify.run_all()
    out = _ensure_out(args)
    path = _write_text(out, "verify_report.json",
                       verify.render_report(results))
    for line in verify.matrix_lines(results):
        print(line)
    print(f"wrote {path}")
    return 0 if all(r.passed for r in results) else 1


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes exactly the flags its cmd_* reads
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--out", default=".", help="output directory")
    base.add_argument("--config", default=None,
                      help="file of key = value lines, one per flag of this "
                           "command; flags on the command line win")
    model = argparse.ArgumentParser(add_help=False, parents=[base])
    model.add_argument("--model", default="constantin",
                       choices=("constantin", "example", "powerlaw"),
                       help="vorticity model id")
    model.add_argument("--c2", type=_finite_float, default=None,
                       help="modulation amplitude for the example model")
    model.add_argument("--alpha", type=_finite_float, default=None,
                       help="exponent for the power-law model")
    rel = argparse.ArgumentParser(add_help=False, parents=[model])
    rel.add_argument("--tol-rel", type=_finite_float, default=None,
                     help="relative step tolerance (default 1e-10, "
                          "1e-9 for shoot)")
    orbit = argparse.ArgumentParser(add_help=False, parents=[rel])
    orbit.add_argument("--tol-abs", type=_finite_float, default=1e-12,
                       help="absolute step tolerance")
    orbit.add_argument("--rmax", type=_finite_float, default=100.0)
    orbit.add_argument("--ring", default=None,
                       help="capture ring widths as eps:delta")

    parser = argparse.ArgumentParser(
        prog="vortexplane",
        description="phase-plane toolkit for radial vorticity profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[model], allow_abbrev=False,
                       help="run the admissibility report")
    p.add_argument("--a", default="1,10,100",
                   help="comma-separated start values")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampling sequences")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", parents=[orbit], allow_abbrev=False,
                       help="integrate one orbit and summarize events")
    p.add_argument("--a", default="10", help="start value psi(0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("portrait", parents=[orbit], allow_abbrev=False,
                       help="render an SVG phase portrait")
    p.add_argument("--a", default="5,10",
                   help="comma-separated start values")
    p.add_argument("--clip", type=_finite_float, default=None,
                   help="clip the frame to |psi|, |beta| <= clip")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("shoot", parents=[rel], allow_abbrev=False,
                       help="fit the start value of the origin orbit")
    p.add_argument("--a", default="2:20", help="scan range as lo:hi")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("picard", parents=[model], allow_abbrev=False,
                       help="short-range fixed point on [0, 1]")
    p.add_argument("--a", default="2", help="start value psi(0)")
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser("banach", parents=[model], allow_abbrev=False,
                       help="backward fixed point on [sqrt(T^2-1), T]")
    p.add_argument("--psiT", type=_finite_float, default=1.0, dest="psi_t")
    p.add_argument("--betaT", type=_finite_float, default=0.0, dest="beta_t")
    p.add_argument("--T", type=_finite_float, default=6.0)
    p.set_defaults(func=cmd_banach)

    p = sub.add_parser("verify-paper", parents=[base], allow_abbrev=False,
                       help="run the full acceptance suite")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go first, so the command line's win
            args = parser.parse_args(
                argv[:1] + _load_config(args.config) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParameterDomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
