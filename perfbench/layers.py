"""Per-layer metrics of a traced run, named "<module>.<quantity>".

Every workload reports every name.  A layer that a workload does not
call reads 0 there.  Spans are measured in reference units, so the
replay phase, which runs later than the ops it repeats, is on the same
footing as they are.  Shares are a layer's reference units over those of
all traced ops; replay spans count in numerators only.  Times per step,
per shot and per F call are scalar reference units converted with
SCALAR_CHUNK_S: microseconds on the host's fast level.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Dict, Tuple

import numpy as np

from vortexplane import vorticity

from host import SCALAR_CHUNK_S
from reference import SHOOT_MODELS

ANALYSIS_PASSES = ("e_region_entry", "ring_entry", "rate_onset_radius",
                   "crossing_sequence", "verify_crossing_bounds",
                   "transversality_check")


def scalar_F_us(clock, seed: int, repeats: int = 3,
                n: int = 200) -> Dict[str, float]:
    """Fast-level microseconds per scalar F call on seeded psi samples,
    log-uniform in [1e-2, 1e2] with random sign; median of repeats."""
    rng = np.random.default_rng([seed, 4])
    psis = [float(x) for x in
            np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
            * rng.choice([-1.0, 1.0], n)]
    out = {}
    for name, params in SHOOT_MODELS:
        F = vorticity.make_model(name, **params).F
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for p in psis:
                F(p)
            times.append(fast_seconds(clock, t0, time.perf_counter()))
        out[name] = 1e6 * median(times) / n
    return out


def fast_seconds(clock, t0: float, t1: float) -> float:
    """Seconds [t0, t1] would take on the host's fast level."""
    return clock.interval(t0, t1, (1.0, 0.0))[1] * SCALAR_CHUNK_S


def per_layer_metrics(tr, tm_u, tm_t, clock,
                      seed: int) -> Dict[str, Tuple[float, str, int]]:
    """tm_u and tm_t time the untraced and the traced pass over the same
    inputs; clock is still sampling."""
    ref_ms = 1e3 * clock.kernel_median()
    n_samples = len(clock.kernel())
    agg = tr.by_name(lambda s: clock.interval(s.start, s.end)[1])
    fast = tr.by_name(lambda s: fast_seconds(clock, s.start, s.end))
    op_spans = [s for s in tr.ops() if s.name.startswith("op.")]
    total = sum(clock.interval(s.start, s.end)[1] for s in op_spans)
    n_ops = len(op_spans)

    def get(name, key="time"):
        return agg[name][key] if name in agg else 0.0

    def get_fast(name):
        return fast[name]["time"] if name in fast else 0.0

    def share(*names):
        return sum(get(n) for n in names) / total if total > 0 else 0.0

    m: Dict[str, Tuple[float, str, int]] = {}
    integ = ("integrator.integrate", "integrator.integrate_from")
    calls = sum(get(n, "spans") for n in integ)
    steps = sum(get(n, "steps") for n in integ)
    f_calls = sum(get(n, "f") for n in integ)
    F_calls = sum(get(n, "F") for n in integ)
    # each integrate call: 3 f calls to start, then 6 per attempted step
    attempts = (f_calls - 3 * calls) / 6.0
    m["integrator.steps"] = (steps, "count", int(calls))
    m["integrator.attempts_per_step"] = (
        attempts / steps if steps else 0.0, "ratio", int(steps))
    m["integrator.us_per_step"] = (
        1e6 * sum(get_fast(n) for n in integ) / steps if steps else 0.0,
        "us",
        int(steps))
    m["integrator.share"] = (share(*integ), "ratio", int(calls))
    m["integrator.to_csv_share"] = (share("integrator.to_csv"), "ratio",
                                    int(get("integrator.to_csv", "spans")))

    m["vorticity.F_calls_per_step"] = (
        F_calls / steps if steps else 0.0, "count", int(steps))
    for name, us in scalar_F_us(clock, seed).items():
        m[f"vorticity.F_us.{name}"] = (us, "us", 200)
    m["vorticity.potential_grid_share"] = (
        share("vorticity.potential_grid"), "ratio",
        int(get("vorticity.potential_grid", "spans")))

    m["admissibility.full_report_share"] = (
        share("admissibility.full_report"), "ratio",
        int(get("admissibility.full_report", "spans")))
    m["phaseplane.level_set_share"] = (
        share("phaseplane.level_set_geometry"), "ratio",
        int(get("phaseplane.level_set_geometry", "spans")))

    m["fixedpoint.picard_sweeps"] = (
        get("fixedpoint.picard_solve", "f_arr"), "count",
        int(get("fixedpoint.picard_solve", "spans")))
    m["fixedpoint.picard_share"] = (
        share("fixedpoint.picard_solve"), "ratio",
        int(get("fixedpoint.picard_solve", "spans")))
    m["fixedpoint.banach_share"] = (
        share("fixedpoint.banach_solve"), "ratio",
        int(get("fixedpoint.banach_solve", "spans")))
    m["fixedpoint.head_share"] = (
        share("fixedpoint.series_start"), "ratio",
        int(get("fixedpoint.series_start", "spans")))

    for fn in ANALYSIS_PASSES:
        name = f"analysis.{fn}"
        m[f"{name}_share"] = (share(name), "ratio", int(get(name, "spans")))
    solve_spans = ("analysis.scan_for_bracket", "analysis.shoot_for_origin")
    solves = sum(s.counts.get("solves", 0) for s in op_spans)
    shots = sum(s.counts.get("shots", 0) for s in op_spans)
    m["analysis.shots_per_solve"] = (
        shots / solves if solves else 0.0, "count", int(solves))
    m["analysis.shot_ms"] = (
        1e3 * sum(get_fast(n) for n in solve_spans) / shots if shots
        else 0.0,
        "ms", int(shots))

    m["portrait.svg_share"] = (
        share("portrait.build_portrait_svg"), "ratio",
        int(get("portrait.build_portrait_svg", "spans")))
    for ident in range(1, 14):
        name = f"verify.c{ident:02d}"
        m[f"{name}_share"] = (share(name), "ratio", int(get(name, "spans")))

    m["host.ref_ms"] = (ref_ms, "ms", n_samples)
    m["host.wall_s"] = (tm_u.wall, "s", len(tm_u.net))
    m["host.trace_overhead"] = (tm_t.wall_ref / tm_u.wall_ref, "ratio",
                                n_ops)
    return m
