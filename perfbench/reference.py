"""Independent references for the benchmark's error measures.

Nothing here calls the integrator or the fixed-point solvers of the
package under test: orbits come from scipy's DOP853, started from the
regular-point series at a tiny radius and restarted at every psi = 0
crossing, where f has its square-root kink.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

R_START = 1e-3
REFDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "refdata.json")
# the shooting workload's models, by the names refdata.json uses
SHOOT_MODELS = (("constantin", {}), ("example", {"c2": 0.02}),
                ("powerlaw", {"alpha": 0.3}))


def series_state(f, a: float, r: float):
    """(psi, beta) at small r from psi = a - f(a) r^2/4 + f(a) f'(a) r^4/64."""
    fa = f(a)
    d = 1e-6 * a
    fpa = (f(a + d) - f(a - d)) / (2.0 * d)
    psi = a - 0.25 * fa * r * r + fa * fpa * r ** 4 / 64.0
    beta = -0.5 * fa * r + fa * fpa * r ** 3 / 16.0
    return psi, beta


def _segments(f, a: float, r_end: float, rtol: float, atol: float,
              stop=None):
    """Yield DOP853 solutions of the orbit psi(0) = a, one per stretch
    between psi = 0 crossings, until r_end or a terminal stop event."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        return (y[1], -y[1] / r - f(y[0]))

    def axis(r, y):
        return y[0]
    axis.terminal = True
    events = [axis] if stop is None else [axis, stop]

    r0 = R_START
    y0 = series_state(f, a, r0)
    while True:
        sol = solve_ivp(rhs, (r0, r_end), y0, method="DOP853", rtol=rtol,
                        atol=atol, events=events, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        yield sol
        if sol.status != 1 or len(sol.t_events[0]) == 0:
            return
        # step just past the crossing so the next stretch starts off-axis
        r0 = float(sol.t_events[0][0])
        y0 = (0.0, float(sol.y_events[0][0][1]))
        nudge = solve_ivp(rhs, (r0, r0 + 1e-9), y0, method="DOP853",
                          rtol=rtol, atol=atol)
        r0, y0 = float(nudge.t[-1]), nudge.y[:, -1]


def dop853_states(f, a: float, radii, rtol: float = 1e-13,
                  atol: float = 1e-13) -> np.ndarray:
    """(psi, beta) rows of the orbit psi(0) = a at ascending radii > R_START."""
    radii = np.asarray(radii, dtype=float)
    out = np.full((len(radii), 2), np.nan)
    done = 0
    for sol in _segments(f, a, float(radii[-1]), rtol, atol):
        r1 = float(sol.t[-1])
        while done < len(radii) and radii[done] <= r1:
            out[done] = sol.sol(radii[done])
            done += 1
    return out


def dop853_side(model, a: float, rtol: float = 1e-12) -> float:
    """+1 or -1: the side of the psi axis where the orbit from a first
    enters {E < 0}."""
    F = model.F

    def energy(r, y):
        return 0.5 * y[1] * y[1] + F(y[0])
    energy.terminal = True
    energy.direction = -1
    for sol in _segments(model.f, a, 1e4, rtol, 1e-14, stop=energy):
        if len(sol.t_events[1]):
            return 1.0 if sol.y_events[1][0][0] > 0.0 else -1.0
    raise RuntimeError(f"reference orbit from a={a!r} never reached E < 0")


def shoot_reference(model, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Critical amplitude between lo and hi by bisection on dop853_side."""
    s_lo = dop853_side(model, lo)
    if dop853_side(model, hi) == s_lo:
        raise RuntimeError(f"[{lo!r}, {hi!r}] does not bracket a switch")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dop853_side(model, mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main() -> int:
    """Recompute refdata.json; run from the repository root."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from vortexplane.vorticity import make_model

    data = {"a_star": {}}
    for name, params in SHOOT_MODELS:
        model = make_model(name, **params)
        a_star = shoot_reference(model, 2.0, 4.0)
        data["a_star"][name] = a_star
        print(f"{name}: a* = {a_star!r}", flush=True)
    with open(REFDATA, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
