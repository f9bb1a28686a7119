"""Measure the stepper's global error against an independent reference.

Runs one constantin orbit from the package's own Picard head and compares
its stored nodes on [1, r_max] with scipy's DOP853 at rtol 1e-13, started
from the same head state.  For each rel_tol it prints the accepted steps,
the psi and beta error at r_max and the largest psi and beta error over
the nodes.  abs_tol is 1e-3 rel_tol.

Usage:
    python3 global_error.py [--a 100] [--r-max 2000]
                            [--rel-tols 1e-9,1e-10,1e-11]
"""

import argparse

import numpy as np

from vortexplane import IntegrationConfig, integrate
from vortexplane.integrator import series_start
from vortexplane.vorticity import constantin_model


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=100.0)
    ap.add_argument("--r-max", type=float, default=2000.0)
    ap.add_argument("--rel-tols", default="1e-9,1e-10,1e-11")
    args = ap.parse_args()
    # imported after parse_args: scipy is slow to load and --help needs none
    from scipy.integrate import solve_ivp

    model = constantin_model()
    f = model.f
    rs, psis, betas, _ = series_start(model, args.a,
                                      IntegrationConfig(r_max=args.r_max))
    ref = solve_ivp(lambda r, y: (y[1], -y[1] / r - f(y[0])),
                    (float(rs[-1]), args.r_max),
                    [float(psis[-1]), float(betas[-1])], method="DOP853",
                    rtol=1e-13, atol=1e-14, dense_output=True)
    print(f"a={args.a:g}  window=[1, {args.r_max:g}]  reference DOP853 "
          f"rtol 1e-13: {ref.nfev} evaluations")
    print(f"{'rel_tol':>8}  {'steps':>8}  {'psi end':>9}  {'beta end':>9}"
          f"  {'psi max':>9}  {'beta max':>9}")
    for rel_tol in (float(v) for v in args.rel_tols.split(",")):
        traj = integrate(model, args.a, IntegrationConfig(
            r_max=args.r_max, rel_tol=rel_tol, abs_tol=1e-3 * rel_tol))
        keep = traj.r >= 1.0
        psi_ref, beta_ref = ref.sol(traj.r[keep])
        dpsi = np.abs(psi_ref - traj.psi[keep])
        dbeta = np.abs(beta_ref - traj.beta[keep])
        steps = int(np.count_nonzero(traj.r > rs[-1]))
        print(f"{rel_tol:8.0e}  {steps:8d}  {dpsi[-1]:9.2e}  {dbeta[-1]:9.2e}"
              f"  {dpsi.max():9.2e}  {dbeta.max():9.2e}")


if __name__ == "__main__":
    main()
