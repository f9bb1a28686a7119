"""Scan start amplitudes for the orbit that lands on the origin.

Each shot integrates until the orbit leaves {E > 0}; the side of the psi
axis where that happens classifies the amplitude as over- or undershooting.
A sign change brackets the critical amplitude, a fit to the orbit's
arrival at the origin refines it, and the shot table, the refined value,
the arrival radius R and the fit's residual are printed.

Usage:
    python3 shooting_scan.py [--lo 2] [--hi 12] [--step 1] [--tol 1e-6]
"""

import argparse

from vortexplane import (NoBracketError, classify_shot, scan_for_bracket,
                         shoot_for_origin)
from vortexplane.vorticity import constantin_model


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lo", type=float, default=2.0)
    ap.add_argument("--hi", type=float, default=12.0)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    model = constantin_model()

    def shots(a):
        # classify_shot from a up to --hi, stepping a as the scan does
        while a <= args.hi + 1e-12:
            yield classify_shot(model, a)
            a += args.step

    def print_table(table):
        print(f"{'a':>8}  {'outcome':>8}  {'r_stop':>10}  {'min R':>12}")
        for rec in table:
            print(f"{rec.a:8.3f}  {rec.outcome:>8}  {rec.r_stop:10.3f}  "
                  f"{rec.min_radius:12.6f}")

    # the table is the scan's history plus the shots past the bracket; a
    # failed scan returns no history, so then the table is shot on its own
    try:
        a_lo, a_hi, scanned = scan_for_bracket(model, args.lo, args.hi,
                                               args.step)
    except NoBracketError:
        print_table(shots(args.lo))
        raise
    print_table(scanned + list(shots(scanned[-1].a + args.step)))
    print(f"\nbracket: [{a_lo:g}, {a_hi:g}]")
    result = shoot_for_origin(model, a_lo, a_hi, tol=args.tol,
                              ends=(scanned[-2], scanned[-1]))
    print(f"critical amplitude a* = {result.a_star:.10f}")
    if result.arrival_radius is None:
        print("arrival fit: not confirmed, a* from bisection")
    else:
        print(f"arrival radius R = {result.arrival_radius:.6f}, "
              f"fit residual {result.fit_residual:.3e}")
    print(f"closest approach to the origin: min R = "
          f"{result.min_radius_achieved:.6e}")


if __name__ == "__main__":
    main()
