"""Phase-plane geometry of psi' = beta, beta' = -beta/r - f(psi).

Energy E = beta^2/2 + F(psi) decays like E' = -beta^2/r along orbits.  This
module holds the rotation-rate envelope of the polar angle while E > 0 and
the zero level set of E (the lobes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import HypothesisViolationError, ParameterDomainError
from .search import newton_root
from .vorticity import VorticityModel, potential_grid

TWO_PI = 2.0 * math.pi


def theta_envelope(lambda_g: float, r):
    """Bounds for dtheta/dr while E > 0 and r >= 1, for a float or an array
    of r:

        -1 - 1/(2r) <= dtheta/dr <= -(1 - lambda_g) + 1/(2r).
    """
    if not np.all(np.asarray(r) >= 1.0):
        raise ParameterDomainError(f"envelope requires r >= 1, got {r!r}")
    if not 0.0 < lambda_g < 1.0:
        raise ParameterDomainError(
            f"lambda_g must lie in (0, 1), got {lambda_g!r}")
    return -1.0 - 0.5 / r, -(1.0 - lambda_g) + 0.5 / r


@dataclass(frozen=True)
class LevelSetGeometry:
    """Right lobe of {E = 0}: psi in [0, psi_plus], beta = +-sqrt(-2F)."""
    psi_minus: float
    psi_plus: float
    psi_grid: np.ndarray
    beta_grid: np.ndarray
    peak_curvature: float


def level_set_geometry(model: VorticityModel, n: int = 1024,
                       scan_hi: float = 16.0) -> LevelSetGeometry:
    """Trace the right lobe of E = 0 and measure its tip.

    psi_plus is the largest positive root of F; psi_minus the smallest.
    For odd f with a single positive zero the two coincide and the lobe is
    the single arc beta^2 = -2 F(psi) over [0, psi_plus].  The tip
    curvature is computed from the graph psi(beta), which stays smooth
    across the tip: kappa = -psi''(beta=0) equals 1/f(psi_plus).  Every
    root is a Newton iteration with F' = f, kept inside its bracket and
    stopped at 1e-14 relative.
    """
    probes = np.linspace(0.0, scan_hi, 2000)[1:]
    fvals = potential_grid(model, probes)
    # a root at a probe where F is 0, else in the bracket it opens by a
    # sign change; only the first and the last are refined
    hits = np.flatnonzero((fvals[:-1] == 0.0)
                          | (fvals[:-1] * fvals[1:] < 0.0))
    if len(hits) == 0:
        raise HypothesisViolationError(
            "F has no positive root on the scan range; level set unbounded")

    def root(j: int) -> float:
        if fvals[j] == 0.0:
            return float(probes[j])
        lo, hi = float(probes[j]), float(probes[j + 1])
        # start where the chord through the bracket's ends crosses zero
        f_lo, f_hi = float(fvals[j]), float(fvals[j + 1])
        start = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        return newton_root(model.F, model.f, lo, hi, f_lo, start, 200, 1e-14)

    psi_minus = root(hits[0])
    psi_plus = root(hits[-1]) if len(hits) > 1 else psi_minus
    if psi_plus <= model.ledger.u0:
        raise HypothesisViolationError(
            "level set root does not clear the positive equilibrium")

    psis = np.linspace(0.0, psi_plus, n)
    pot = potential_grid(model, psis)
    betas = np.sqrt(np.maximum(0.0, -2.0 * pot))
    betas[-1] = 0.0

    # 5-point second difference of psi(beta) at the tip; psi is even in beta
    def psi_of_beta(b: float) -> float:
        target = -0.5 * b * b

        def gap(p: float) -> float:
            return model.F(p) - target

        lo = model.ledger.u0
        return newton_root(gap, model.f, lo, psi_plus + 1.0, gap(lo),
                           psi_plus, 200, 1e-14)

    d = 0.01
    p0 = psi_plus
    p1 = psi_of_beta(d)
    p2 = psi_of_beta(2.0 * d)
    curv = -(-2.0 * p2 + 32.0 * p1 - 30.0 * p0) / (12.0 * d * d)
    return LevelSetGeometry(psi_minus, psi_plus, psis, betas, curv)


def scaled_lobe_peak(eps: float) -> float:
    """Tip abscissa of the reference lobe beta^2 = (4/3)(1+eps)|psi|^{3/2} - psi^2."""
    return (16.0 / 9.0) * (1.0 + eps) ** 2


def scaled_lobe_curve(eps: float, n: int = 512) -> Tuple[np.ndarray, np.ndarray]:
    """Upper branch of the reference lobe with modulation factor 1 + eps."""
    peak = scaled_lobe_peak(eps)
    psis = np.linspace(0.0, peak, n)
    val = (4.0 / 3.0) * (1.0 + eps) * psis ** 1.5 - psis ** 2
    return psis, np.sqrt(np.maximum(0.0, val))
