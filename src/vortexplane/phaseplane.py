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
# level_set_geometry: the lobe's nodes and the right end of psi_plus's
# bracket [u0, _SCAN_HI] (psi_plus < 2 in every family)
_LOBE_N, _SCAN_HI = 1024, 16.0


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
    psi_plus: float
    psi_grid: np.ndarray
    beta_grid: np.ndarray
    peak_curvature: float


def level_set_geometry(model: VorticityModel) -> LevelSetGeometry:
    """Trace the right lobe of E = 0 and its tip.

    psi_plus is the positive root of F.  F < 0 on (0, u0], as f < 0 there,
    and F rises past u0, as f > 0 there, so the root is the one sign change
    on [u0, _SCAN_HI]: a Newton iteration with F' = f, kept inside that
    bracket and stopped at 1e-14 relative.  The lobe is the single arc
    beta^2 = -2 F(psi) over [0, psi_plus].  Its graph psi(beta) stays
    smooth across the tip: differentiating F(psi(beta)) = -beta^2/2 twice
    gives f psi'' + f' psi'^2 = -1 with psi' = 0 at beta = 0, so the tip
    curvature is kappa = -psi''(0) = 1/f(psi_plus).
    """
    u0 = model.ledger.u0
    f_lo, f_hi = model.F(u0), model.F(_SCAN_HI)
    if not f_lo < 0.0 < f_hi:
        raise HypothesisViolationError(
            "F does not change sign on [u0, 16]; no lobe end in range")
    psi_plus = newton_root(model.F, model.f, u0, _SCAN_HI, f_lo, _SCAN_HI,
                           200, 1e-14)

    psis = np.linspace(0.0, psi_plus, _LOBE_N)
    pot = potential_grid(model, psis)
    betas = np.sqrt(np.maximum(0.0, -2.0 * pot))
    betas[-1] = 0.0
    return LevelSetGeometry(psi_plus, psis, betas, 1.0 / model.f(psi_plus))


def scaled_lobe_peak(eps: float) -> float:
    """Tip abscissa of the reference lobe beta^2 = (4/3)(1+eps)|psi|^{3/2} - psi^2."""
    return (16.0 / 9.0) * (1.0 + eps) ** 2


def scaled_lobe_curve(eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Upper branch of the reference lobe with modulation factor 1 + eps,
    on 512 nodes."""
    peak = scaled_lobe_peak(eps)
    psis = np.linspace(0.0, peak, 512)
    val = (4.0 / 3.0) * (1.0 + eps) * psis ** 1.5 - psis ** 2
    return psis, np.sqrt(np.maximum(0.0, val))
