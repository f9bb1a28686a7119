"""Phase-plane toolkit for radial vorticity profiles.

The trajectory system is psi' = beta, beta' = -beta/r - f(psi) with an odd
coercive vorticity function f.  The package builds admissible models,
checks their constants, integrates orbits with audited energy decay,
solves the short-range and backward fixed-point problems, and audits the
rotation estimates that force every non-equilibrium orbit into the
negative-energy well.
"""

from .analysis import (RingSpec, classify_shot, crossing_sequence,
                       e_region_entry, rate_onset_radius, ring_entry,
                       scan_for_bracket, shoot_for_origin,
                       transversality_check, verify_crossing_bounds)
from .errors import (FixedPointFailureError, HypothesisViolationError,
                     InfeasibleConstantsError, NoBracketError, NumericalError,
                     ParameterDomainError, ToleranceError, VortexPlaneError)
from .fixedpoint import (banach_solve, equilibrium_dichotomy_certificate,
                         picard_residual, picard_solve, rate_transform,
                         select_contraction_constants)
from .integrator import (IntegrationConfig, Termination, Trajectory,
                         integrate, integrate_backward, integrate_from)
from .phaseplane import level_set_geometry, theta_envelope
from .admissibility import full_report
from .portrait import build_portrait_svg
from .verify import run_all
from .vorticity import (C2_UPPER_BOUND, VorticityModel, constantin_model,
                        example_model, find_positive_zero, make_model,
                        potential_by_quadrature, power_law_model)

__version__ = "0.1.0"

__all__ = [
    "C2_UPPER_BOUND",
    "FixedPointFailureError",
    "HypothesisViolationError",
    "InfeasibleConstantsError",
    "IntegrationConfig",
    "NoBracketError",
    "NumericalError",
    "ParameterDomainError",
    "RingSpec",
    "Termination",
    "ToleranceError",
    "Trajectory",
    "VortexPlaneError",
    "VorticityModel",
    "__version__",
    "banach_solve",
    "build_portrait_svg",
    "classify_shot",
    "constantin_model",
    "crossing_sequence",
    "e_region_entry",
    "equilibrium_dichotomy_certificate",
    "example_model",
    "find_positive_zero",
    "full_report",
    "integrate",
    "integrate_backward",
    "integrate_from",
    "level_set_geometry",
    "make_model",
    "picard_residual",
    "picard_solve",
    "potential_by_quadrature",
    "power_law_model",
    "rate_onset_radius",
    "rate_transform",
    "ring_entry",
    "run_all",
    "scan_for_bracket",
    "select_contraction_constants",
    "shoot_for_origin",
    "theta_envelope",
    "transversality_check",
    "verify_crossing_bounds",
]
