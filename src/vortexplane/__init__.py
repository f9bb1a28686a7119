"""Phase-plane toolkit for radial vorticity profiles.

The trajectory system is psi' = beta, beta' = -beta/r - f(psi) with an odd
coercive vorticity function f.  The package builds admissible models,
checks their constants, integrates orbits with certified energy decay,
solves the short-range and backward fixed-point problems, and audits the
rotation estimates that force every non-equilibrium orbit into the
negative-energy well.
"""

from .analysis import (AxisCrossing, CrossingSequence, EnergyEntry,
                       RingEntry, RingSpec, ShootingResult, ShotRecord,
                       classify_shot, crossing_sequence, e_region_entry,
                       rate_onset_radius, ring_entry, scan_for_bracket,
                       shoot_for_origin, transversality_check,
                       verify_crossing_bounds)
from .errors import (FixedPointFailureError, HypothesisViolationError,
                     InfeasibleConstantsError, NoBracketError,
                     NotDifferentiableError, NumericalError,
                     OriginReachedSignal, ParameterDomainError,
                     ToleranceError, VortexPlaneError)
from .fixedpoint import (ContractionConstants, GridFunction, banach_solve,
                         beta_from_psi, equilibrium_dichotomy_certificate,
                         picard_residual, picard_solve, rate_transform,
                         select_contraction_constants)
from .integrator import (IntegrationConfig, Termination, Trajectory,
                         integrate, integrate_backward, integrate_from)
from .phaseplane import (energy, energy_rate, energy_second,
                         level_set_geometry, theta_envelope, to_polar)
from .admissibility import AdmissibilityReport, full_report
from .portrait import build_portrait_svg
from .verify import run_all
from .vorticity import (C2_UPPER_BOUND, ConstantsLedger, VorticityModel,
                        constantin_model, example_model, find_positive_zero,
                        make_model, potential_by_quadrature, power_law_model)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AxisCrossing",
    "C2_UPPER_BOUND",
    "ConstantsLedger",
    "ContractionConstants",
    "CrossingSequence",
    "EnergyEntry",
    "FixedPointFailureError",
    "GridFunction",
    "HypothesisViolationError",
    "InfeasibleConstantsError",
    "IntegrationConfig",
    "NoBracketError",
    "NotDifferentiableError",
    "NumericalError",
    "OriginReachedSignal",
    "ParameterDomainError",
    "RingEntry",
    "RingSpec",
    "ShootingResult",
    "ShotRecord",
    "Termination",
    "ToleranceError",
    "Trajectory",
    "VortexPlaneError",
    "VorticityModel",
    "__version__",
    "banach_solve",
    "beta_from_psi",
    "build_portrait_svg",
    "classify_shot",
    "constantin_model",
    "crossing_sequence",
    "e_region_entry",
    "energy",
    "energy_rate",
    "energy_second",
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
    "to_polar",
    "transversality_check",
    "verify_crossing_bounds",
]
