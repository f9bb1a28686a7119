"""Global error of the stepper against an independent reference.

scipy's DOP853 at rtol 1e-13 starts from the package's own Picard head and
is read at every stored node on [1, 100]; against a run at rtol 1e-12 and
2.5e-14 it is good to 3e-10 on these orbits.  The bounds are the errors
the plain r-stepper measured, rounded up in the second digit; a change to
the stepper may lower them but not exceed them.  The zero-energy stop is
held the same way to the reference's own E = 0 crossing, and each stored
step's dissipation to the reference's integral of beta^2/r over that step.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from vortexplane import IntegrationConfig, Termination, integrate
from vortexplane.integrator import series_start

_RTOLS = (1e-8, 1e-9, 1e-10)

# (model, a): (psi, beta) error bound at each rel_tol in _RTOLS
_BOUNDS = {
    ("constantin", 2.0): ((2.4e-8, 1.7e-8), (2.4e-9, 1.7e-9),
                          (2.6e-10, 1.8e-10)),
    ("constantin", 10.0): ((5.0e-5, 3.8e-5), (7.6e-6, 5.7e-6),
                           (7.4e-7, 5.6e-7)),
    ("example", 2.0): ((2.4e-8, 1.7e-8), (2.4e-9, 1.7e-9),
                       (2.6e-10, 1.9e-10)),
    ("example", 10.0): ((4.5e-5, 3.5e-5), (7.4e-6, 5.7e-6),
                        (1.8e-6, 1.4e-6)),
}


# constantin (a, r_max): bound on the distance of the stop radius at
# rel_tol 1e-10 from the reference's E = 0 crossing
_STOP_BOUNDS = {(5.0, 50.0): 3.1e-5, (10.0, 100.0): 2.5e-6}

# bounds on the per-step dissipation of constantin a = 10 (rel_tol 1e-10,
# r_max 100) against the reference from each stored node: the median
# relative error (measured 5.33e-12; 3.30e-12 when it was 5-point Gauss on
# the dense output), and the largest error over h max(beta^2)/r at the step's
# ends (measured 7.97e-10), which stays finite where beta passes 0
_DISS_MEDIAN_BOUND, _DISS_SCALED_BOUND = 5.4e-12, 8.0e-10


def _reference(model, a, r_max, **options):
    """scipy DOP853 at rtol 1e-13 from the package's Picard head to r_max."""
    f = model.f
    rs, psis, betas, _ = series_start(model, a, IntegrationConfig(r_max=r_max))
    ref = solve_ivp(lambda r, y: (y[1], -y[1] / r - f(y[0])),
                    (float(rs[-1]), r_max),
                    [float(psis[-1]), float(betas[-1])], method="DOP853",
                    rtol=1e-13, atol=1e-14, **options)
    assert ref.success
    return ref


@pytest.fixture(scope="module")
def errors(models):
    """(model, a) -> [(psi error, beta error) at each rel_tol in _RTOLS]."""
    out = {}
    for name, a in _BOUNDS:
        model = models[name]
        ref = _reference(model, a, 100.0, dense_output=True)
        out[name, a] = []
        for rel_tol in _RTOLS:
            traj = integrate(model, a, IntegrationConfig(r_max=100.0,
                                                         rel_tol=rel_tol))
            keep = traj.r >= 1.0
            psi_ref, beta_ref = ref.sol(traj.r[keep])
            out[name, a].append(
                (float(np.max(np.abs(psi_ref - traj.psi[keep]))),
                 float(np.max(np.abs(beta_ref - traj.beta[keep])))))
    return out


@pytest.mark.parametrize("key", sorted(_BOUNDS))
def test_global_error_within_bounds(errors, key):
    for got, bound in zip(errors[key], _BOUNDS[key]):
        assert got[0] <= bound[0] and got[1] <= bound[1], (got, bound)


@pytest.mark.parametrize("key", sorted(_BOUNDS))
def test_global_error_proportional_to_tolerance(errors, key):
    # each decade of rel_tol takes a factor 3 to 30 off both errors (the
    # plain r-stepper: 4.1 to 10.6)
    for coarse, fine in zip(errors[key], errors[key][1:]):
        for c, g in zip(coarse, fine):
            assert 3.0 <= c / g <= 30.0, (coarse, fine)


@pytest.mark.parametrize("a, r_max", sorted(_STOP_BOUNDS))
def test_stop_radius_against_reference(constantin, a, r_max):
    F = constantin.F

    def energy(r, y):
        return 0.5 * y[1] * y[1] + F(y[0])

    energy.terminal, energy.direction = True, -1.0
    ref = _reference(constantin, a, r_max, events=energy)
    traj = integrate(constantin, a, IntegrationConfig(
        r_max=r_max, rel_tol=1e-10, stop_at_zero_energy=True))
    assert traj.termination is Termination.EVENT
    error = abs(float(traj.r[-1]) - float(ref.t_events[0][0]))
    assert error <= _STOP_BOUNDS[a, r_max], error


def test_step_dissipation_against_reference(constantin, run10):
    # every stored step past the Picard head, the core's and the crossing
    # windows' alike, against the reference's quadrature component
    # D' = beta^2/r carried from the step's own stored node
    f = constantin.f

    def rhs(r, y):
        return (y[1], -y[1] / r - f(y[0]), y[1] * y[1] / r)

    r, psi, beta = run10.r, run10.psi, run10.beta
    first = int(np.count_nonzero(r <= IntegrationConfig(r_max=1.0).r_handoff))
    rel, scaled = [], []
    for i in range(first - 1, len(r) - 1):
        ref = solve_ivp(rhs, (float(r[i]), float(r[i + 1])),
                        [float(psi[i]), float(beta[i]), 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-14)
        assert ref.success
        err = abs(float(run10.dissipation[i]) - float(ref.y[2, -1]))
        rel.append(err / float(ref.y[2, -1]))
        scaled.append(err * float(r[i]) / (float(r[i + 1] - r[i]) * max(
            float(beta[i]) ** 2, float(beta[i + 1]) ** 2)))
    assert np.count_nonzero(psi == 0.0) == 9 and len(rel) > 500
    assert float(np.median(rel)) <= _DISS_MEDIAN_BOUND, np.median(rel)
    assert max(scaled) <= _DISS_SCALED_BOUND, max(scaled)
