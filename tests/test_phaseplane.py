import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexplane import (ParameterDomainError, energy, energy_rate,
                         energy_second, level_set_geometry, theta_envelope,
                         to_polar)
from vortexplane.errors import NotDifferentiableError, OriginReachedSignal
from vortexplane.phaseplane import PhasePoint, energy_third, scaled_lobe_peak

nice = st.floats(min_value=-20.0, max_value=20.0,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(nice, nice)
def test_energy_definition(constantin, psi, beta):
    pt = PhasePoint(psi, beta)
    expected = 0.5 * beta * beta + constantin.F(psi)
    assert math.isclose(energy(constantin, pt), expected,
                        rel_tol=1e-14, abs_tol=1e-14)


@settings(max_examples=100, deadline=None)
@given(nice, st.floats(min_value=0.1, max_value=50.0))
def test_energy_rate(constantin, beta, r):
    pt = PhasePoint(1.0, beta)
    assert math.isclose(energy_rate(pt, r), -beta * beta / r,
                        rel_tol=1e-14, abs_tol=1e-300)


def test_energy_second_matches_difference_quotient(constantin):
    # advance the state with a fine RK4 step and difference E'(r)
    def rhs(r, y):
        return np.array([y[1], -y[1] / r - constantin.f(y[0])])

    r0, y = 2.0, np.array([1.7, -0.9])
    h = 1e-5

    def de(r, y):
        return -y[1] * y[1] / r

    def rk4(r, y, h):
        k1 = rhs(r, y)
        k2 = rhs(r + h / 2, y + h / 2 * k1)
        k3 = rhs(r + h / 2, y + h / 2 * k2)
        k4 = rhs(r + h, y + h * k3)
        return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    fwd = rk4(r0, y, h)
    bwd = rk4(r0, y, -h)
    numeric = (de(r0 + h, fwd) - de(r0 - h, bwd)) / (2 * h)
    analytic = energy_second(constantin, PhasePoint(*y), r0)
    assert math.isclose(numeric, analytic, rel_tol=1e-7, abs_tol=1e-9)


def test_energy_third_sign_structure(constantin):
    # away from the kink both derivatives evaluate and E'' has the stated
    # decomposition 3 beta^2/r^2 + 2 beta f/r
    point = PhasePoint(1.5, -0.4)
    second = energy_second(constantin, point, 3.0)
    third = energy_third(constantin, point, 3.0)
    expected = 3.0 * 0.16 / 9.0 + 2.0 * (-0.4) * constantin.f(1.5) / 3.0
    assert math.isclose(second, expected, rel_tol=1e-12)
    assert math.isfinite(third)


def test_energy_third_kink_guard(constantin):
    with pytest.raises(NotDifferentiableError):
        energy_third(constantin, PhasePoint(1e-9, 0.5), 2.0)


@settings(max_examples=200, deadline=None)
@given(nice, nice)
def test_to_polar_round_trip(psi, beta):
    if abs(psi) < 1e-12 and abs(beta) < 1e-12:
        return
    pt = to_polar(PhasePoint(psi, beta))
    assert math.isclose(pt.radius * math.cos(pt.angle), psi,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(pt.radius * math.sin(pt.angle), beta,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_to_polar_unwrap_spiral():
    # three full clockwise turns unwrap continuously, no 2 pi jumps
    true_theta = np.linspace(0.0, -6.0 * math.pi, 500)
    prev = None
    for th in true_theta:
        pt = to_polar(PhasePoint(math.cos(th), math.sin(th)), prev)
        assert abs(pt.angle - th) < 1e-9
        prev = pt.angle


def test_to_polar_origin_signal():
    with pytest.raises(OriginReachedSignal):
        to_polar(PhasePoint(0.0, 0.0))


def test_theta_envelope_values():
    lo, hi = theta_envelope(0.75, 2.0)
    assert math.isclose(lo, -1.25, rel_tol=1e-15)
    assert math.isclose(hi, 0.0, abs_tol=1e-15)
    lo, hi = theta_envelope(0.75, np.array([1.0, 2.0]))
    assert lo.tolist() == [-1.5, -1.25] and hi.tolist() == [0.25, 0.0]
    for r in (0.5, math.nan, np.array([2.0, 0.5])):
        with pytest.raises(ParameterDomainError):
            theta_envelope(0.75, r)
    with pytest.raises(ParameterDomainError):
        theta_envelope(1.5, 2.0)


def test_level_set_geometry(constantin):
    geo = level_set_geometry(constantin)
    assert abs(geo.psi_plus - 16.0 / 9.0) < 1e-9
    # single positive root of F, so both markers land on it
    assert abs(geo.psi_minus - geo.psi_plus) < 1e-9
    # tip of the right lobe: psi(beta) = 16/9 - (9/8) beta^2 + O(beta^4)
    assert abs(geo.peak_curvature - 2.25) < 1e-4
    # widest beta extent sits at psi = 1 with beta = 1/sqrt(3)
    assert abs(float(np.max(geo.beta_grid)) - 1.0 / math.sqrt(3.0)) < 1e-3
    # every grid point satisfies E = 0
    for psi, beta in zip(geo.psi_grid[::100], geo.beta_grid[::100]):
        assert abs(0.5 * beta * beta + constantin.F(psi)) < 1e-9


def test_scaled_lobe_peak():
    assert math.isclose(scaled_lobe_peak(0.0), 16.0 / 9.0, rel_tol=1e-15)
    assert scaled_lobe_peak(0.05) > 16.0 / 9.0
