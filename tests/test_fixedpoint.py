import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexplane import (InfeasibleConstantsError, ParameterDomainError,
                         banach_solve, beta_from_psi, integrate_backward,
                         picard_residual, picard_solve, rate_transform,
                         select_contraction_constants)
from vortexplane.fixedpoint import equilibrium_dichotomy_certificate

PHI_AT_3 = 44.0 * math.log(3.0) / (15.0 * math.log(3.0) + 2.0)


def test_rate_transform_at_three():
    assert math.isclose(rate_transform(3.0), PHI_AT_3, rel_tol=1e-15)
    assert math.isclose(rate_transform(3.0), 2.6158590031955273, rel_tol=1e-13)
    with pytest.raises(ParameterDomainError):
        rate_transform(1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.001, max_value=2.99),
       st.floats(min_value=1e-4, max_value=0.01))
def test_rate_transform_monotone(lam, step):
    assert rate_transform(lam + step) > rate_transform(lam)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0 + 1e-6, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_exponential_comparison_lemma(lam, frac):
    # e^x <= 1 + lam x on [0, ln lam]; the contraction estimates lean on it
    x = frac * math.log(lam)
    assert math.exp(x) <= 1.0 + lam * x + 1e-12


def test_contraction_constants_frozen():
    c = select_contraction_constants(6.0, 1.0 + math.sqrt(2.0))
    assert math.isclose(c.lam_star, 1.8590744488388173, rel_tol=1e-12)
    assert math.isclose(c.lam_mid, 2.4295372244194087, rel_tol=1e-12)
    assert math.isclose(c.k_lo, 7.715531194871134, rel_tol=1e-12)
    assert math.isclose(c.k_hi, 10.577913515689904, rel_tol=1e-12)
    assert math.isclose(c.k, 9.034058982924256, rel_tol=1e-12)
    assert math.isclose(c.zeta, 0.8540492384934236, rel_tol=1e-12)
    assert c.zeta < 1.0


def test_contraction_constants_identities():
    c = select_contraction_constants(6.0, 2.5)
    assert math.isclose(rate_transform(c.lam_star), c.L, rel_tol=1e-10)
    assert math.isclose(c.lam_mid, 0.5 * (c.lam_star + 3.0), rel_tol=1e-15)
    mll = c.lam_mid * math.log(c.lam_mid)
    assert math.isclose(c.k_lo, max(mll, c.L * (1.25 * mll + 0.5)),
                        rel_tol=1e-15)
    assert math.isclose(
        c.k_hi, (c.T + math.sqrt(c.T * c.T - 1.0)) * math.log(c.lam_mid),
        rel_tol=1e-15)
    assert math.isclose(c.k, math.sqrt(c.k_lo * c.k_hi), rel_tol=1e-15)
    assert math.isclose(c.zeta, c.k_lo / c.k, rel_tol=1e-15)


def test_contraction_constants_domain():
    with pytest.raises(ParameterDomainError):
        select_contraction_constants(5.0, 2.0)
    with pytest.raises(InfeasibleConstantsError):
        select_contraction_constants(6.0, PHI_AT_3)
    with pytest.raises(InfeasibleConstantsError):
        select_contraction_constants(6.0, 2.61586)
    # below rate_transform(1 + 1e-12) ~ 2.2e-11 the lambda* bracket holds
    # no root
    with pytest.raises(InfeasibleConstantsError):
        select_contraction_constants(6.0, 1e-13)


def test_picard_residual_small(constantin):
    grid = picard_solve(constantin, 2.0, r_end=1.0, n=1 << 15)
    assert picard_residual(constantin, grid) < 1e-8
    assert grid.values[0] == 2.0


def test_picard_ball_containment(constantin):
    a = 10.0
    grid = picard_solve(constantin, a, r_end=1.0, n=1 << 14)
    eta = constantin.ledger.eta
    assert float(np.max(np.abs(grid.values - a))) <= eta * a / 4.0
    assert float(np.min(grid.values)) >= a / 8.0


def test_picard_matches_integrator(constantin, run10, state_at):
    grid = picard_solve(constantin, 10.0, r_end=1.0, n=1 << 17)
    psi1, beta1 = state_at(run10, 1.0)
    assert abs(float(grid.values[-1]) - psi1) < 1e-8
    slope = beta_from_psi(constantin, grid)
    assert abs(float(slope.values[-1]) - beta1) < 1e-6


def test_picard_domain_guards(constantin):
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 0.5)
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 2.0, r_end=1.5)
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 2.0, n=4)


def test_banach_equilibrium_probe(constantin):
    psi_g, beta_g, factor = banach_solve(constantin, 6.0, 1.0, 0.0)
    assert float(np.max(np.abs(psi_g.values - 1.0))) < 1e-8
    assert float(np.max(np.abs(beta_g.values))) < 1e-8
    c = select_contraction_constants()
    assert factor <= c.zeta


def test_banach_matches_backward_integration(constantin, state_at):
    psi_g, beta_g, factor = banach_solve(constantin, 6.0, 2.0, 0.1)
    assert math.isclose(factor, 0.04186091098154562, rel_tol=1e-9)
    bw = integrate_backward(constantin, 6.0, 2.0, 0.1)
    for r in np.linspace(float(bw.r[0]) + 1e-9, 6.0, 40):
        psi_b, beta_b = state_at(bw, float(r))
        assert abs(float(np.interp(r, psi_g.r, psi_g.values)) - psi_b) < 1e-6
        assert abs(float(np.interp(r, beta_g.r, beta_g.values)) - beta_b) \
            < 1e-6


def test_banach_anchor_guards(constantin):
    with pytest.raises(ParameterDomainError):
        banach_solve(constantin, 6.0, 0.5, 0.0)
    eta = constantin.ledger.eta
    with pytest.raises(ParameterDomainError):
        banach_solve(constantin, 6.0, 2.0, eta * 2.0 / 8.0 + 0.01)


@pytest.mark.parametrize("T, psi_T, beta_T", [
    (math.inf, 2.0, 0.1), (math.nan, 2.0, 0.1), (6.0, math.nan, 0.0),
    (6.0, math.inf, 0.0), (6.0, 2.0, math.nan), (6.0, 2.0, -math.inf)])
def test_non_finite_anchor_rejected(constantin, T, psi_T, beta_T):
    # before the up-front check T = inf gave zeta = 0 and a NaN anchor ran
    # all 400 sweeps before failing
    if not math.isfinite(T):
        with pytest.raises(ParameterDomainError):
            select_contraction_constants(T=T)
    with pytest.raises(ParameterDomainError):
        banach_solve(constantin, T, psi_T, beta_T)


def test_equilibrium_dichotomy(constantin):
    cert = equilibrium_dichotomy_certificate(constantin)
    assert cert.ok
    assert cert.contraction_factor <= cert.zeta
    assert cert.backward_psi_dev <= cert.tolerance
    assert cert.forward_beta_dev <= cert.tolerance
