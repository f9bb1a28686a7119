import math
from dataclasses import replace

import numpy as np
import pytest

from vortexplane import (HypothesisViolationError, ParameterDomainError,
                         level_set_geometry, phaseplane, theta_envelope)
from vortexplane.phaseplane import scaled_lobe_peak


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
    # tip of the right lobe: psi(beta) = 16/9 - (9/8) beta^2 + O(beta^4)
    assert geo.peak_curvature == 1.0 / constantin.f(geo.psi_plus)
    assert abs(geo.peak_curvature - 2.25) <= 1e-12
    # widest beta extent sits at psi = 1 with beta = 1/sqrt(3)
    assert abs(float(np.max(geo.beta_grid)) - 1.0 / math.sqrt(3.0)) < 1e-3


def test_level_set_grid_on_zero_energy(models):
    # every grid point satisfies E = 0, in every family
    for model in models.values():
        geo = level_set_geometry(model)
        for psi, beta in zip(geo.psi_grid[::100], geo.beta_grid[::100]):
            assert abs(0.5 * beta * beta + model.F(psi)) < 1e-9


def test_level_set_geometry_needs_sign_change(constantin):
    # an F < 0 everywhere has no lobe end on [u0, 16]
    with pytest.raises(HypothesisViolationError):
        level_set_geometry(replace(constantin, F=lambda p: -1.0))


def test_scaled_lobe_peak():
    assert math.isclose(scaled_lobe_peak(0.0), 16.0 / 9.0, rel_tol=1e-15)
    assert scaled_lobe_peak(0.05) > 16.0 / 9.0


def test_level_set_geometry_newton_calls(models, monkeypatch):
    # the lobe's roots cost a few scalar F calls each; the grids go through
    # potential_grid and are not counted
    inside = []
    grid = phaseplane.potential_grid

    def counted_grid(model, psis):
        inside.append(True)
        try:
            return grid(model, psis)
        finally:
            inside.pop()

    monkeypatch.setattr(phaseplane, "potential_grid", counted_grid)
    for model in models.values():
        calls = []

        def F(psi, F=model.F):
            if not inside:
                calls.append(psi)
            return F(psi)

        geo = level_set_geometry(replace(model, F=F))
        assert geo.psi_plus == level_set_geometry(model).psi_plus
        assert 0 < len(calls) <= 30
