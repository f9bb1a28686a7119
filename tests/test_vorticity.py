import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from vortexplane import (C2_UPPER_BOUND, ParameterDomainError,
                         constantin_model, example_model, find_positive_zero,
                         level_set_geometry, make_model,
                         potential_by_quadrature, power_law_model)
from vortexplane.search import bisect_root
from vortexplane.sequences import sample_loglin
from vortexplane.vorticity import adaptive_simpson
from vortexplane.vorticity import potential_grid

finite_u = st.floats(min_value=-50.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False)

_MODELS = (constantin_model(), example_model(0.02), power_law_model(0.3))


def test_positive_zero_all_models(constantin, example, powerlaw):
    for model in (constantin, example, powerlaw):
        assert abs(find_positive_zero(model) - 1.0) <= 1e-9
        assert model.ledger.u0 == 1.0


@settings(max_examples=200, deadline=None)
@given(finite_u)
def test_oddness(u):
    for model in _MODELS:
        assert math.isclose(model.f(-u), -model.f(u),
                            rel_tol=1e-12, abs_tol=1e-300)


@settings(max_examples=200, deadline=None)
@given(finite_u)
def test_decomposition(u):
    # f(u) = u - g(u) with g odd and u g(u) >= 0, for f_arr and the scalar f
    for model in _MODELS:
        g, g_neg = model.g_arr(np.array([u, -u])).tolist()
        for fu in (float(model.f_arr(np.array([u]))[0]), model.f(u)):
            assert math.isclose(fu, u - g, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(g_neg, -g, rel_tol=1e-12, abs_tol=1e-300)
        assert u * g >= 0.0


def test_parameter_bound_exact_value():
    exact = (3.0 - 2.0 * math.sqrt(2.0)) / (4.0 + 3.0 * math.sqrt(2.0))
    assert C2_UPPER_BOUND == exact
    assert 0.0208 < C2_UPPER_BOUND < 0.0209


@pytest.mark.parametrize("c2", [0.0, -0.01, 0.0209, 0.1])
def test_example_rejects_bad_c2(c2):
    with pytest.raises(ParameterDomainError):
        example_model(c2)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
def test_power_law_rejects_bad_alpha(alpha):
    with pytest.raises(ParameterDomainError):
        power_law_model(alpha)


def test_constantin_potential_closed_form(constantin):
    assert abs(constantin.F(1.0) + 1.0 / 6.0) < 1e-15
    for psi in (0.5, 1.0, 16.0 / 9.0, 3.0, 10.0):
        closed = constantin.F(psi)
        expected = 0.5 * psi * psi - (2.0 / 3.0) * psi ** 1.5
        assert math.isclose(closed, expected, rel_tol=1e-14, abs_tol=1e-14)
        assert abs(potential_by_quadrature(constantin, psi) - closed) < 1e-10


def test_example_potential_frozen_value(example):
    # independent adaptive quadrature agrees with the model's accumulator
    assert abs(example.F(1.0) - (-0.16974983195210164)) < 1e-9
    assert abs(potential_by_quadrature(example, 1.0) - example.F(1.0)) < 1e-9


def test_power_law_potential(powerlaw):
    for psi in (0.5, 1.0, 2.0, 8.0):
        expected = 0.5 * psi * psi - psi ** 1.3 / 1.3
        assert math.isclose(powerlaw.F(psi), expected,
                            rel_tol=1e-13, abs_tol=1e-13)
        assert abs(potential_by_quadrature(powerlaw, psi)
                   - powerlaw.F(psi)) < 1e-10


def test_potential_even():
    for model in _MODELS:
        for psi in (0.3, 1.0, 2.5):
            assert math.isclose(model.F(-psi), model.F(psi), rel_tol=1e-12)


def test_ledgers(constantin, example, powerlaw):
    c = constantin.ledger
    assert (c.eta, c.L, c.lambda_g, c.c, c.nu) == (
        28.0 / 9.0, 1.0 + math.sqrt(2.0), 0.75, 0.0, 0.5)
    e = example.ledger
    assert e.eta == 10.0 / 3.0
    assert e.L == 2.5
    assert e.c == 0.01
    assert e.nu == 0.5
    expected_lam = 0.75 / (1.0 + math.sin(0.01) - math.sin(0.02))
    assert math.isclose(e.lambda_g, expected_lam, rel_tol=1e-14)
    p = powerlaw.ledger
    assert p.eta == 28.0 / 9.0
    assert math.isclose(p.L, 1.0 + 0.3 * (2.0 / 9.0) ** (0.3 - 1.0),
                        rel_tol=1e-14)
    assert p.lambda_g == (1.0 + 0.3) / 2.0
    assert p.nu == 1.0 - 0.3


def test_make_model_dispatch():
    assert make_model("constantin").model_id == "constantin"
    assert make_model("example").ledger.params["c2"] == 0.02
    assert make_model("example", c2=0.01).ledger.params["c2"] == 0.01
    assert make_model("powerlaw").ledger.params["alpha"] == 0.5
    with pytest.raises(ParameterDomainError):
        make_model("unknown")


@pytest.mark.parametrize("model_id, params", [
    ("constantin", {"c2": 0.02}), ("constantin", {"alpha": 0.3}),
    ("example", {"alpha": 0.3}), ("powerlaw", {"c2": 0.02}),
    ("example", {"c2": 0.02, "alpha": 0.3}),
])
def test_make_model_rejects_a_foreign_parameter(model_id, params):
    with pytest.raises(ParameterDomainError, match="applies to the"):
        make_model(model_id, **params)


def test_potential_grid_matches_pointwise():
    psis = np.linspace(0.0, 3.0, 21)
    for model in _MODELS:
        grid = potential_grid(model, psis)
        point = np.array([model.F(float(p)) for p in psis])
        assert np.max(np.abs(grid - point)) < 1e-9


@pytest.mark.parametrize("psis", [[], np.zeros((2, 2))])
def test_potential_grid_rejects_empty_or_2d(psis):
    with pytest.raises(ParameterDomainError):
        potential_grid(_MODELS[0], psis)


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.model_id)
def test_nan_input_is_rejected(model):
    # f and F reject every non-finite input in every family; f, six calls
    # per step, does it in its sign tests, which only finite values pass
    for fn in (model.f, model.F):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterDomainError, match="finite"):
                fn(bad)
    for fn in (model.f, model.F):
        for zero in (0.0, -0.0):
            assert fn(zero) == 0.0


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.model_id)
def test_potential_refuses_psi_without_finite_square(model):
    # F is psi^2/2 less a sublinear integral, so it is finite exactly where
    # psi^2/2 is; each entry point refuses any other psi before an f or
    # F_arr call (the quadrature used to recurse to depth 48 at 1e160)
    calls = []

    def counted(fn):
        return lambda u: calls.append(fn) or fn(u)

    spy = dataclasses.replace(model, f=counted(model.f),
                              F_arr=counted(model.F_arr))
    for psi in (1e300, -2e154, 1e160, math.nan, math.inf, -math.inf):
        for run in (lambda: spy.F(psi),
                    lambda: potential_grid(spy, np.array([1.0, psi])),
                    lambda: potential_by_quadrature(spy, psi)):
            with pytest.raises(ParameterDomainError, match="finite psi"):
                run()
    assert calls == []
    for psi in (1.5e154, -1.5e154):
        value = model.F(psi)
        assert math.isfinite(value)
        assert potential_grid(model, np.array([psi])).tolist() == [value]
        assert math.isclose(potential_by_quadrature(model, psi), value,
                            rel_tol=1e-12)


def test_example_finite_past_square_overflow(example):
    # u * u overflows past |u| ~ 1.34e154, where the modulation used to
    # become inf / inf; below that f keeps the bits of its inline form, past
    # 1e154 it takes the modulation's limit 1 + c1 - sin(c2)
    c1, c2 = math.sin(0.01), 0.02
    for u in (1e150, 1e154, 1.3e154):
        uu = u * u
        mod = 1.0 + c1 - math.sin(c2 * uu / (uu + 1.0))
        assert example.f(u) == u - math.sqrt(u) * mod
        assert example.f(-u) == -u + math.sqrt(u) * mod
    limit = 1.0 + c1 - math.sin(c2)
    for u in (1.5e154, 1e155, 1e200, 1e308):
        assert math.isfinite(example.f(u))
        assert example.f(u) == u - math.sqrt(u) * limit
        assert example.f(-u) == -u + math.sqrt(u) * limit
    with np.errstate(over="ignore"):
        values = example.f_arr(np.array([1e200, -1e200, 1e154, 2.0]))
    assert np.all(np.isfinite(values))
    assert values[3] == example.f(2.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterDomainError, match="finite"):
            example.f(bad)


# ------------------------------------------- Gauss-Legendre example potential

_C2S = (1e-3, 0.02, 0.999 * C2_UPPER_BOUND)


@pytest.mark.parametrize("c2", _C2S)
def test_example_potential_matches_oracle(c2):
    # oracle: adaptive Simpson of f itself, substituted to u = t^2 so the
    # integrand 2 t f(t^2) is smooth, far tighter than the bound checked
    model = example_model(c2)
    for x in np.logspace(-3.0, 4.0, 200).tolist():
        scale = max(1.0, 0.5 * x * x)
        oracle = adaptive_simpson(lambda t: 2.0 * t * model.f(t * t), 0.0,
                                  math.sqrt(x), 1e-14 * scale)
        assert abs(model.F(x) - oracle) <= 1e-12 * scale, x


@pytest.mark.parametrize("c2", _C2S)
def test_example_potential_continuous_at_panel_joins(c2):
    # sqrt(x) = 1 and 2 switch panels; the neighbouring floats must agree
    # to the slope times their spacing plus a few ulps
    model = example_model(c2)
    for x in (1.0, 4.0):
        lo, hi = math.nextafter(x, 0.0), math.nextafter(x, 8.0)
        slack = abs(model.f(x)) * (hi - lo) + 4.0 * np.finfo(float).eps
        assert abs(model.F(hi) - model.F(lo)) <= slack
        assert abs(model.F(x) - model.F(lo)) <= slack
        assert abs(model.F(hi) - model.F(x)) <= slack


@pytest.mark.parametrize("c2", _C2S)
def test_example_potential_derivative_is_f(c2):
    model = example_model(c2)
    for x in (0.3, 1.5, 3.0, 10.0, 50.0):
        h = 1e-4 * x
        slope = (model.F(x + h) - model.F(x - h)) / (2.0 * h)
        assert abs(slope - model.f(x)) <= 1e-7 * max(1.0, abs(model.f(x)))


def test_potential_grid_maps_F_bit_for_bit():
    # F is even and defined on every finite psi, so any order and sign works
    grids = (np.linspace(0.0, 50.0, 201), np.linspace(50.0, 0.0, 201),
             np.linspace(-50.0, 3.0, 201))
    for psis in grids:
        for model in _MODELS:
            point = np.array([model.F(float(p)) for p in psis])
            assert potential_grid(model, psis).tobytes() == point.tobytes()


_ARRAY_F_MODELS = (
    [constantin_model()]
    + [example_model(c2) for c2 in (1e-4, 0.01, 0.02, 0.0208)]
    + [power_law_model(alpha) for alpha in (0.03, 0.3, 0.5, 0.97)])


@pytest.mark.parametrize("model", _ARRAY_F_MODELS,
                         ids=lambda m: "_".join([m.model_id] + [
                             f"{v:g}" for v in m.ledger.params.values()]))
def test_potential_grid_array_F_bit_for_bit(model):
    # the grids level_set_geometry, check_lambda and
    # check_level_set_sandwich pass, the old 1,999-probe scan, the
    # benchmark's audit grid, both signed zeros and a signed sample of
    # magnitudes 1e-300 .. 1e150
    psi_plus = level_set_geometry(model).psi_plus
    rng = np.random.default_rng(0)
    wide = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(
        -300.0, 150.0, 20_000)
    grids = (np.linspace(0.0, 16.0, 2000)[1:], np.linspace(0.0, psi_plus, 1024),
             sample_loglin(1000, 1e-3, 1e3, seed=0), np.linspace(-4.0, 4.0, 200),
             np.linspace(0.0, 50.0, 201), rng.uniform(-1e3, 1e3, 20_000), wide,
             np.array([0.0, -0.0, 1.0, -1.0, 4.0, -4.0]))
    for psis in grids:
        point = np.array([model.F(p) for p in psis.tolist()])
        assert potential_grid(model, psis).tobytes() == point.tobytes()


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.model_id)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_potential_grid_rejects_non_finite(model, bad):
    with pytest.raises(ParameterDomainError, match="finite"):
        potential_grid(model, np.array([0.5, bad, 2.0]))


# ------------------------------------------------ the zero scan and f'

def _scalar_zero_scan(model):
    # the scan one scalar f call per probe made before the f_arr pass
    us = [2.0 * (k + 1) / 200 for k in range(200)]
    vals = [model.f(u) for u in us]
    for u, v in zip(us, vals):
        if v == 0.0:
            return u
    for j in range(len(us) - 1):
        if vals[j] * vals[j + 1] < 0.0:
            return bisect_root(model.f, us[j], us[j + 1], vals[j], 1e-13)
    raise AssertionError("no zero on the probes")


def _with_f(model, f, f_arr):
    return dataclasses.replace(model, f=f, f_arr=f_arr)


_ZERO_MODELS = (
    [constantin_model()]
    + [example_model(c2) for c2 in (1e-9, 1e-4, 0.005, 0.01, 0.02, 0.0208,
                                    math.nextafter(C2_UPPER_BOUND, 0.0))]
    + [power_law_model(al) for al in (1e-3, 0.1, 0.3, 0.5, 0.9, 0.97,
                                      0.999)]
    # a zero between the probes 1.0 and 1.01, and an exact zero at the
    # probe 1.0 behind a sign change between 0.30 and 0.31
    + [_with_f(constantin_model(), lambda u: u - math.sqrt(1.005 * u),
               lambda u: u - np.sqrt(1.005 * u)),
       _with_f(constantin_model(), lambda u: (u - 0.303) * (u - 1.0),
               lambda u: (u - 0.303) * (u - 1.0))])


@pytest.mark.parametrize("model", _ZERO_MODELS,
                         ids=lambda m: repr(m.ledger.params or m.model_id))
def test_zero_scan_keeps_the_scalar_bits(model):
    root = find_positive_zero(model)
    assert type(root) is float
    assert root == _scalar_zero_scan(model)


def test_zero_between_probes():
    model = _ZERO_MODELS[-2]
    root = find_positive_zero(model)
    assert 1.0 < root < 1.01
    assert abs(root - 1.005) <= 1e-12
    assert find_positive_zero(_ZERO_MODELS[-1]) == 1.0


def _mp_f(ctx, model):
    """f on u > 0 in mpmath's context ctx (mp or iv)."""
    if model.model_id == "constantin":
        return lambda u: u - ctx.sqrt(u)
    if model.model_id == "powerlaw":
        alpha = ctx.mpf(model.ledger.params["alpha"])
        return lambda u: u - u ** alpha
    c2 = ctx.mpf(model.ledger.params["c2"])
    return lambda u: u - ctx.sqrt(u) * (1 + ctx.sin(c2 / 2)
                                        - ctx.sin(c2 * u * u / (u * u + 1)))


def _u32_f2(ctx, model):
    """u^(3/2) f''(u) on u > 0 as each constructor's docstring writes it."""
    if model.model_id == "constantin":
        return lambda u: ctx.mpf(1) / 4
    if model.model_id == "powerlaw":
        alpha = ctx.mpf(model.ledger.params["alpha"])
        return lambda u: alpha * (1 - alpha) * u ** (alpha - ctx.mpf(0.5))
    c2 = ctx.mpf(model.ledger.params["c2"])

    def value(u):
        uu = u * u
        d = uu + 1
        x = c2 * uu / d
        dx = 2 * c2 * u / (d * d)
        ddx = 2 * c2 * (1 - 3 * uu) / (d * d * d)
        m = 1 + ctx.sin(c2 / 2) - ctx.sin(x)
        dm = -ctx.cos(x) * dx
        ddm = ctx.sin(x) * dx * dx - ctx.cos(x) * ddx
        return m / 4 - u * dm - uu * ddm
    return value


# each family at the ends of its parameter range
_EXTREME_MODELS = (constantin_model(), example_model(1e-9),
                   example_model(math.nextafter(C2_UPPER_BOUND, 0.0)),
                   power_law_model(1e-3), power_law_model(0.999))


@pytest.mark.parametrize("model", _EXTREME_MODELS,
                         ids=lambda m: repr(m.ledger.params or m.model_id))
def test_df_is_the_derivative_of_f(model):
    # 33 points of [1e-8, 1e8] and, for the modulated family, three past
    # _BIG, where f and df take the modulation's limit; f'' against the
    # formula the convexity proofs bound (and, for the modulated family,
    # above the 0.21 its docstring proves)
    us = list(np.geomspace(1e-8, 1e8, 33))
    if model.model_id == "example":
        us += [1e154, 1e200, 1e300]
    f, u32_f2 = _mp_f(mp, model), _u32_f2(mp, model)
    with mp.workdps(60):
        for u in map(mp.mpf, us):
            exact = mp.diff(f, u, h=u * mp.mpf("1e-25"))
            assert abs(model.df(float(u)) - exact) <= 1e-14 * (1 + abs(exact))
            if u < 1e154:
                f2 = mp.diff(f, u, 2, h=u * mp.mpf("1e-15"))
                assert mp.almosteq(f2 * u ** 1.5, u32_f2(u), 1e-25, 1e-40)
                if model.model_id == "example":
                    assert u32_f2(u) > 0.21


@pytest.mark.parametrize("model", _EXTREME_MODELS,
                         ids=lambda m: repr(m.ledger.params or m.model_id))
def test_f_is_convex_on_enclosures(model):
    # u^(3/2) f'' enclosed on each of 160 log-spaced pieces of [1e-8, 1e8]
    # has a positive lower end
    value = _u32_f2(iv, model)
    ends = np.geomspace(1e-8, 1e8, 161)
    dps, iv.dps = iv.dps, 20
    try:
        for lo, hi in zip(ends[:-1], ends[1:]):
            assert value(iv.mpf([float(lo), float(hi)])).a > 0
    finally:
        iv.dps = dps


@pytest.mark.parametrize("u", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.model_id)
def test_df_refuses_u_outside_the_positive_axis(model, u):
    with pytest.raises(ParameterDomainError):
        model.df(u)
