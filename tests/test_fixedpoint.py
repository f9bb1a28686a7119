import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexplane import (FixedPointFailureError, InfeasibleConstantsError,
                         ParameterDomainError, banach_solve,
                         integrate_backward, picard_residual, picard_solve,
                         rate_transform, select_contraction_constants)
from vortexplane import fixedpoint
from vortexplane.fixedpoint import (_collocation,
                                    equilibrium_dichotomy_certificate,
                                    picard_head)
from vortexplane.integrator import IntegrationConfig, series_start

PHI_AT_3 = 44.0 * math.log(3.0) / (15.0 * math.log(3.0) + 2.0)


def test_rate_transform_at_three():
    assert math.isclose(rate_transform(3.0), PHI_AT_3, rel_tol=1e-15)
    assert math.isclose(rate_transform(3.0), 2.6158590031955273, rel_tol=1e-13)
    with pytest.raises(ParameterDomainError):
        rate_transform(1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_rate_transform_refuses_non_finite(lam):
    # log(inf) / (15 log(inf) + 2) and a nan lambda both give nan
    with pytest.raises(ParameterDomainError):
        rate_transform(lam)


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


def _exhausted_bracket(L):
    """lam_star after 200 plain halvings of [1 + 1e-12, 3] on the predicate
    rate_transform >= L."""
    lo, hi = fixedpoint._LAM_LO, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_transform(mid) >= L:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_LAM_GRID = [1.0 + math.sqrt(2.0), 2.5, 1.0, 2.6] + np.linspace(
    rate_transform(fixedpoint._LAM_LO) * 1.01, PHI_AT_3 * 0.999, 200).tolist()


def test_lam_star_is_the_exhausted_bracket():
    # bisect_root stops where the bracket [1 + 1e-12, 3] stalls on adjacent
    # doubles and leaves the lam_star of 200 halvings
    for L in _LAM_GRID:
        assert select_contraction_constants(6.0, L).lam_star == (
            _exhausted_bracket(L))


def test_contraction_constants_stop_on_a_stalled_bracket(monkeypatch):
    # the range check and at most 54 halvings before the bracket stalls
    calls = [0]

    def counted(lam):
        calls[0] += 1
        return rate_transform(lam)

    monkeypatch.setattr(fixedpoint, "rate_transform", counted)
    for L in _LAM_GRID:
        calls[0] = 0
        select_contraction_constants(6.0, L)
        assert 0 < calls[0] <= 55, L


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
    # T^2 overflows: k_hi and k were inf and zeta 0.0
    with pytest.raises(ParameterDomainError, match="T\\^2 finite"):
        select_contraction_constants(1e200)


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
    slope = picard_head(constantin, 10.0, 1.0, 1e-13)[2]
    assert abs(float(slope[-1]) - beta1) < 1e-6


def test_picard_domain_guards(constantin):
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 0.5)
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 2.0, r_end=1.5)
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 2.0, n=4)


@pytest.mark.parametrize("a", [6e307, 1e308])
def test_picard_refuses_an_overflowing_ball(constantin, a):
    # at 6e307 the bound eta a overflows, at 1e308 the ball end as well;
    # without the ball-centre check both ran a full sweep budget on NaN
    with pytest.raises(ParameterDomainError, match="finite ball end"):
        picard_solve(constantin, a, r_end=1.0, n=1 << 17)


def _nan_model(model, calls):
    def f_arr(u):
        calls.append(len(u))
        return np.full_like(u, np.nan)
    return replace(model, f_arr=f_arr)


def test_nan_iterate_leaves_the_ball_on_its_first_sweep(constantin):
    # a NaN compares false, so it ran every sweep of the budget and was
    # reported as no convergence
    calls = []
    with pytest.raises(FixedPointFailureError,
                       match="left the ball: \\|psi - a\\| reached nan"):
        picard_solve(_nan_model(constantin, calls), 2.0)
    assert calls == [33]
    calls.clear()
    with pytest.raises(FixedPointFailureError,
                       match="left the domain: .* \\|beta\\|=nan"):
        banach_solve(_nan_model(constantin, calls), 6.0, 2.0, 0.1)
    assert calls == [2049]


def test_picard_sweeps_in_place(constantin):
    # the result is the 33 collocation nodes: a solve asked for n = 2^17
    # builds no (n + 1)-node grid (sampling one peaked at 1.8 grids or more)
    n = 1 << 17
    tracemalloc.start()
    try:
        picard_solve(constantin, 10.0, r_end=1.0, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * 8


def test_picard_sweeps_in_place_on_a_cached_grid(constantin):
    # once the collocation matrices are cached a repeated solve still makes
    # no (n + 1)-node array
    n = 1 << 17
    picard_solve(constantin, 10.0, r_end=1.0, n=n)
    tracemalloc.start()
    try:
        picard_solve(constantin, 10.0, r_end=1.0, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * 8


def _collocation_sweeps(model, a, count):
    # the first count iterates of picard_solve on [0, 1] at its nodes
    iterates = [np.full(33, a)]
    for _ in range(count):
        iterates.append(a - np.einsum('ij,j->i', _collocation()[1],
                                      model.f_arr(iterates[-1])))
    return iterates


def test_picard_ball_escape_message(constantin):
    tiny = replace(constantin, ledger=replace(constantin.ledger, eta=1e-6))
    with pytest.raises(FixedPointFailureError) as got:
        picard_solve(tiny, 10.0, r_end=1.0, n=1 << 14)
    dev = float(np.max(np.abs(_collocation_sweeps(tiny, 10.0, 1)[1] - 10.0)))
    assert str(got.value) == (f"iterate left the ball: |psi - a| reached "
                              f"{dev!r} against radius {1e-6 * 10.0 / 4.0!r}")


def test_picard_budget_exhausted_message(constantin):
    with pytest.raises(FixedPointFailureError) as got:
        picard_solve(constantin, 10.0, r_end=1.0, n=1 << 14, max_iter=2)
    _, first, second = _collocation_sweeps(constantin, 10.0, 2)
    change = float(np.max(np.abs(second - first)))
    assert str(got.value) == (
        f"no convergence within 2 sweeps (last change {change!r})")


def test_equilibrium_start_is_exact(constantin):
    # psi = a = u0 is the fixed point: the one sweep changes nothing
    grid = picard_solve(constantin, 1.0, r_end=1.0, n=1 << 17)
    assert (grid.sweeps, grid.last_change) == (1, 0.0)
    assert np.all(grid.values == 1.0)


# psi(1) of the short-range fixed point on [0, 1] by Richardson
# extrapolation, (4 g17 - g16) / 3, of the trapezoid fixed points on 2^16
# and 2^17 intervals (the solver the collocation replaced), at a = _AMPS;
# g17 alone is off by up to 2.07e-10 (constantin, a = 100)
_AMPS = (1.0, 1.5, 10.0, 37.5, 100.0)
_RICHARDSON_PSI1 = {
    "constantin": (1.0, 1.4336811948371952, 8.378126722736145,
                   30.093921902230505, 78.79947436559247),
    "example": (1.0, 1.43258253438852, 8.3709493887891, 30.07987980412705,
                78.77660896446675),
    "powerlaw": (1.0, 1.4117128338822404, 8.113147513444096,
                 29.378826147844165, 77.4369173286848),
}


@pytest.mark.parametrize("family", sorted(_RICHARDSON_PSI1))
def test_collocation_matches_the_richardson_trapezoid(models, family):
    # measured worst: 2.9e-15 a (example, a = 37.5)
    for a, psi1 in zip(_AMPS, _RICHARDSON_PSI1[family]):
        grid = picard_solve(models[family], a, r_end=1.0, n=1 << 17)
        assert abs(float(grid.values[-1]) - psi1) <= 1e-14 * a


def test_picard_returns_its_collocation_nodes(models):
    # r_j = r_end sqrt(s_j) on the Chebyshev-Lobatto nodes s_j of [0, 1],
    # from a at r = 0 to r_end; n is checked but changes no byte
    s = (1.0 - np.cos(np.pi * np.arange(33) / 32)) / 2.0
    for model in models.values():
        for a in (1.5, 100.0):
            grids = [picard_solve(model, a, r_end=0.5, n=n)
                     for n in (8, 1000, 1 << 17)]
            g = grids[0]
            assert len(g.r) == len(g.values) == 33
            assert (g.r[0], g.r[-1], g.values[0]) == (0.0, 0.5, a)
            assert np.all(np.diff(g.r) > 0.0)
            assert np.allclose(g.r, 0.5 * np.sqrt(s), rtol=0.0, atol=1e-15)
            for other in grids[1:]:
                assert other.r.tobytes() == g.r.tobytes()
                assert other.values.tobytes() == g.values.tobytes()
                assert (other.sweeps, other.last_change) == (
                    g.sweeps, g.last_change)


@pytest.mark.parametrize("family", ["constantin", "example", "powerlaw"])
def test_picard_residual_reads_the_polynomial_off_the_nodes(models, family):
    # on the solved nodes the oracle reads rounding (measured worst
    # 1.9e-16 a); a smooth 1e-10 a sin(3 s) error on the nodes, which the
    # polynomial carries between them, it reads as 1.02-1.05e-10 a
    model = models[family]
    for a in _AMPS:
        grid = picard_solve(model, a, r_end=1.0)
        assert picard_residual(model, grid) <= 1e-15 * a
        s = grid.r ** 2
        bent = replace(grid, values=grid.values + 1e-10 * a * np.sin(3.0 * s))
        assert picard_residual(model, bent) >= 0.5e-10 * a


def test_picard_residual_refuses_other_grids(constantin):
    grid = picard_solve(constantin, 10.0, r_end=1.0)
    for k in (32, 34):
        r = np.linspace(0.0, 1.0, k)
        with pytest.raises(ParameterDomainError, match="33 nodes"):
            picard_residual(constantin, replace(grid, r=r,
                                                values=np.full(k, 10.0)))


# psi and beta at r_handoff = 0.0625, and the cumulative dissipation there,
# of the integrator's head by Richardson extrapolation, (4 g15 - g14) / 3, of
# the trapezoid heads on 2^14 and 2^15 intervals (the solver the collocation
# replaced; dissipation by the Simpson rule on the same grids), at a =
# _HEAD_AMPS; the 512-interval trapezoid head was off by up to 2.6e-12 a
_HEAD_AMPS = (1.5, 2.7, 10.0, 100.0)
_RICHARDSON_HEAD = {
    "constantin": (
        (1.4997312349947016, -0.00859923766692768, 3.6984129830682734e-05),
        (2.6989681124606033, -0.033014792815114324, 0.0005451734549518525),
        (9.993323909109476, -0.2135909984972747, 0.022819937385590457),
        (99.91212975758258, -2.8111955853013497, 3.953243976174498)),
    "example": (
        (1.4997266364045567, -0.008746353081470244, 3.8260559794526925e-05),
        (2.698955941708007, -0.033404150852816616, 0.0005581095565879201),
        (9.99329365145131, -0.21455895684669715, 0.02302725708413003),
        (99.91203216563575, -2.814317459405283, 3.9620300910892996)),
    "powerlaw": (
        (1.4996381025205308, -0.011578530626889405, 6.70565310493234e-05),
        (2.6986791109850436, -0.04225967369065927, 0.0008933108812286344),
        (9.992184667398297, -0.25003324015278183, 0.03127266547098704),
        (99.90625413215673, -2.999144111635809, 4.499603408987124)),
}


@pytest.mark.parametrize("family", sorted(_RICHARDSON_HEAD))
def test_series_start_matches_the_richardson_trapezoid(models, family):
    # measured worst: psi 1.8e-16 a, beta 1.7e-16 a, dissipation 1.5e-14
    # relative (powerlaw, a = 100)
    config = IntegrationConfig(r_max=1.0, r_handoff=0.0625)
    for a, (psi, beta, diss) in zip(_HEAD_AMPS, _RICHARDSON_HEAD[family]):
        rs, psis, betas, cum = series_start(models[family], a, config)
        assert len(rs) == 17 and rs[-1] == config.r_handoff
        assert (psis[0], betas[0], cum[0]) == (a, 0.0, 0.0)
        assert abs(float(psis[-1]) - psi) <= 1e-14 * a
        assert abs(float(betas[-1]) - beta) <= 1e-14 * a
        assert abs(float(cum[-1]) - diss) <= 1e-13 * diss


def test_head_rows_round_as_linspace(constantin):
    # picard_head scales one fixed row of fractions instead of calling
    # np.linspace per head: j (r_end / 16) and r_end (j / 16) both round
    # the exact product once
    rng = np.random.default_rng(2)
    for r_end in [0.0625, 0.1, 1.0, 1e-300, *rng.uniform(1e-6, 1.0, 50)]:
        rs = picard_head(constantin, 2.0, float(r_end), 1e-13)[0]
        assert rs.tobytes() == np.linspace(0.0, r_end, 17).tobytes()


def test_collocation_operators_are_read_only():
    # every solve in the process shares them: an in-place write by a caller
    # would change every later solve
    for op in _collocation():
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        with pytest.raises(ValueError):
            op *= 2.0


_BAD_BUDGETS = [dict(max_iter=0), dict(max_iter=-1), dict(max_iter=2.0),
                dict(tol=math.nan), dict(tol=math.inf), dict(tol=-1e-13),
                dict(n=64.5), dict(n=64.0), dict(n=True)]


@pytest.mark.parametrize("bad", _BAD_BUDGETS, ids=repr)
def test_picard_rejects_bad_budget(constantin, bad):
    with pytest.raises(ParameterDomainError):
        picard_solve(constantin, 2.0, **bad)


@pytest.mark.parametrize("bad", [b for b in _BAD_BUDGETS if "max_iter" in b],
                         ids=repr)
def test_banach_rejects_bad_budget(constantin, bad):
    with pytest.raises(ParameterDomainError):
        banach_solve(constantin, 6.0, 2.0, 0.1, **bad)


def test_solvers_count_sweeps(constantin):
    grid = picard_solve(constantin, 10.0, r_end=1.0, n=1 << 12, tol=1e-13)
    assert grid.sweeps >= 2 and grid.last_change <= 1e-13 * 10.0
    last = picard_solve(constantin, 10.0, r_end=1.0, n=1 << 12, tol=1e-13,
                        max_iter=grid.sweeps)
    assert last.values.tobytes() == grid.values.tobytes()
    with pytest.raises(FixedPointFailureError):
        picard_solve(constantin, 10.0, r_end=1.0, n=1 << 12, tol=1e-13,
                     max_iter=grid.sweeps - 1)
    psi_g, beta_g, _ = banach_solve(constantin, 6.0, 2.0, 0.1)
    assert psi_g.sweeps == beta_g.sweeps >= 2
    assert psi_g.last_change == beta_g.last_change <= 1e-12 * 2.0
    with pytest.raises(FixedPointFailureError):
        banach_solve(constantin, 6.0, 2.0, 0.1, max_iter=psi_g.sweeps - 1)


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
    # at 1e8 the window [sqrt(T^2 - 1), T] is the single node T, which
    # passed after one sweep; at 1e200 the 400 sweeps ran on NaN
    for T in (1e8, 1e200):
        with pytest.raises(ParameterDomainError, match="anchor radius"):
            banach_solve(constantin, T, 2.0, 0.1)


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


def _with_L(model, L):
    return replace(model, ledger=replace(model.ledger, L=L))


def test_contraction_constants_use_the_ledger_L(constantin):
    # a ledger L above 2.5 gets its own constants, not those of L = 2.5
    # (zeta 0.887)
    wide = _with_L(constantin, 2.55)
    banach_solve(wide, 6.0, 2.0, 0.1)
    assert equilibrium_dichotomy_certificate(wide).zeta == 0.9127539173383304


def test_contraction_constants_refuse_a_steep_ledger_L(constantin):
    # no lambda in (0, 3) has rate_transform(lambda) = L once L reaches
    # rate_transform(3) = 2.616
    steep = _with_L(constantin, 2.7)
    with pytest.raises(InfeasibleConstantsError):
        banach_solve(steep, 6.0, 2.0, 0.1)
    with pytest.raises(InfeasibleConstantsError):
        equilibrium_dichotomy_certificate(steep)
