import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexplane import (FixedPointFailureError, InfeasibleConstantsError,
                         ParameterDomainError, banach_solve, beta_from_psi,
                         integrate_backward, picard_residual, picard_solve,
                         rate_transform, select_contraction_constants)
from vortexplane import fixedpoint
from vortexplane.fixedpoint import (_BLOCK, _RICHARDSON, _STENCILS,
                                    _cubic_read, _lagrange,
                                    equilibrium_dichotomy_certificate)
from vortexplane.integrator import (_PICARD_N, _PICARD_TOL,
                                    IntegrationConfig, series_start)
from vortexplane.quadrature import cumsimpson, cumtrapz

PHI_AT_3 = 44.0 * math.log(3.0) / (15.0 * math.log(3.0) + 2.0)


@pytest.fixture(autouse=True)
def _cold_node_grids():
    # picard_solve shares its node grids through fixedpoint._nodes: each
    # test starts without them, so a memory bound counts the grid the solve
    # builds whatever ran before it
    fixedpoint._nodes.cache_clear()


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


def _two_pass_residual(model, grid):
    # the residual as it was written before it read beta_from_psi: the
    # double integral a - int (1/xi) int tau f, each pass by cumsimpson
    rs, psi = grid.r, grid.values
    inner = cumsimpson(rs * model.f_arr(psi), grid.h)
    integrand = np.zeros(len(rs))
    integrand[1:] = inner[1:] / rs[1:]
    outer = cumsimpson(integrand, grid.h)
    return float(np.max(np.abs((float(psi[0]) - outer) - psi)))


def test_picard_residual_keeps_the_two_pass_bits(models):
    # -(x / r) == (-x) / r and cumsimpson(-y) == -cumsimpson(y) exactly
    for model in models.values():
        for a in (1.0, 3.7, 10.0, 100.0):
            for n in (512, 1000, 1 << 17):
                grid = picard_solve(model, a, r_end=1.0, n=n)
                assert picard_residual(model, grid) == _two_pass_residual(
                    model, grid)


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


@pytest.mark.parametrize("a", [6e307, 1e308])
def test_picard_refuses_an_overflowing_ball(constantin, a):
    # at 6e307 the bound eta a overflows, at 1e308 the ball end as well;
    # both ran all 200 sweeps of the coarse start on NaN
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
    assert calls == [513]
    calls.clear()
    with pytest.raises(FixedPointFailureError,
                       match="left the domain: .* \\|beta\\|=nan"):
        banach_solve(_nan_model(constantin, calls), 6.0, 2.0, 0.1)
    assert calls == [2049]


def test_picard_nodes_are_one_shared_read_only_grid(constantin):
    n = 1 << 17
    first = picard_solve(constantin, 10.0, r_end=1.0, n=n)
    second = picard_solve(constantin, 100.0, r_end=1.0, n=n)
    assert first.r.tobytes() == np.linspace(0.0, 1.0, n + 1).tobytes()
    assert second.r is first.r
    with pytest.raises(ValueError):
        first.r[1] = 0.5
    # the oracles read the shared grid as they read a private copy
    own = replace(first, r=np.linspace(0.0, 1.0, n + 1))
    assert (beta_from_psi(constantin, first).values.tobytes()
            == beta_from_psi(constantin, own).values.tobytes())
    assert (picard_residual(constantin, first)
            == picard_residual(constantin, own))


def _gather_cubic(v, m):
    # the 4-point cubic of _cubic_read node by node: each fine node gathers
    # its interval's stencil and the weights of its sub-position
    cells = len(v) - 1
    i = np.arange(cells * m)
    j, k = i // m, i % m
    stencil = np.where(j == 0, 0, np.where(j == cells - 1, 2, 1))
    offsets = np.array(_STENCILS)[stencil]
    weights = np.array([_lagrange(o, np.arange(m) / m) for o in _STENCILS])
    acc = np.zeros(cells * m)
    for q in range(3):
        acc += (v[j + offsets[:, q]] - v[j]) * weights[stencil, q, k]
    return np.append(acc + v[j], v[-1])


def _whole_grid_picard(model, a, r_end, n, tol=1e-13, max_iter=200,
                       coarse=True):
    # the sweep as one pass of whole-grid numpy operations: the oracle for
    # the blocked sweep of picard_solve, from the same Richardson start
    # unless coarse is False
    rs = np.linspace(0.0, r_end, n + 1)
    h = float(rs[1] - rs[0])
    ball = model.ledger.eta * a / 4.0
    if coarse and n % 128 == 0 and n // 64 >= 512:
        pcs = []
        for ratio in (64, 128):
            try:
                pcs.append(_whole_grid_picard(model, a, r_end, n // ratio,
                                              tol, max_iter)[1])
            except FixedPointFailureError as exc:
                raise FixedPointFailureError(
                    f"coarse start on {n // ratio} intervals for the "
                    f"{n}-interval grid failed: {exc}") from exc
        pc, p2c = pcs
        drift = _gather_cubic(p2c - pc[::2], 2)
        psi = np.clip(_gather_cubic(pc - drift * _RICHARDSON, 64),
                      a - ball, a + ball)
    else:
        psi = np.full(n + 1, float(a))
    for sweep in range(1, max_iter + 1):
        w = rs * model.f_arr(psi)
        inner = cumtrapz(w, h)
        integrand = np.zeros(n + 1)
        integrand[1:] = inner[1:] / rs[1:]
        new = a - cumtrapz(integrand, h)
        dev = float(np.max(np.abs(new - a)))
        if dev > ball * (1.0 + 1e-12):
            raise FixedPointFailureError(
                f"iterate left the ball: |psi - a| reached {dev!r} "
                f"against radius {ball!r}")
        change = float(np.max(np.abs(new - psi)))
        psi = new
        if change <= tol * a:
            return rs, psi, sweep, change
    raise FixedPointFailureError(
        f"no convergence within {max_iter} sweeps (last change {change!r})")


# blocks cover nodes 1..n, so n = _BLOCK + 1 and 2 _BLOCK + 1 end on a
# one-node block; 2^17 and 2 _BLOCK take the Richardson start, 2 _BLOCK + 1
# (not a multiple of 128) and the rest the constant one
_ORACLE_GRIDS = [(512, 0.0625), (1 << 17, 1.0)] + [
    (n, 1.0) for n in (_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                       2 * _BLOCK, 2 * _BLOCK + 1)]


@pytest.mark.parametrize("n, r_end", _ORACLE_GRIDS)
def test_blocked_sweep_matches_whole_grid(models, n, r_end):
    for model in models.values():
        for a in (1.5, 10.0):
            rs, psi, sweeps, change = _whole_grid_picard(model, a, r_end, n)
            grid = picard_solve(model, a, r_end=r_end, n=n)
            assert grid.r.tobytes() == rs.tobytes()
            assert grid.values.tobytes() == psi.tobytes()
            assert (grid.sweeps, grid.last_change) == (sweeps, change)


def test_picard_sweeps_in_place(constantin):
    # rs and the iterate are the only grid-length arrays a 2^17-node solve
    # keeps (2.8 grids at the peak, with the block work arrays): a sweep
    # writes each block over the old iterate instead of into a second grid
    # (3.8 grids)
    n = 1 << 17
    tracemalloc.start()
    try:
        picard_solve(constantin, 10.0, r_end=1.0, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * (n + 1) * 8


def test_picard_sweeps_in_place_on_a_cached_grid(constantin):
    # once rs is cached the iterate is the only grid-length array a solve
    # makes (1.8 grids at the peak); a second grid in the sweep would reach
    # 2.8
    n = 1 << 17
    picard_solve(constantin, 10.0, r_end=1.0, n=n)
    tracemalloc.start()
    try:
        picard_solve(constantin, 10.0, r_end=1.0, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * (n + 1) * 8


def test_picard_ball_escape_message(constantin):
    tiny = replace(constantin, ledger=replace(constantin.ledger, eta=1e-6))
    with pytest.raises(FixedPointFailureError) as ref:
        _whole_grid_picard(tiny, 10.0, 1.0, _BLOCK + 1)
    with pytest.raises(FixedPointFailureError) as got:
        picard_solve(tiny, 10.0, r_end=1.0, n=_BLOCK + 1)
    assert "left the ball" in str(ref.value)
    assert str(got.value) == str(ref.value)


def test_picard_coarse_ball_escape_message(constantin):
    tiny = replace(constantin, ledger=replace(constantin.ledger, eta=1e-6))
    with pytest.raises(FixedPointFailureError) as ref:
        _whole_grid_picard(tiny, 10.0, 1.0, 512)
    with pytest.raises(FixedPointFailureError) as got:
        picard_solve(tiny, 10.0, r_end=1.0, n=2 * _BLOCK)
    assert "left the ball" in str(ref.value)
    assert str(got.value) == (
        f"coarse start on 512 intervals for the 32768-interval grid "
        f"failed: {ref.value}")


def test_picard_coarser_start_failure_message(constantin, monkeypatch):
    # the solve on n // 128 intervals, given too few sweeps, fails after
    # the one on n // 64 intervals succeeded
    solve = fixedpoint.picard_solve

    def short_of_sweeps(model, a, r_end, n, tol, max_iter):
        return solve(model, a, r_end, n, tol, 2 if n == 256 else max_iter)

    with pytest.raises(FixedPointFailureError) as ref:
        _whole_grid_picard(constantin, 10.0, 1.0, 256, max_iter=2)
    monkeypatch.setattr(fixedpoint, "picard_solve", short_of_sweeps)
    with pytest.raises(FixedPointFailureError) as got:
        solve(constantin, 10.0, r_end=1.0, n=2 * _BLOCK)
    assert "no convergence within 2 sweeps" in str(ref.value)
    assert str(got.value) == (
        f"coarse start on 256 intervals for the 32768-interval grid "
        f"failed: {ref.value}")


def test_picard_budget_exhausted_message(constantin):
    # n = 2 _BLOCK starts from the solve on n // 64 = 512 intervals, which
    # runs out of sweeps first
    with pytest.raises(FixedPointFailureError) as ref:
        _whole_grid_picard(constantin, 10.0, 1.0, 512, max_iter=2)
    with pytest.raises(FixedPointFailureError) as got:
        picard_solve(constantin, 10.0, r_end=1.0, n=2 * _BLOCK, max_iter=2)
    assert "no convergence within 2 sweeps" in str(ref.value)
    assert str(got.value) == (
        f"coarse start on 512 intervals for the 32768-interval grid "
        f"failed: {ref.value}")


@pytest.mark.parametrize("a", [10.0, 100.0])
def test_coarse_start_matches_cold_start(models, a):
    # the coarse start changes the iterates, not the fixed point they reach
    n = 1 << 17
    for model in models.values():
        _, cold, _, _ = _whole_grid_picard(model, a, 1.0, n, coarse=False)
        grid = picard_solve(model, a, r_end=1.0, n=n)
        assert float(np.max(np.abs(grid.values - cold))) <= 1e-11 * a
        assert grid.sweeps == 1


def test_equilibrium_start_is_exact(constantin):
    # psi = a = u0 is the fixed point; both coarse solves return it, the
    # extrapolation and the cubic keep it, and the one sweep changes nothing
    grid = picard_solve(constantin, 1.0, r_end=1.0, n=1 << 17)
    assert (grid.sweeps, grid.last_change) == (1, 0.0)
    assert np.all(grid.values == 1.0)


def test_cubic_read_nests_and_is_exact_on_cubics():
    rng = np.random.default_rng(0)
    v = rng.random(17)
    for m in (2, 5, 64):
        fine = _cubic_read(v, m)
        assert fine[::m].tobytes() == v.tobytes()
        assert fine.tobytes() == _gather_cubic(v, m).tobytes()
        assert np.all(_cubic_read(np.full(17, 3.7), m) == 3.7)
        x, xf = np.arange(17.0), np.arange(16 * m + 1) / m
        for degree in (1, 2, 3):
            assert np.allclose(_cubic_read(x ** degree, m), xf ** degree,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("nodes, m", [(2049, 64), (1025, 2)])
def test_cubic_read_matches_gather_at_picard_sizes(nodes, m):
    # the two reads of the 2^17-node start: the einsum per stencil must
    # round as the node by node multiply-adds do, on signed data with
    # exact zeros of both signs and runs of equal values
    rng = np.random.default_rng(1)
    v = rng.standard_normal(nodes) * 10.0 ** rng.integers(-12, 3, nodes)
    v[::7] = 0.0
    v[3::11] = -0.0
    v[100:140] = v[100]
    fine = _cubic_read(v, m)
    assert fine.tobytes() == _gather_cubic(v, m).tobytes()
    # +0.0 + -0.0 is +0.0: a -0.0 node reads back as +0.0, the rest bit
    # for bit
    assert np.array_equal(fine[::m], v)
    assert fine[::m][v != 0.0].tobytes() == v[v != 0.0].tobytes()


def test_series_start_keeps_the_cold_start(models):
    # the 512-point heads lie below the coarse-start threshold
    config = IntegrationConfig(r_max=1.0)
    for model in models.values():
        for a in (1.5, 10.0, 100.0):
            _, psi = series_start(model, a, config)[:2]
            _, cold, _, _ = _whole_grid_picard(model, a, config.r_handoff,
                                               _PICARD_N, _PICARD_TOL,
                                               coarse=False)
            assert psi.tobytes() == cold.tobytes()


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
