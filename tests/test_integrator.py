import dataclasses
import hashlib
import inspect
import io
import linecache
import math
import sys
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from vortexplane import (IntegrationConfig, ParameterDomainError, Termination,
                         classify_shot, integrate, integrate_backward,
                         integrate_from, transversality_check)
from vortexplane import integrator
from vortexplane.analysis import _classification_config
from vortexplane.integrator import _hermite, _hull_floor, _step_minimum


def test_tableau_matches_scipy():
    # every hard-coded DOP853 constant equals scipy's: A (with B its 13th
    # row), C, E3 and E5; a weight that scipy holds as zero has no
    # constant.  Each stage's A row sums to its node to 1e-15 of the row's
    # absolute sum: weights up to 43 in size carry rounding of a few 1e-15
    # each, so that is the sum's own resolution.
    from scipy.integrate._ivp import dop853_coefficients as ref

    def named(prefix, i):
        return getattr(integrator, f"{prefix}{i}", None)

    for i in range(2, 14):
        prefix = "_B" if i == 13 else f"_A{i}_"
        row = [named(prefix, j) for j in range(1, 17)]
        assert [0.0 if v is None else v for v in row] == ref.A[i - 1].tolist()
        assert all(v is None for v, w in zip(row, ref.A[i - 1]) if w == 0.0)
        c = 1.0 if i in (12, 13) else named("_C", i)
        assert c == ref.C[i - 1]
        weights = [v for v in row if v is not None]
        assert abs(math.fsum(weights) - c) <= 1e-15 * math.fsum(
            map(abs, weights))
    for name, table in (("_E3_", ref.E3), ("_E5_", ref.E5)):
        row = [named(name, j) for j in range(1, 14)]
        assert [0.0 if v is None else v for v in row] == table.tolist()


def test_against_reference_integrator(constantin, run10, state_at):
    # restart from the recorded state at r = 1 and carry it to r = 50 with
    # an independent high order method
    psi1, beta1 = state_at(run10, 1.0)

    def rhs(r, y):
        return [y[1], -y[1] / r - constantin.f(y[0])]

    sol = solve_ivp(rhs, (1.0, 50.0), [psi1, beta1], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    assert sol.success
    psi50, beta50 = state_at(run10, 50.0)
    assert abs(sol.y[0, -1] - psi50) < 1e-5
    assert abs(sol.y[1, -1] - beta50) < 1e-5


def test_energy_monotone_on_nodes(run10):
    diffs = np.diff(run10.E)
    assert float(diffs.max(initial=0.0)) <= 1e-7


def test_energy_balance(constantin, run10):
    # total drop equals the accumulated beta^2 / r dissipation
    drop = float(run10.E[0] - run10.E[-1])
    dissipated = float(np.sum(run10.dissipation))
    assert math.isclose(drop, dissipated, rel_tol=1e-6)


@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
@pytest.mark.parametrize("a", [2.0, 10.0])
def test_energy_decay_and_balance(request, name, a):
    # E = beta^2/2 + F(psi) at the nodes against the stepper's own beta^2/r
    # quadrature: this checks F against f as well as the stepper
    traj = integrate(request.getfixturevalue(name), a,
                     IntegrationConfig(r_max=100.0))
    assert float(np.diff(traj.E).max(initial=0.0)) <= 1e-7
    drop = float(traj.E[0] - traj.E[-1])
    assert math.isclose(drop, float(np.sum(traj.dissipation)), rel_tol=1e-6)


def test_backward_forward_round_trip(constantin, state_at):
    # backward sweeps store nodes ascending, so the far end is r[0]
    bw = integrate_backward(constantin, 6.0, 1.5, 0.2)
    r_low = float(bw.r[0])
    psi0, beta0 = state_at(bw, r_low)
    fw = integrate_from(constantin, r_low, psi0, beta0,
                        IntegrationConfig(r_max=6.0))
    psi6, beta6 = state_at(fw, 6.0)
    assert abs(psi6 - 1.5) < 1e-8
    assert abs(beta6 - 0.2) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["constantin", "example", "powerlaw"]),
       st.floats(2.0, 20.0), st.sampled_from([1e-8, 1e-9, 1e-10]))
def test_energy_decay_and_balance_property(models, name, a, rel_tol):
    traj = integrate(models[name], a,
                     IntegrationConfig(r_max=50.0, rel_tol=rel_tol))
    assert float(np.diff(traj.E).max(initial=0.0)) <= 1e-7
    drop = float(traj.E[0] - traj.E[-1])
    assert math.isclose(drop, float(np.sum(traj.dissipation)), rel_tol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(6.0, 12.0), st.floats(1.0, 3.0), st.floats(-0.5, 0.5))
def test_backward_forward_round_trip_property(constantin, T, psi_T, beta_T):
    # the backward sweep stops at sqrt(T^2 - 1) and is stored ascending
    bw = integrate_backward(constantin, T, psi_T, beta_T)
    assert bw.r[-1] == T and bw.r[0] == math.sqrt(T * T - 1.0)
    fw = integrate_from(constantin, float(bw.r[0]), float(bw.psi[0]),
                        float(bw.beta[0]), IntegrationConfig(r_max=T))
    assert fw.r[-1] == T
    assert abs(fw.psi[-1] - psi_T) < 1e-8
    assert abs(fw.beta[-1] - beta_T) < 1e-8


def test_sample_at_nodes(run10, state_at):
    for k in (0, 5, len(run10.r) // 2, len(run10.r) - 1):
        psi, beta = state_at(run10, float(run10.r[k]))
        assert math.isclose(psi, float(run10.psi[k]), rel_tol=1e-13, abs_tol=1e-13)
        assert math.isclose(beta, float(run10.beta[k]), rel_tol=1e-13, abs_tol=1e-13)


def test_sample_outside_span_raises(run10):
    with pytest.raises(ParameterDomainError):
        run10.locate(2.0 * float(run10.r[-1]))


def test_handoff_radius_invariance(constantin, state_at):
    # the head to 1/16 against one to 1/32 and against the default, to 1
    a = 10.0
    p1, b1 = state_at(integrate(constantin, a, IntegrationConfig(
        r_max=50.0, r_handoff=1.0 / 16.0)), 50.0)
    for r_handoff in (1.0 / 32.0, 1.0):
        p2, b2 = state_at(integrate(constantin, a, IntegrationConfig(
            r_max=50.0, r_handoff=r_handoff)), 50.0)
        assert abs(p1 - p2) < 1e-6
        assert abs(b1 - b2) < 1e-6


def test_r_max_within_the_head(constantin):
    # an r_max at or below the handoff radius is the Picard head on
    # [0, r_max] alone, as series_start reads it
    for r_max in (0.5, 1.0):
        config = IntegrationConfig(r_max=r_max)
        traj = integrate(constantin, 3.0, config)
        rs, psis, betas, _ = integrator.series_start(constantin, 3.0, config)
        assert traj.termination is Termination.REACHED_RMAX
        assert traj.r[-1] == r_max and len(traj.dissipation) == 16
        assert (traj.r.tobytes(), traj.psi.tobytes(), traj.beta.tobytes()) == (
            rs.tobytes(), psis.tobytes(), betas.tobytes())


def test_constant_orbit(constantin):
    traj = integrate(constantin, 1.0, IntegrationConfig(r_max=30.0))
    assert traj.termination is Termination.REACHED_RMAX
    assert float(np.max(np.abs(traj.psi - 1.0))) < 1e-12
    assert float(np.max(np.abs(traj.beta))) < 1e-12


def test_amplitude_below_one_rejected(constantin):
    with pytest.raises(ParameterDomainError):
        integrate(constantin, 0.5, IntegrationConfig(r_max=10.0))


def test_theta_resolved_per_step(run10):
    # the angle track never jumps by more than pi between nodes, so winding
    # counts read off theta are trustworthy
    assert float(np.max(np.abs(np.diff(run10.theta)))) < math.pi


def test_theta_monotone_trend(run10):
    # clockwise rotation: theta decreases over any full unit of radius
    r = run10.r
    theta = run10.theta
    for target in (10.0, 30.0, 60.0, 90.0):
        i = int(np.searchsorted(r, target))
        j = int(np.searchsorted(r, target + 1.0))
        assert theta[j] < theta[i]


def test_csv_round_trip(run10):
    buf = io.StringIO()
    run10.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "r,psi,beta,R,theta,E"
    assert len(lines) == len(run10.r) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == float(run10.r[0])
    assert first[1] == float(run10.psi[0])


def test_min_radius_tracks_dense_minimum(run10):
    node_min = float(np.min(run10.radius))
    assert run10.min_radius <= node_min + 1e-12


# ------------------------------------------------- pinned stepper outputs
#
# Digests of outputs the stepper produced before the minimum-radius scan was
# gated and event values were carried across steps; both changes must leave
# every byte of the rows, the dissipation and the termination unchanged.
# The example model's CSV digest and shot radii were re-recorded when its
# potential moved from adaptive Simpson to Gauss-Legendre: only the E column
# (by at most 2.1e-9) and the energy-event radii r_stop moved.  The
# min_radius reprs were re-recorded when the closest approach moved out of
# the stepper into Trajectory.closest_approach: it reads the Hermite of the
# stored steps, whose widths r[i+1] - r[i] need not equal the stepper's h
# bit for bit, and a cut step's stored Hermite is not the uncut one.  The
# constantin and example pins were re-recorded when the crossing windows
# landed: they step each crossing above the entry floor in t = sqrt|psi|.
# Every pin in this file was re-recorded when the DOP853 pair replaced the
# 5(4) pair: it stores one row per accepted step, about 4x fewer rows.  The
# dissipation is pinned apart, in _DISS, since it moved alone when each step
# began to integrate it with the pair's own weights.  Every orbit pin here,
# with _ROWS, _DISS, the stop row and the shot sweep, was re-recorded when
# the Picard head moved from the 512-interval trapezoid rule to the
# Chebyshev collocation: psi(r_handoff) moved by up to 2.6e-12 a.  All of
# them, and the shot pins, once more when the head's default end moved from
# r = 1/16 to 1, where the stepper now starts.

def _digest(traj):
    buf = io.StringIO()
    traj.to_csv(buf)
    return (hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            repr(traj.min_radius), repr(traj.min_radius_r),
            traj.termination.value)


_PINNED = {
    "run10": (
        "697c088b944de12b49ad3bf8eb0f558ef80bfa169e2e00458d620fb396eb6913",
        "0.06577157322244874", "63.85127956215514", "reached_rmax"),
    "run100": (
        "fa1a2c66e6f8d7fb2d6a9a311257839ddfe349d31f5688ea978de56e698a21ab",
        "0.995929722638157", "1997.3097083461687", "reached_rmax"),
    "example": (
        "552e3209e692a910e8e423536499a38a0960bf9594cdc098e6d4bc0ce09fd34f",
        "0.06737796764743725", "63.43242623664441", "reached_rmax"),
    "powerlaw": (
        "45f771117f3c3a0161429b7825d3bb98ce325f52a4110b5008a2e472f1a0486a",
        "0.05313958049168007", "48.29383051015943", "reached_rmax"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_orbit(request, name):
    if name.startswith("run"):
        traj = request.getfixturevalue(name)
    else:
        traj = integrate(request.getfixturevalue(name), 10.0,
                         IntegrationConfig(r_max=100.0))
    assert _digest(traj) == _PINNED[name]


def test_pinned_backward_sweep(constantin):
    traj = integrate_backward(constantin, 6.0, 1.5, 0.2)
    assert _digest(traj) == (
        "fbb89d0bd6f8f37d332f64324b003d5b9a7957aa4a6308dc6dda76eacc7b763d",
        "1.4992166691760747", "5.916079783099616", "reached_rmax")


@pytest.mark.parametrize("backward", [False, True])
def test_start_row_keeps_signed_zero_angle(constantin, backward):
    # the start row stores the raw atan2 of its state, so beta = -0.0 with
    # psi > 0 keeps theta = -0.0 (an unwrap would add +0.0)
    if backward:
        traj = integrate_backward(constantin, 6.0, 1.5, -0.0)
    else:
        traj = integrate_from(constantin, 6.0, 1.5, -0.0,
                              IntegrationConfig(r_max=7.0))
    buf = io.StringIO()
    traj.to_csv(buf)
    start = buf.getvalue().splitlines()[-1 if backward else 1]
    assert start.split(",")[:5] == ["6.0", "1.5", "-0.0", "1.5", "-0.0"]


@pytest.mark.parametrize("psi0, beta0", [(0.0, 0.0), (0.0, -0.0),
                                         (-0.0, 0.0), (-0.0, -0.0)])
def test_start_at_origin_is_refused(constantin, psi0, beta0):
    # the origin has no phase: stepping from it would meet the theta cap at
    # a start angle of +-pi (psi = -0.0) and halve h down to a step failure
    with pytest.raises(ParameterDomainError, match="origin"):
        integrate_from(constantin, 2.0, psi0, beta0,
                       IntegrationConfig(r_max=10.0))
    with pytest.raises(ParameterDomainError, match="origin"):
        integrate_backward(constantin, 6.0, psi0, beta0)


@pytest.mark.parametrize("psi, beta", [(1e300, 0.0), (-2e154, 0.0),
                                       (2.0, 1e300), (2.0, -2e154)])
def test_start_without_finite_energy_is_refused(models, psi, beta):
    # psi^2 or beta^2 overflows: the energy has no value.  The power law's
    # F raised a raw OverflowError and constantin's stored an E of NaN
    calls = []

    def F(p):
        calls.append(p)
        return 0.0

    config = IntegrationConfig(r_max=10.0)
    for model in models.values():
        model = dataclasses.replace(model, F=F)
        runs = [lambda: integrate_from(model, 2.0, psi, beta, config),
                lambda: integrate_backward(model, 6.0, psi, beta)]
        if beta == 0.0 and psi > 0.0:
            runs += [lambda: integrate(model, psi, config),
                     lambda: classify_shot(model, psi)]
        for run in runs:
            with pytest.raises(ParameterDomainError, match="finite energy"):
                run()
    assert calls == []


def test_one_row_trajectory(constantin):
    # a trajectory of its start row alone has no step: locate refuses (it
    # used to return step -1, whose Hermite ran from r[-1] to r[0]) and the
    # closest approach is the start row itself.  The stepper makes one where
    # max_steps=1 and the first attempt is rejected
    row = integrator._row(constantin, 2.0, 0.0, 1e-7)
    traj = integrator.Trajectory(constantin, *(np.array([v]) for v in row),
                                 dissipation=np.zeros(0),
                                 termination=Termination.STEP_FAILURE)
    made = integrate_from(constantin, 2.0, 0.0, 1e-7,
                          IntegrationConfig(r_max=10.0, max_steps=1))
    assert (_rows(made), _diss(made)) == (_rows(traj), _diss(traj))
    for r in (2.0, 3.0):
        with pytest.raises(ParameterDomainError, match="no steps"):
            traj.locate(r)
    assert traj.closest_approach() == traj.closest_approach(2.0) == (2.0,
                                                                      1e-7)
    with pytest.raises(ParameterDomainError):
        traj.closest_approach(2.5)


_PINNED_SHOTS = {
    "constantin": (
        ("right", "1.8729417966259723", "1.6068883865239296"),
        ("right", "5.509009990411277", "0.0795988461716913"),
        ("left", "9.06298053810666", "0.7221429757437586")),
    "example": (
        ("right", "1.8562732034589446", "1.6087591808363093"),
        ("right", "5.353283133204915", "0.10170044289857814"),
        ("left", "8.995647060413175", "0.7268453882837662")),
    "powerlaw": (
        ("right", "1.3038633713658676", "1.7514083779308602"),
        ("right", "3.4226722947616226", "0.7523618747328216"),
        ("left", "5.921463865792378", "0.776330022182738")),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SHOTS))
def test_pinned_shots(request, name):
    model = request.getfixturevalue(name)
    got = []
    for a in (2.0, 3.0, 4.0):
        rec = classify_shot(model, a)
        assert rec.a == a
        got.append((rec.outcome, repr(rec.r_stop), repr(rec.min_radius)))
    assert tuple(got) == _PINNED_SHOTS[name]


# Rows-only digests of what the step sequence decides, which never read the
# closest approach, and the dissipation's apart.  _ROWS were recorded with
# the dissipation split off, on the stepper whose dissipation was 5-point
# Gauss on the dense output; the quadrature on the stages kept every one.

def _rows(traj):
    """sha256 of what the step sequence decides: the six stored columns
    (which fix the CSV) and the termination."""
    digest = hashlib.sha256()
    for col in (traj.r, traj.psi, traj.beta, traj.radius, traj.theta,
                traj.E):
        digest.update(col.tobytes())
    digest.update(traj.termination.value.encode())
    return digest.hexdigest()


def _diss(traj):
    """sha256 of the per-step dissipation."""
    return hashlib.sha256(traj.dissipation.tobytes()).hexdigest()


def _shot(name, a):
    return lambda m: integrate(m[name], a,
                               _classification_config(a, 1e-9, m[name]))


_ROW_RUNS = {
    "example": lambda m: integrate(m["example"], 10.0,
                                   IntegrationConfig(r_max=100.0)),
    "powerlaw": lambda m: integrate(m["powerlaw"], 10.0,
                                    IntegrationConfig(r_max=100.0)),
    # the orbit passes the origin at R = 0.0017 (0.0042) inside one step
    "near_origin_0.001": lambda m: integrate_from(
        m["constantin"], 8.0, -0.5, -1.0,
        IntegrationConfig(r_max=35.0, rel_tol=1e-3)),
    "near_origin_1e-06": lambda m: integrate_from(
        m["constantin"], 8.0, -0.5, -1.0,
        IntegrationConfig(r_max=35.0, rel_tol=1e-6)),
    "backward": lambda m: integrate_backward(m["constantin"], 6.0, 1.5, 0.2),
}
_ROW_RUNS.update({f"{name}_a2": (lambda m, name=name: integrate(
    m[name], 2.0, IntegrationConfig(r_max=100.0)))
    for name in ("constantin", "example")})
_ROW_RUNS.update({f"shot_{name}_{a:g}": _shot(name, a)
                  for name in ("constantin", "example", "powerlaw")
                  for a in (2.0, 3.0, 4.0)})

_ROWS = {
    "run10":
        "1c0c03fe087044c4e2860c58918118f4af78d222ba3a6cc18481c5076576419a",
    "run100":
        "ddfcd67c416100f4e3155b9b275828047fd661780a63a120813cdbd54bf89547",
    "example":
        "664d1c77f561407ab8bc5186132a7619b560e484e1962555931dfcf6d4614cb3",
    "powerlaw":
        "6667995c92eb49d0c27f09c9cb08851720d2a50de164b5a7e1dfe9cb525bbbaf",
    # no crossing
    "constantin_a2":
        "237f3306bf51fc0d4731e75dbbb756243beb1d5d70e70ff1f9ee10fe82cf258a",
    "example_a2":
        "c47664a5ddfcf8021a7f2d74d716d197a67d626aa1fd9fe725c50ca58e8b240d",
    "near_origin_0.001":
        "1afa83bd221c3c0356dc6a82d635b2923ee92877e927ba96193a158cb93b1367",
    "near_origin_1e-06":
        "66a04285396a35ffd7abf32fa2e0f3f5d3a0ed3d96e136a3690df924decd3823",
    "backward":
        "5808d4b9bb5fbb08668a41119ae0f0cd292863d9032507a560b0ee56895a4416",
    "shot_constantin_2":
        "74cb8d4f903e868b7eca0766a9620eea6dbdfe0b9e7aa05f82274ea84c64ee20",
    "shot_constantin_3":
        "fcf4bf4052722baaf1ee2d365085ca1aeb39d0b0a17c88b39dd2c6d06808d78d",
    "shot_constantin_4":
        "96c1d50a7aef4c7432b33b884685bd707dce21588e0193d53b396b51c8f05699",
    "shot_example_2":
        "2043126d6b986edff792bf706e309f43ba3831829e03a6e6dbbba2b66897547e",
    "shot_example_3":
        "1fb398a10c8d0f60bb379d30a94b327b79f6089550337c6a874d50787f609b34",
    "shot_example_4":
        "b1493afb85960ec27e22803ac01b2f2948ea601cf10e8f84ba94f3debd3ed90b",
    "shot_powerlaw_2":
        "a43c4c2487b094d4dfcc878ec812e56b0ed8555375c27a0be392296b1a38ef92",
    "shot_powerlaw_3":
        "9ba3965bdcd3311d6b033563264e3ceebd86202d80de554fc1d5ebaa7cc614ec",
    "shot_powerlaw_4":
        "08d9a164e4313056b071de1fbbb22b4dd97dbbc4f5750b9ba07a9615c9a24271",
}


# re-recorded once when each step's dissipation moved from 5-point Gauss on
# the pair's dense output to the pair's own weights on its stages, and the
# shot_* entries once more when a stopped run's cut step moved its share
# onto beta's Hermite
_DISS = {
    "backward":
        "0ba4cfebc217c3574bde08c67f25b517346ad375229b6ac99a8f74d218f1b2fe",
    "constantin_a2":
        "aa3704d36916e515209b0a39831bb21ac9f05bdc69fd2ab790f72f389564c8d9",
    "example":
        "151862da080cc194cf0594ed3674a2bd640abe54bd2325126d78bde0bd0925d4",
    "example_a2":
        "4949808d292487da8af707b98cb47adde9518afa7f574595e893c4edaa2e4c92",
    "near_origin_0.001":
        "7f6598a1aabe2a820bcf0984d487c8c51dd850f3ff306fc7ee872968ff32a4b7",
    "near_origin_1e-06":
        "16fbdeb289fb56b82379294c34871861010124f8d0e5df9f80522f758c2d8224",
    "powerlaw":
        "bf489061dc9b94e78853b4f28b623def009dca105eed134bcbe6c14314fe7955",
    "run10":
        "55f88d22420b150cd4ce2678f11898a5080762545fa467d70504c2963975d890",
    "run100":
        "621a7e1f1973dcca374629c329b001eca82c6bc5167321ee3037471eaabe054c",
    "shot_constantin_2":
        "c6fb76ba5fa1417cdccd3fd6ab1f965417be285f406d3a625875d8bc8c05260a",
    "shot_constantin_3":
        "2003d573c1123bc99141d94bd7df639eba78389020c8900a47ce129cd0ca7ab6",
    "shot_constantin_4":
        "07675a353d83bb006019627bc9acc041f9313b834e6afbabdb5b6b2f221b94ec",
    "shot_example_2":
        "644636b1af1a81059a4b0c44f8bf3ce5f5b6a676634d0db7388f572e12f46f4e",
    "shot_example_3":
        "ab38ba2477a8fcb14665ba4f9523257e4000ef7565cfb8db07fea11c84d7e503",
    "shot_example_4":
        "749d825c2e3565b244f00a43a273fecd2924426568535fbdd6ab15315f9d6973",
    "shot_powerlaw_2":
        "355d537ba9d383e17188a4f14e260d2733b57640397c02673fc076abdc0aceb3",
    "shot_powerlaw_3":
        "62577b116a3a41a7c1ff8cd1e256e736790c5a7bbdcffb0500e7c71976b90436",
    "shot_powerlaw_4":
        "1378d2f9e6fc5b906f9f60aa7d6355a5a504b0b5d963c0e52ea440d9f3b749d6",
}


@pytest.mark.parametrize("name", sorted(_ROWS))
def test_rows_unchanged(request, models, name):
    if name in _ROW_RUNS:
        traj = _ROW_RUNS[name](models)
    else:
        traj = request.getfixturevalue(name)
    assert _rows(traj) == _ROWS[name]
    assert _diss(traj) == _DISS[name]


def test_event_fn_called_once_per_accepted_step(constantin):
    # the stop reads the stored E of each accepted step, so F is called once
    # per row and per accepted step; its search on E's Hermite calls none,
    # and the cut row one more
    calls = [0]

    def counting_F(psi):
        calls[0] += 1
        return constantin.F(psi)

    model = dataclasses.replace(constantin, F=counting_F)
    traj = integrate(model, 10.0, IntegrationConfig(
        r_max=100.0, stop_at_zero_energy=True))
    assert traj.termination is Termination.EVENT
    assert (traj.r[-1], traj.psi[-1], traj.beta[-1]) == (
        60.416710793378435, -1.2844416598221842, 0.5395748644849355)
    # the Picard head stores 17 rows; every later row but the cut row is
    # one accepted step, and the step holding the stop is one more
    steps = len(traj.r) - 17
    # 17 head rows, one per accepted step and the cut row
    assert calls[0] == 17 + steps + 1


def _zero_of_F(model):
    """F's positive zero: a start just above it spends its energy early."""
    return brentq(model.F, 1.0, 3.0, xtol=1e-15)


@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
def test_stop_is_the_energy_entry(models, name):
    # the stop cuts where e_region_entry finds E's Hermite falling through 0
    # on the same orbit run on without the stop: the same step, root and
    # (r, psi, beta), bit for bit.  Starts just above F's zero stop inside
    # the Picard head, the first of them in its first step, from r = 0
    from vortexplane import e_region_entry
    model = models[name]
    a0 = _zero_of_F(model)
    near = [a0 + d for d in (1e-9, 1e-6, 1e-3, 0.02)]
    for a in [*near, *map(float, range(2, 13))]:
        config = _classification_config(a, 1e-9, model)
        stopped = integrate(model, a, config)
        entry = e_region_entry(integrate(model, a, dataclasses.replace(
            config, stop_at_zero_energy=False)))
        assert stopped.termination is Termination.EVENT
        assert (stopped.r[-1], stopped.psi[-1], stopped.beta[-1]) == (
            entry.r_cross, entry.psi, entry.beta), a
        if a in near:
            assert stopped.r[-1] < config.r_handoff
            assert len(stopped.r) <= 17 and len(stopped.dissipation) == len(
                stopped.r) - 1
        if a == near[0]:
            assert len(stopped.r) == 2


@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
def test_starts_just_above_the_zero_of_F_classify(models, name):
    # F(a) > 0 admits the start, and its energy may reach 0 inside the
    # head: the stop reads the head's steps, so every such shot classifies
    # (while it read only the stepper's steps, 25 of these 40 ran to r_max,
    # even with the head ending at r = 1/16)
    model = models[name]
    a0 = _zero_of_F(model)
    inside = 0
    for d in np.geomspace(1e-9, 0.3, 40):
        rec = classify_shot(model, a0 + d)
        inside += rec.r_stop < 1.0
    assert 0 < inside < 40


# ------------------------------------------------------ crossing windows
#
# The square-root families cross psi = 0 in t = sqrt|psi| wherever the
# entry floor on E holds; the crossing itself is then a stored node.

def test_crossings_are_nodes(run10, constantin, powerlaw, state_at):
    zero = run10.r[run10.psi == 0.0]
    assert len(zero) == 9
    assert [c.r for c in transversality_check(run10)] == zero.tolist()
    # the power law and backward sweeps never open a window
    traj = integrate(powerlaw, 10.0, IntegrationConfig(r_max=100.0))
    assert not np.any(traj.psi == 0.0)
    bw = integrate_backward(constantin, 30.0, *state_at(run10, 30.0),
                            r_end=5.0)
    assert np.count_nonzero(np.diff(np.sign(bw.psi))) >= 4
    assert not np.any(bw.psi == 0.0)


def test_window_rejects_few_attempts(constantin):
    # f runs 3 times to start, 11 times per attempt and once more per
    # accepted step, for its end slope (a window adds 2 per crossing); the
    # plain 5(4) stepper rejected 11.9 % of its attempts here
    calls = [0]

    def counting_f(u):
        calls[0] += 1
        return constantin.f(u)

    config = IntegrationConfig(r_max=370.0, rel_tol=1e-9)
    traj = integrate(dataclasses.replace(constantin, f=counting_f), 20.0,
                     config)
    steps = int(np.count_nonzero(traj.r > config.r_handoff))
    assert 1.0 - steps / ((calls[0] - 3 - steps) / 11.0) < 0.05


@pytest.mark.parametrize("offset", [-0.01, 0.01, 0.2])
def test_window_ends_before_r_target(constantin, run10, state_at, offset):
    # r_max just before or after the first crossing: the window takes no
    # step past it, and the plain path lands on r_max
    r_max = float(run10.r[run10.psi == 0.0][0]) + offset
    traj = integrate(constantin, 10.0, IntegrationConfig(r_max=r_max))
    assert traj.termination is Termination.REACHED_RMAX
    assert traj.r[-1] == r_max and np.all(np.diff(traj.r) > 0.0)
    psi, beta = state_at(run10, r_max)
    assert abs(traj.psi[-1] - psi) < 1e-5 and abs(traj.beta[-1] - beta) < 1e-5


def test_window_bails_out_below_the_floor(constantin, run10, monkeypatch):
    # an F 1000 lower near psi = 0 puts E under the floor inside every
    # window, which then hands its last row back: the plain path crosses,
    # on the same f, to the same end state
    F, window, opened = constantin.F, integrator._window, []

    def counted(*args):
        opened.append(args[2][-1][0])  # the window's start r
        return window(*args)

    monkeypatch.setattr(integrator, "_window", counted)
    low = dataclasses.replace(
        constantin, F=lambda psi: F(psi) - (1e3 if abs(psi) < 0.1 else 0.0))
    traj = integrate(low, 10.0, IntegrationConfig(r_max=100.0))
    assert traj.termination is Termination.REACHED_RMAX
    assert len(opened) >= 5 and not np.any(traj.psi == 0.0)
    assert abs(traj.psi[-1] - run10.psi[-1]) < 1e-6
    assert abs(traj.beta[-1] - run10.beta[-1]) < 1e-6


# ---------------------------------------------------- hull bound property

_state = st.floats(-10.0, 10.0, allow_nan=False)
_slope = st.floats(-100.0, 100.0, allow_nan=False)
_step = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda h: h != 0.0)


@settings(max_examples=300, deadline=None)
@given(_state, _state, _state, _state, _slope, _slope, _slope, _slope, _step)
def test_hull_floor_bounds_hermite_radius(psi, beta, psi1, beta1, k1p, k1b,
                                          k7p, k7b, hs):
    seg = (psi, beta, psi1, beta1, k1p, k1b, k7p, k7b, hs)
    floor = float(_hull_floor(*(np.array([v]) for v in seg))[0])
    for k in range(101):
        s = k / 100.0
        rad = math.hypot(_hermite(psi, psi1, k1p, k7p, hs, s),
                         _hermite(beta, beta1, k1b, k7b, hs, s))
        assert floor <= rad


# --------------------------------------------- per-step dissipation
#
# An accepted step calls no Python function but f and F: its dissipation is
# the pair's weights on the stage betas it has already formed.  Only the cut
# step of a stopped run calls _dissipation, on beta's Hermite over the share
# of the step before the cut.

def _core_lines(text):
    """Source line numbers of the lines of _integrate_core holding text."""
    lines, first = inspect.getsourcelines(integrator._integrate_core)
    return [first + k for k, line in enumerate(lines) if text in line]


def _dense_stages(f, r, psi, beta, hs, kp, kb):
    """Beta slopes of stages 14-16 from scipy's DOP853 tableau, given the
    psi and beta slopes kp and kb of stages 1-13."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    kp, kb = list(kp), list(kb)
    for j in (13, 14, 15):
        weights = ref.A[j][:j].tolist()
        stage_beta = beta + hs * math.fsum(w * k for w, k in zip(weights, kb))
        stage_psi = psi + hs * math.fsum(w * k for w, k in zip(weights, kp))
        kp.append(stage_beta)
        kb.append(-stage_beta / (r + ref.C[j] * hs) - f(stage_psi))
    return kb[13:]


def _dense_dissipation(f, v):
    """int beta^2/r dr over the whole step in the core's locals v: 5-point
    Gauss on the pair's 7th-order dense beta, y + s (d0 + u (d1 + s (d2 +
    u (d3 + s (d4 + u (d5 + s d6)))))) with u = 1 - s, d0 = beta1 - beta,
    d1 = hs k1 - d0, d2 = 2 d0 - hs (k1 + k13) and d_m = hs sum_j D_mj k_j
    from scipy's tableau, stages 14-16 formed here."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    kp = [v[f"k{j}p"] for j in range(1, 14)]
    kb = [v[f"k{j}b"] for j in range(1, 14)]
    kb += _dense_stages(f, v["r"], v["psi"], v["beta"], v["hs"], kp, kb)
    r, hs, beta, beta1 = v["r"], v["hs"], v["beta"], v["beta1"]
    d0 = beta1 - beta
    d = [d0, hs * kb[0] - d0, d0 + d0 - hs * (kb[12] + kb[0])]
    d += [hs * math.fsum(w * k for w, k in zip(row.tolist(), kb))
          for row in ref.D]
    acc = 0.0
    for sg, wg in zip(integrator._GAUSS_S, integrator._GAUSS_W):
        u = 1.0 - sg
        b = beta + sg * (d[0] + u * (d[1] + sg * (d[2] + u * (d[3] + sg * (
            d[4] + u * (d[5] + sg * d[6]))))))
        acc += wg * b * b / (r + sg * hs)
    return hs * acc


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
def test_inlined_helpers_match_references(models, name, stop):
    # every full step's dissipation agrees with 5-point Gauss on the pair's
    # dense output over the whole step, its dense stages and coefficients
    # formed here from scipy's tableau: measured median 9.3e-13 relative and
    # at most 5.5e-10 of hs max(beta^2)/r.  The cut step of a stopped run is
    # _dissipation on beta's Hermite over the share s_cut before the cut,
    # bit for bit, and within 1e-15 relative of scipy's quad of the same
    # Hermite's beta^2/r (measured at most 5.2e-16)
    model = models[name]
    [at_step] = _core_lines("if last:")
    rel, scaled, cuts = [], [], []

    def local_trace(frame, event, arg):
        # a line event fires before its line runs, after the dissipation
        # append of the step
        if event == "line" and frame.f_lineno == at_step:
            v = frame.f_locals
            got, want = v["diss"][-1], _dense_dissipation(model.f, v)
            rel.append(abs(got - want) / abs(want))
            scaled.append(abs(got - want) * v["r"] / (
                abs(v["hs"]) * max(v["beta"] ** 2, v["beta1"] ** 2)))
        return local_trace

    def cut_trace(frame, event, arg):
        # the stepper's cut, in the helper it shares with the head scan
        if event == "return":
            v = frame.f_locals
            r, h1, s_cut = v["r"], v["h"], v["s"]
            ends = (v["beta"], v["beta1"], v["db0"], v["db1"])
            got = v["diss"][-1]
            assert got.hex() == integrator._dissipation(
                r, h1, *ends, s_cut).hex()
            want, _ = quad(lambda s: _hermite(*ends, h1, s) ** 2 / (
                r + s * h1), 0.0, s_cut, epsabs=0.0, epsrel=1e-13)
            want *= h1
            cuts.append(abs(got - want) / abs(want))
        return cut_trace

    def trace(frame, event, arg):
        if frame.f_code is integrator._integrate_core.__code__:
            return local_trace
        if (frame.f_code is integrator._cut.__code__
                and frame.f_back.f_code is integrator._integrate_core.__code__):
            return cut_trace
        return None

    sys.settrace(trace)
    try:
        traj = integrate(model, 10.0, IntegrationConfig(
            r_max=100.0, stop_at_zero_energy=stop))
    finally:
        sys.settrace(None)
    assert traj.termination is (Termination.EVENT if stop
                                else Termination.REACHED_RMAX)
    assert len(rel) > 100 and len(cuts) == (1 if stop else 0)
    assert float(np.median(rel)) <= 2e-12 and max(scaled) <= 1e-9
    assert all(c <= 1e-15 for c in cuts)


def test_phase_cap_halves_steps(constantin):
    # at tolerances of 0.5 the a = 10 orbit asks for steps that would turn
    # the phase by 0.9 pi or more; each is halved, so no stored step turns
    # it that far, and theta stays on atan2's branch up to whole turns
    [at_halve] = _core_lines("h *= 0.5")
    halved = [0]

    def local_trace(frame, event, arg):
        if event == "line" and frame.f_lineno == at_halve:
            halved[0] += 1
        return local_trace

    def trace(frame, event, arg):
        if frame.f_code is integrator._integrate_core.__code__:
            return local_trace
        return None

    sys.settrace(trace)
    try:
        traj = integrate(constantin, 10.0, IntegrationConfig(
            r_max=5000.0, rel_tol=0.5, abs_tol=0.5))
    finally:
        sys.settrace(None)
    assert traj.termination is Termination.REACHED_RMAX
    assert halved[0] > 0
    assert float(np.max(np.abs(np.diff(traj.theta)))) < 0.9 * math.pi
    turns = traj.theta - np.arctan2(traj.beta, traj.psi)
    two_pi = 2.0 * math.pi
    assert np.all(np.abs(turns - two_pi * np.round(turns / two_pi)) < 1e-9)


def test_no_per_step_helper_calls(constantin):
    # a setprofile guard over one run to the zero-energy stop and a whole
    # shooting solve: _cut runs once per run, and its _dissipation for the
    # cut step is the only one; the core never calls _hull_floor or
    # _step_minimum, which only closest_approach reaches (_step_minimum at
    # most twice per shot), and a step's radius is evaluated only by
    # _step_minimum's grid and its golden_min; and no Python function but f
    # and F is called from the core on more than a few steps
    from vortexplane import shoot_for_origin
    from_core, radius_callers, searches, quadratures = {}, set(), {}, []
    core = integrator._integrate_core.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        code, caller = frame.f_code, frame.f_back.f_code
        if caller is core:
            from_core[code.co_name] = from_core.get(code.co_name, 0) + 1
        if code is integrator._dissipation.__code__:
            quadratures.append(caller.co_name)
        if code is _step_minimum.__code__:
            searches[caller.co_name] = searches.get(caller.co_name, 0) + 1
        if code.co_qualname == "_step_minimum.<locals>.radius":
            # before Python 3.12 the comprehension is a frame of its own
            back = frame.f_back
            while back.f_code.co_name == "<listcomp>":
                back = back.f_back
            radius_callers.add(back.f_code.co_name)

    sys.setprofile(profile)
    try:
        traj = integrate(constantin, 10.0, IntegrationConfig(
            r_max=100.0, stop_at_zero_energy=True))
        result = shoot_for_origin(constantin, 2.0, 4.0, tol=1e-6)
    finally:
        sys.setprofile(None)
    assert traj.termination is Termination.EVENT
    assert from_core["_cut"] == 1 + len(result.history)
    assert quadratures == ["_cut"] * from_core["_cut"]
    assert not {"_hull_floor", "_step_minimum", "radius"} & set(from_core)
    assert radius_callers == {"golden_min", "_step_minimum"}
    assert list(searches) == ["closest_approach"]
    assert 0 < searches["closest_approach"] <= 2 * len(result.history)
    busy = {name for name, n in from_core.items() if n > 100}
    assert busy == {"f", "F"}


def test_window_calls_no_helper_per_stage(constantin, monkeypatch):
    # a setprofile guard over the a = 10 run: a crossing window steps r and
    # beta as two real components with its stages inlined and integrates
    # the dissipation with the pair's weights on them, so the only Python
    # functions it calls more than once per window are f and F; and no
    # nested function (an rhs closure) is compiled into it
    window, rows_added, from_window = integrator._window, [], {}
    code = window.__code__

    def counted(*args):
        n = len(args[2])
        out = window(*args)
        rows_added.append(len(args[2]) - n)
        return out

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code is code:
            name = frame.f_code.co_name
            from_window[name] = from_window.get(name, 0) + 1

    monkeypatch.setattr(integrator, "_window", counted)
    sys.setprofile(profile)
    try:
        integrate(constantin, 10.0, IntegrationConfig(r_max=100.0))
    finally:
        sys.setprofile(None)
    assert len(rows_added) >= 5 and sum(rows_added) > 10 * len(rows_added)
    busy = {name for name, n in from_window.items() if n > len(rows_added)}
    assert busy == {"f", "F"}
    assert not any(inspect.iscode(c) for c in code.co_consts)


def test_generated_loops_show_their_lines(constantin):
    # both stepper loops are compiled from text generated at import: an
    # error raised by f at a window's third stage shows that stage's line
    # in the traceback, and inspect.getsource returns the text that runs
    # (it compiles to the same bytecode), also after linecache.checkcache
    window, f, calls = integrator._window.__code__, constantin.f, [0]

    def failing_f(psi):
        if sys._getframe(1).f_code is window:
            calls[0] += 1
            if calls[0] == 3:  # k1b, stage 2, then stage 3
                raise ArithmeticError("f fails")
        return f(psi)

    model = dataclasses.replace(constantin, f=failing_f)
    with pytest.raises(ArithmeticError) as info:
        integrate(model, 10.0, IntegrationConfig(r_max=100.0))
    [frame] = [fs for fs in traceback.extract_tb(info.value.__traceback__)
               if fs.name == "_window"]
    assert frame.line.startswith("k3b = ") and "f(sig * t3 * t3)" in frame.line
    for refresh in (lambda: None, linecache.checkcache):
        refresh()
        for fn in (integrator._window, integrator._integrate_core):
            text = inspect.getsource(fn)
            [code] = [c for c in compile(text, "<text>", "exec").co_consts
                      if inspect.iscode(c)]
            assert code.co_code == fn.__code__.co_code


# ------------------------------------------------------------ shot sweep

@pytest.fixture(scope="module")
def shot_sweep(models):
    """Three models x a = 2, 2.25, ... 12 with the zero-energy stop: the
    sha256 of each run's termination, min_radius, min_radius_r and last
    row, the sha256 of the runs' rows-only and dissipation digests, and
    each run's termination and |E[0] - sum of its dissipation|."""
    digest, rows, diss = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    balance = []
    for name in sorted(models):
        for k in range(41):
            a = 2.0 + 0.25 * k
            traj = integrate(models[name], a, IntegrationConfig(
                r_max=50.0 + 0.8 * a * a, rel_tol=1e-9,
                stop_at_zero_energy=True))
            last = tuple(float(c[-1]) for c in (
                traj.r, traj.psi, traj.beta, traj.radius, traj.theta, traj.E))
            digest.update(repr((
                traj.termination.value, repr(traj.min_radius),
                repr(traj.min_radius_r), last)).encode())
            rows.update(_rows(traj).encode())
            diss.update(_diss(traj).encode())
            balance.append((traj.termination, abs(
                float(traj.E[0]) - math.fsum(traj.dissipation.tolist()))))
    return (digest.hexdigest(), rows.hexdigest(), diss.hexdigest()), balance


def test_pinned_shot_sweep(shot_sweep):
    # recorded with the stepper's origin capture in place, at its default
    # radius 1e-6, which no run of the sweep reached; re-recorded when the
    # zero-energy stop moved onto E's own Hermite (every termination and
    # side kept, r_stop moved by up to 0.011).  The rows digest was
    # recorded with the dissipation split off, before the steps integrated
    # it with the pair's weights, which kept it; the dissipation's after,
    # and again when the cut step's share moved from the pair's dense
    # output onto beta's Hermite.  All three were re-recorded when the
    # head's default end moved to r = 1 (every termination and side kept)
    assert shot_sweep[0] == (
        "e7e62ae01fb657e7356746d2f7989951e871f6b5a1bd2ea87686d8a1d39b77bb",
        "5796ebc5830c2fc5adb5e436ca8fff1413aec2023753f50d8ebf42a4d2a5effa",
        "347728c7c9195f7d6517a66b0aa7fbcf498249b29dde8bc361528150d365b92e")


def test_shot_sweep_balances(shot_sweep):
    # every run stops where E's Hermite falls through 0, so its dissipation
    # sums to E[0] up to the cut row's own energy error: at most 1.02e-5
    # (median 2.2e-7) with the cut step's share on the pair's dense output,
    # 9.97e-6 (median 2.7e-7) on beta's Hermite
    terms, gaps = zip(*shot_sweep[1])
    assert set(terms) == {Termination.EVENT} and len(gaps) == 123
    assert max(gaps) <= 1.1e-5


# ------------------------------------------- closest approach after the run

def _sampled_min(traj, r_from, n=201):
    """(R, i, s) of the smallest of n evenly spaced Hermite radii on each
    stored step at or past r_from, with node slopes from Trajectory.node."""
    slopes = np.array([(traj.node("psi", i)[1], traj.node("beta", i)[1])
                       for i in range(traj.n_points)])
    h = np.diff(traj.r)[:, None]
    s = np.linspace(0.0, 1.0, n)[None, :]
    t = 1.0 - s
    w = ((1.0 + 2.0 * s) * t * t, s * t * t * h, s * s * (3.0 - 2.0 * s),
         s * s * (s - 1.0) * h)
    psi, beta = (w[0] * y[:-1, None] + w[1] * d[:-1, None]
                 + w[2] * y[1:, None] + w[3] * d[1:, None]
                 for y, d in ((traj.psi, slopes[:, 0]),
                              (traj.beta, slopes[:, 1])))
    # r >= r_from in the local coordinate of r_from, which r[i] + s h can
    # miss by a rounding of r
    i0, s0 = traj.locate(r_from)
    step = np.arange(len(h))[:, None]
    rad = np.where((step > i0) | ((step == i0) & (s >= s0)),
                   np.hypot(psi, beta), np.inf)
    i, k = np.unravel_index(int(np.argmin(rad)), rad.shape)
    return float(rad[i, k]), int(i), k / (n - 1.0)


def _refined_sample(traj, r_from):
    """The 201-point sampling, and its best point refined by 2,001 points
    of the scalar Hermite within one spacing of it, on either side of a
    node."""
    sampled, i, s_best = _sampled_min(traj, r_from)
    windows = [(i, s_best - 0.005, s_best + 0.005)]
    if s_best == 1.0 and i + 2 < traj.n_points:
        windows.append((i + 1, 0.0, 0.005))
    if s_best == 0.0 and i > 0:
        windows.append((i - 1, 0.995, 1.0))
    refined = sampled
    i0, s0 = traj.locate(r_from)
    for j, s_lo, s_hi in windows:
        if j < i0:
            continue
        psi, beta = traj.hermite("psi", j), traj.hermite("beta", j)
        lo = max(s0 if j == i0 else 0.0, s_lo)
        for s in np.linspace(lo, min(1.0, s_hi), 2001).tolist():
            refined = min(refined, math.hypot(psi(s), beta(s)))
    return sampled, refined


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
def test_closest_approach_against_dense_sampling(models, name, stop):
    # never above a 201-point sampling of the stored steps, and within
    # 1e-12 of the orbit's scale of that sampling refined near its best
    # point, over the whole orbit and from r_from inside a step
    for a in (2.0, 3.0013, 5.5, 10.0):
        traj = integrate(models[name], a, IntegrationConfig(
            r_max=50.0 + 0.8 * a * a, rel_tol=1e-9, stop_at_zero_energy=stop))
        scale = float(np.max(traj.radius))
        j = 2 * traj.n_points // 3
        for r_from in (None, 0.5 * float(traj.r[j] + traj.r[j + 1])):
            r_at, value = traj.closest_approach(r_from)
            lo = float(traj.r[0]) if r_from is None else r_from
            sampled, refined = _refined_sample(traj, lo)
            assert value <= sampled
            assert abs(value - refined) <= 1e-12 * scale
            assert lo <= r_at <= float(traj.r[-1])


def _every_step_minimum(traj, r_from=None):
    """closest_approach with no floor and no order: _step_minimum on every
    stored step at or past r_from, in order of r, against the smallest node
    radius."""
    r, psi, beta, radius = traj.r, traj.psi, traj.beta, traj.radius
    i0, s0 = (0, 0.0) if r_from is None else traj.locate(r_from)
    first = i0 + 1 if s0 > 0.0 else i0
    k = first + int(np.argmin(radius[first:]))
    best_r, best = float(r[k]), float(radius[k])
    fp = traj.model.f_arr(psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(r == 0.0, -0.5 * fp, -beta / r - fp)
    dp = np.where(r == 0.0, 0.0, beta)
    cols = (psi[:-1], beta[:-1], psi[1:], beta[1:], dp[:-1], db[:-1],
            dp[1:], db[1:], np.diff(r))
    for i in range(i0, len(r) - 1):
        seg = tuple(float(c[i]) for c in cols)
        s, rad = _step_minimum(seg, s0 if i == i0 else 0.0)
        if rad < best:
            best_r, best = float(r[i]) + s * seg[-1], rad
    lo = float(r[0] if r_from is None else r_from)
    return min(max(best_r, lo), float(r[-1])), best


def test_closest_approach_equals_every_step_search(models, run10, run100):
    # skipping the steps whose hull floor is at or above the best value
    # found changes no bit: run10 whole and from inside a step, the last
    # quarter of run100 from inside a step, and zero-energy stops; each
    # also from just past its closest approach, inside the step that holds
    # it, where the search starts mid-step
    def mid(traj, share):
        j = int(share * (traj.n_points - 1))
        return 0.5 * float(traj.r[j] + traj.r[j + 1])

    def past_min(traj):
        i, _ = traj.locate(traj.min_radius_r)
        return 0.5 * (traj.min_radius_r + float(traj.r[i + 1]))

    runs = [(run10, None), (run10, mid(run10, 0.5)), (run10, past_min(run10)),
            (run100, mid(run100, 0.75))]
    for name in ("constantin", "example", "powerlaw"):
        for a in (2.5, 3.0013, 6.0):
            traj = integrate(models[name], a, IntegrationConfig(
                r_max=80.0, stop_at_zero_energy=True))
            assert traj.termination is Termination.EVENT
            runs += [(traj, None), (traj, mid(traj, 0.4)),
                     (traj, past_min(traj))]
    for traj, r_from in runs:
        assert traj.closest_approach(r_from) == _every_step_minimum(
            traj, r_from)


def test_min_radius_inside_stored_range(constantin):
    # the in-loop minimum used to fold in the uncut step past a stop, which
    # put min_radius_r beyond r[-1] on some of these runs
    for k in range(40):
        a = 2.0 + 0.25 * k
        traj = integrate(constantin, a, IntegrationConfig(
            r_max=80.0, stop_at_zero_energy=True))
        assert traj.r[0] <= traj.min_radius_r <= traj.r[-1]
        assert traj.min_radius <= float(np.min(traj.radius))


def test_capture_grid_idle_while_shooting(constantin, monkeypatch):
    # the core never scans a step's Hermite for the origin: in a whole
    # shooting solve a step's radius minimum is searched only from
    # closest_approach, at most twice per shot
    from vortexplane import shoot_for_origin
    calls = {}

    def counted(helper):
        def wrapper(*args):
            key = (helper.__name__, sys._getframe(1).f_code.co_name)
            calls[key] = calls.get(key, 0) + 1
            return helper(*args)
        return wrapper

    monkeypatch.setattr(integrator, "_step_minimum",
                        counted(integrator._step_minimum))
    result = shoot_for_origin(constantin, 2.0, 4.0, tol=1e-6)
    assert {caller for _, caller in calls} == {"closest_approach"}
    assert 0 < calls["_step_minimum", "closest_approach"] <= (
        2 * len(result.history))


# -------------------------------------------------------- input hardening

@pytest.mark.parametrize("field, value", [
    ("r_max", math.inf), ("r_max", math.nan), ("r_max", 0.0),
    ("r_max", -5.0), ("r_handoff", 0.0), ("r_handoff", math.nan),
    ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", math.inf),
    ("abs_tol", -1e-12), ("abs_tol", math.nan), ("max_steps", 0),
    ("rel_tol", 1.0), ("rel_tol", 1e300),
])
def test_config_rejects_bad_values(field, value):
    kwargs = {"r_max": 10.0, field: value}
    with pytest.raises(ParameterDomainError):
        IntegrationConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 1.0, True,
                                   False, "10", 0, -3])
def test_max_steps_must_be_a_whole_number(value):
    # a float budget was accepted, and nsteps >= nan never fires, so
    # max_steps=nan ran unlimited; a bool is an int but no step count
    with pytest.raises(ParameterDomainError, match="max_steps"):
        IntegrationConfig(r_max=10.0, max_steps=value)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_non_finite_amplitude_rejected(constantin, a):
    with pytest.raises(ParameterDomainError):
        integrate(constantin, a, IntegrationConfig(r_max=10.0))


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_start_state_rejected(constantin, backward, position,
                                         value):
    args = [6.0, 1.5, 0.2]
    args[position] = value
    name = (("T", "psi_T", "beta_T") if backward
            else ("r0", "psi0", "beta0"))[position]
    with pytest.raises(ParameterDomainError, match=f"^{name} must be finite"):
        if backward:
            integrate_backward(constantin, *args)
        else:
            integrate_from(constantin, *args, IntegrationConfig(r_max=10.0))
