import dataclasses
import hashlib
import inspect
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from vortexplane import (IntegrationConfig, ParameterDomainError, Termination,
                         classify_shot, integrate, integrate_backward,
                         integrate_from, transversality_check)
from vortexplane import integrator
from vortexplane.analysis import _classification_config
from vortexplane.integrator import _hermite, _hermite_radius, _hull_floor


def test_tableau_matches_scipy():
    # every hard-coded DOP853 constant equals scipy's: A (with B its 13th
    # row), C, E3, E5 and the dense-output rows D; a weight that scipy
    # holds as zero has no constant.  Each stage's A row sums to its node
    # to 1e-15 of the row's absolute sum: weights up to 43 in size carry
    # rounding of a few 1e-15 each, so that is the sum's own resolution.
    from scipy.integrate._ivp import dop853_coefficients as ref

    def named(prefix, i):
        return getattr(integrator, f"{prefix}{i}", None)

    for i in range(2, 17):
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
    for m in range(3, 7):
        row = [named(f"_D{m}_", j) for j in range(1, 17)]
        assert [0.0 if v is None else v for v in row] == ref.D[m - 3].tolist()


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
    a = 10.0
    t1 = integrate(constantin, a, IntegrationConfig(r_max=50.0, r_handoff=1.0 / 16.0))
    t2 = integrate(constantin, a, IntegrationConfig(r_max=50.0, r_handoff=1.0 / 32.0))
    p1, b1 = state_at(t1, 50.0)
    p2, b2 = state_at(t2, 50.0)
    assert abs(p1 - p2) < 1e-6
    assert abs(b1 - b2) < 1e-6


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
# 5(4) pair: it stores one row per accepted step, about 4x fewer rows.

def _digest(traj):
    buf = io.StringIO()
    traj.to_csv(buf)
    return (hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            hashlib.sha256(traj.dissipation.tobytes()).hexdigest(),
            repr(traj.min_radius), repr(traj.min_radius_r),
            traj.termination.value)


_PINNED = {
    "run10": (
        "db7419b999709d5bd2120aec47d0a71cf90eeb34387e1476c20481d03ed71956",
        "4adcba1cb8454348ebd712bf75f69cff947a1bd775f48be4a590146d338407c8",
        "0.06577157320082933", "63.851279557813626", "reached_rmax"),
    "run100": (
        "23a37e130432ca2085aad92aab24a9a6a565074e4afa30e21bada23bd301e72a",
        "3d8bd3c97b582be7afa695ea1ad3cb9a7f31cf5fd52d36e570d88f8139b1fdcb",
        "0.995929722302343", "1997.3097086528517", "reached_rmax"),
    "example": (
        "a4b29e309dc5469f44437f2ca49b5125e255037c81da8d0d8e54d22302d39d7f",
        "7c7d5ff747160487de4fb9b8f7c684aac7b343dcb7e66511bfc5e355ba74d75c",
        "0.0673779676308721", "63.43242623465643", "reached_rmax"),
    "powerlaw": (
        "48cd95a47963acf22c1ecb1fd7d428c72dfa440f6c0218b11498231164cf0ee6",
        "5ea6e36f4a03e0348d82b841e1769eee7358db711b7ce58e7ddd3d49ff2ef79d",
        "0.053139447371702585", "48.29383262544251", "reached_rmax"),
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
        "2c3abcdf5c9d149cd121f478ca538faceccde15065d0eafd13d0b599572af7bb",
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
    assert _rows(made) == _rows(traj)
    for r in (2.0, 3.0):
        with pytest.raises(ParameterDomainError, match="no steps"):
            traj.locate(r)
    assert traj.closest_approach() == traj.closest_approach(2.0) == (2.0,
                                                                      1e-7)
    with pytest.raises(ParameterDomainError):
        traj.closest_approach(2.5)


_PINNED_SHOTS = {
    "constantin": (
        ("right", "1.8729411547254216", "1.606888652432775"),
        ("right", "5.509232632080097", "0.07956044774012183"),
        ("left", "9.062835163192794", "0.7221463520931478")),
    "example": (
        ("right", "1.8562726925042867", "1.60875941427084"),
        ("right", "5.353558795953192", "0.10164408335115938"),
        ("left", "8.995507182339917", "0.7268453882675049")),
    "powerlaw": (
        ("right", "1.3038631180855955", "1.751408437573355"),
        ("right", "3.42267079217478", "0.7523587021721206"),
        ("left", "5.920966334427431", "0.7763299935091983")),
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
# closest approach.  All were re-recorded with the DOP853 pair.

def _rows(traj):
    """sha256 of what the step sequence decides: the six stored columns
    (which fix the CSV), the dissipation and the termination."""
    digest = hashlib.sha256()
    for col in (traj.r, traj.psi, traj.beta, traj.radius, traj.theta,
                traj.E, traj.dissipation):
        digest.update(col.tobytes())
    digest.update(traj.termination.value.encode())
    return digest.hexdigest()


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
        "a1d03b5a8c7fb2aaa565dbe60acef6fa9b7f3ae11334571665dde167066e4c42",
    "run100":
        "e90ebc741ed47b7e483def7b74b40ea5cf2c18f3315c151cfe6a89ccacd319a3",
    "example":
        "39cf90d061056b0cb2b6d43a2874815e945656100e06d555ed0b1fe04513d663",
    "powerlaw":
        "88e0df0b10f722188e0e5ffbf940d18b57dd5b14971ab114ee2f337878dbc127",
    # no crossing
    "constantin_a2":
        "cbf3094f50ec41a706890077b7cf29d85dc2003a4057b400867dc53ee630c950",
    "example_a2":
        "45b7490a3b76f6aeb5346803d8acb0e4ff720221840a598fa8847eaef85c48a8",
    "near_origin_0.001":
        "3f2d4100697ca18326a5278e06b9758a4674cb4b2329d99d206042ff828e4b23",
    "near_origin_1e-06":
        "ad2df0eb3aadafeb782e6a04827995309d785ef48901d714e4691dc4fe75a13b",
    "backward":
        "1eef1bf3ce187c9551b7562101ffd65aa72853ac2ad4e1afc49d18a12ecdca87",
    "shot_constantin_2":
        "17b85cb92c9f6a2ea0ea2abcad238bd1c1a22cc62f419993b93dc1a53321b202",
    "shot_constantin_3":
        "3a73495e11ae1c910d9e610693b4a3422da54647512e8b09f26844cf1a05f566",
    "shot_constantin_4":
        "2c498f245a214a867b078e64ef426a7f5d6efb5c3fdf2f0621200442b0b005b6",
    "shot_example_2":
        "7e3030a9e2d3c85db8ec9b4dd8bb47bf22dedfca8f1e9396a024a1adc5882881",
    "shot_example_3":
        "c9659a1c7caa351dde2f5677e501edb08823ad6578e8292aa7253927f9a00f3e",
    "shot_example_4":
        "bbb0ba67cc5e1999e5c2350e92880b8a2b00b050d43ca21f14a2b024b112664c",
    "shot_powerlaw_2":
        "c9df4c392bf64362a154f1ccf704d77362529c9979ee7aa6ce5ba3a01602d23a",
    "shot_powerlaw_3":
        "a9782ee25988be28c6a9e11be747255d18a5a9b4ef2c6dfece1a72bf9574a388",
    "shot_powerlaw_4":
        "44af80d1b45bdeb4cf2cff52eb0f11f7dc6da92a44d6923ba8d009dc86ab832a",
}


@pytest.mark.parametrize("name", sorted(_ROWS))
def test_rows_unchanged(request, models, name):
    if name in _ROW_RUNS:
        traj = _ROW_RUNS[name](models)
    else:
        traj = request.getfixturevalue(name)
    assert _rows(traj) == _ROWS[name]


def test_event_fn_called_once_per_accepted_step(constantin):
    # the stop reads the stored E of each accepted step, so F is called once
    # per row and per accepted step, plus the stop's search and cut row
    calls = [0]

    def counting_F(psi):
        calls[0] += 1
        return constantin.F(psi)

    model = dataclasses.replace(constantin, F=counting_F)
    traj = integrate(model, 10.0, IntegrationConfig(
        r_max=100.0, stop_at_zero_energy=True))
    assert traj.termination is Termination.EVENT
    assert (traj.r[-1], traj.psi[-1], traj.beta[-1]) == (
        60.41665374119911, -1.2844724429737688, 0.5395667507592703)
    # the Picard head stores 17 rows; every later row but the cut row is
    # one accepted step, and the step holding the stop is one more
    steps = len(traj.r) - 17
    # 17 head rows, one per accepted step, and for the single crossing an
    # 11-point grid, the bisection and the cut row
    assert calls[0] == 17 + steps + 11 + 60 + 1


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
    # f runs 3 times to start, 11 times per attempt and 4 more times per
    # accepted step (a window adds 2 per crossing); the plain 5(4) stepper
    # rejected 11.9 % of its attempts here
    calls = [0]

    def counting_f(u):
        calls[0] += 1
        return constantin.f(u)

    traj = integrate(dataclasses.replace(constantin, f=counting_f), 20.0,
                     IntegrationConfig(r_max=370.0, rel_tol=1e-9))
    steps = int(np.count_nonzero(traj.r > 0.0625))
    assert 1.0 - steps / ((calls[0] - 3 - 4 * steps) / 11.0) < 0.05


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
        opened.append(args[2])
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
        assert _hermite_radius(s, psi, beta, psi1, beta1, k1p, k1b, k7p,
                               k7b, hs) == rad
        assert floor <= rad


# --------------------------------------------- inlined per-step helpers
#
# An accepted step calls no Python function but f and F: the core carries
# inlined copies of the dense-output coefficients _dense and of the
# full-step _dissipation.  The tracer below holds both to their references
# bit for bit on every accepted step; the full-step dissipation is pinned by
# the dissipation sha256s of _PINNED as well.

def _core_lines(text):
    """Source line numbers of the lines of _integrate_core holding text."""
    lines, first = inspect.getsourcelines(integrator._integrate_core)
    return [first + k for k, line in enumerate(lines) if text in line]


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
def test_inlined_helpers_match_references(models, name, stop):
    # a line event fires before its line runs: at the test of last that
    # follows the dissipation append, the last dissipation is this step's
    [at_diss] = _core_lines("if last:")
    checked = [0]

    def local_trace(frame, event, arg):
        if event == "line" and frame.f_lineno == at_diss:
            v = frame.f_locals
            dense = tuple(v[f"d{m}"] for m in range(7))
            ks = [v[f"k{j}b"] for j in (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                        16)]
            assert [d.hex() for d in dense] == [d.hex() for d in (
                integrator._dense(v["hs"], v["beta"], v["beta1"], *ks))]
            assert v["diss"][-1].hex() == integrator._dissipation(
                v["r"], v["hs"], v["beta"], dense, 1.0).hex()
            checked[0] += 1
        return local_trace

    def trace(frame, event, arg):
        if frame.f_code is integrator._integrate_core.__code__:
            return local_trace
        return None

    sys.settrace(trace)
    try:
        traj = integrate(models[name], 10.0, IntegrationConfig(
            r_max=100.0, stop_at_zero_energy=stop))
    finally:
        sys.settrace(None)
    assert traj.termination is (Termination.EVENT if stop
                                else Termination.REACHED_RMAX)
    assert checked[0] > 0


def test_no_per_step_helper_calls(constantin):
    # a setprofile guard over one run to the zero-energy stop and a whole
    # shooting solve: _dissipation runs once per run, for the cut step; the
    # core never calls _hull_floor or the radius helpers, which only
    # closest_approach reaches (_radius_search at most twice per shot);
    # and no Python function but f and F is called from the core on more
    # than a few steps
    from vortexplane import shoot_for_origin
    from_core, radius_callers, searches = {}, set(), {}
    core = integrator._integrate_core.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        code, caller = frame.f_code, frame.f_back.f_code
        if caller is core:
            from_core[code.co_name] = from_core.get(code.co_name, 0) + 1
        if code.co_name == "_radius_search":
            searches[caller.co_name] = searches.get(caller.co_name, 0) + 1
        if code is _hermite_radius.__code__:
            # the lambda and, before Python 3.12, the comprehension are
            # frames of their own
            back = frame.f_back
            while back.f_code.co_name in ("<lambda>", "<listcomp>"):
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
    assert from_core["_dissipation"] == 1 + len(result.history)
    assert not {"_hull_floor", "_radius_grid", "_radius_search",
                "_hermite_radius"} & set(from_core)
    assert radius_callers == {"golden_min", "_radius_grid"}
    assert list(searches) == ["closest_approach"]
    assert 0 < searches["closest_approach"] <= 2 * len(result.history)
    busy = {name for name, n in from_core.items() if n > 100}
    assert busy == {"f", "F"}


# ------------------------------------------------------------ shot sweep

@pytest.fixture(scope="module")
def shot_sweep(models):
    """Three models x a = 2, 2.25, ... 12 with the zero-energy stop: the
    sha256 of each run's termination, min_radius, min_radius_r and last
    row, and the sha256 of the runs' rows-only digests."""
    digest, rows = hashlib.sha256(), hashlib.sha256()
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
    return digest.hexdigest(), rows.hexdigest()


def test_pinned_shot_sweep(shot_sweep):
    # recorded with the stepper's origin capture in place, at its default
    # radius 1e-6, which no run of the sweep reached
    assert shot_sweep == (
        "d4c19d35071397d84b4caef7f516666a55dc8e766ee9b61cc705645ba9302941",
        "9f9795704a4cebd7d22b007317750abb48cb11e5b82392b83f0719e007aa7ed4")


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
    # shooting solve the radius grid and search are reached only from
    # closest_approach, the search at most twice per shot
    from vortexplane import shoot_for_origin
    calls = {}

    def counted(helper):
        def wrapper(*args):
            key = (helper.__name__, sys._getframe(1).f_code.co_name)
            calls[key] = calls.get(key, 0) + 1
            return helper(*args)
        return wrapper

    for name in ("_radius_grid", "_radius_search"):
        monkeypatch.setattr(integrator, name,
                            counted(getattr(integrator, name)))
    result = shoot_for_origin(constantin, 2.0, 4.0, tol=1e-6)
    assert {caller for _, caller in calls} == {"closest_approach"}
    assert 0 < calls["_radius_search", "closest_approach"] <= (
        2 * len(result.history))


# -------------------------------------------------------- input hardening

@pytest.mark.parametrize("field, value", [
    ("r_max", math.inf), ("r_max", math.nan), ("r_max", 0.0),
    ("r_max", -5.0), ("r_handoff", 0.0), ("r_handoff", math.nan),
    ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", math.inf),
    ("abs_tol", -1e-12), ("abs_tol", math.nan), ("max_steps", 0),
])
def test_config_rejects_bad_values(field, value):
    kwargs = {"r_max": 10.0, field: value}
    with pytest.raises(ParameterDomainError):
        IntegrationConfig(**kwargs)


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
