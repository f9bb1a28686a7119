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
                         integrate_from)
from vortexplane import integrator
from vortexplane.analysis import _classification_config
from vortexplane.integrator import _hermite, _hermite_radius, _hull_floor


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
# bit for bit, and a cut step's stored Hermite is not the uncut one.

def _digest(traj):
    buf = io.StringIO()
    traj.to_csv(buf)
    return (hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            hashlib.sha256(traj.dissipation.tobytes()).hexdigest(),
            repr(traj.min_radius), repr(traj.min_radius_r),
            traj.termination.value)


_PINNED = {
    "run10": (
        "6a98d9efc3a314cf3a567dc60eaf42fd10310ecd76ebcee578ed1a1583b4a558",
        "a20e9093b4117fc3b630fd65f20545de270725ea1fbfc14bf975d84de9899dbf",
        "0.06577227565651607", "63.85128397989159", "reached_rmax"),
    "run100": (
        "5a577bdf0471d2b3f6e78ffdff8ab72e52a74be89189c3cb234c233ced7d223b",
        "ad7e6648bd56a00f5da0e3f0a50f55210f00fc34a2d50e49ad647ab35c974465",
        "0.9959691633741489", "1997.3004749503928", "reached_rmax"),
    "example": (
        "f2eb58e5a9e0e61f3aadc755530c1d1ae41ec7c4de554dc2d2926d3e17ca8d05",
        "746d7069602056a915903217aa5fcf7f405b4170ad38660217f1977e6d89e8e7",
        "0.06737836331839314", "63.43243863536576", "reached_rmax"),
    "powerlaw": (
        "0de206f2588e3b6937c889778f28d9c2d6354bc97281197c9d3dae4954925bc4",
        "d7865f96111275f1f7c1c7f11a5c18b6c66e17a28078c4bfff7b369a303d06d3",
        "0.05313947157723093", "48.29382933788288", "reached_rmax"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_orbit(request, name):
    if name.startswith("run"):
        traj = request.getfixturevalue(name)
    else:
        traj = integrate(request.getfixturevalue(name), 10.0,
                         IntegrationConfig(r_max=100.0))
    assert _digest(traj) == _PINNED[name]


def test_pinned_origin_capture(constantin):
    # a wide origin radius turns the a = 10 orbit's closest approach into
    # an origin capture found by the in-step refinement
    traj = integrate(constantin, 10.0,
                     IntegrationConfig(r_max=100.0, origin_radius=0.1))
    assert _digest(traj) == (
        "442b9215f97809afa92c9263613062be0a08a7e25e8675fb322e95ca8023d9ab",
        "fb483d70c0b02692ffa85e581b6034b3d3c50ad31a409085ff011f88f6e286c0",
        "0.09642318693890424", "63.53963559631905", "origin_reached")


def test_pinned_capture_against_energy_event(constantin):
    # the zero-energy stop at r = 60.42 comes before the capture at
    # r = 63.54 (test_pinned_origin_capture) and ends the run
    traj = integrate(constantin, 10.0, IntegrationConfig(
        r_max=100.0, origin_radius=0.1, stop_at_zero_energy=True))
    assert _digest(traj) == (
        "042b16670cb53568560d6fca61061a59f57e85849461e6d148c21af1df88c95e",
        "8c4b4cb900d3815f9f2e1c124d4031eab987fcfa4fc5f42042bce10c42fc176a",
        "0.1894060816655798", "54.340529770582215", "event")
    assert (traj.r[-1], traj.psi[-1], traj.beta[-1]) == (
        60.41671426815308, -1.2844392220872523, 0.5395760549152415)


@pytest.mark.parametrize("rel_tol, pinned", [
    (1e-3, ("4f47151883208cb2fb504b28de55a150d47fbfdf52ea300b89a0d890e5322c7d",
            "7787303122792f5e05f373da7ccb6ec22032f1602aff710a5e76170edf40eed4",
            "0.4681841216853815", "24.150535178990733", "origin_reached")),
    (1e-6, ("74227f69f027a4e5b322f87edf1a6a4ea84dc501ae169747634edba3c361c750",
            "d8e5279340395cae212fa559d8ed02eca4a64ca9316ec5c5478793d5d21697ed",
            "0.48121314537079024", "24.018378013934207", "origin_reached")),
])
def test_pinned_in_step_capture(constantin, rel_tol, pinned):
    # the orbit dips inside origin_radius and out again within one step, so
    # only the in-step search finds the capture, at s = 0.22 and 0.54
    traj = integrate_from(constantin, 5.0, 1.0, -2.0, IntegrationConfig(
        r_max=35.0, rel_tol=rel_tol, origin_radius=0.5))
    assert _digest(traj) == pinned
    assert traj.radius[-2] > 0.5 > traj.radius[-1] == traj.min_radius


def test_pinned_backward_sweep(constantin):
    traj = integrate_backward(constantin, 6.0, 1.5, 0.2)
    assert _digest(traj) == (
        "2f29424cd1dbe6985fc9a9515bb9b5329ef91f7266d519dec2ec588e1e2e4934",
        "1dd777ec7cd1b3e1fa8d30a3cdd549651324d6a174331d9728e9b28e5270ef8b",
        "1.4992166691760165", "5.916079783099616", "reached_rmax")


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
def test_start_inside_origin_radius_is_captured(constantin, psi0, beta0):
    # a start row with R < origin_radius ends the run before the first step;
    # stepping from the origin would meet the theta cap at a start angle of
    # +-pi (psi = -0.0) and halve h down to a step failure
    traj = integrate_from(constantin, 2.0, psi0, beta0,
                          IntegrationConfig(r_max=10.0))
    assert traj.termination is Termination.ORIGIN_REACHED
    assert traj.n_points == 1 and traj.dissipation.size == 0
    assert (traj.r[0], traj.min_radius, traj.min_radius_r) == (2.0, 0.0, 2.0)
    bw = integrate_backward(constantin, 6.0, 0.0, 0.0)
    assert bw.termination is Termination.ORIGIN_REACHED
    assert bw.n_points == 1 and bw.r[0] == 6.0


_PINNED_SHOTS = {
    "constantin": (
        ("right", "1.872941358853622", "1.606888590162289"),
        ("right", "5.509184527907573", "0.07956817120825264"),
        ("left", "9.062981806555173", "0.7221556932685982")),
    "example": (
        ("right", "1.8562727194449589", "1.6087594061005037"),
        ("right", "5.353506304956302", "0.10165397983964845"),
        ("left", "8.995646242982131", "0.7268545776473241")),
    "powerlaw": (
        ("right", "1.3038633608090473", "1.7514083861504457"),
        ("right", "3.422670763957496", "0.7523587292365531"),
        ("left", "5.92111885349081", "0.7763302209537044")),
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


# Rows-only digests, recorded before the closest approach left the stepper:
# the step sequence never read it, so every run keeps these bits.

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
    "capture": lambda m: integrate(m["constantin"], 10.0, IntegrationConfig(
        r_max=100.0, origin_radius=0.1)),
    "capture_stop": lambda m: integrate(m["constantin"], 10.0,
                                        IntegrationConfig(
                                            r_max=100.0, origin_radius=0.1,
                                            stop_at_zero_energy=True)),
    "in_step_0.001": lambda m: integrate_from(
        m["constantin"], 5.0, 1.0, -2.0,
        IntegrationConfig(r_max=35.0, rel_tol=1e-3, origin_radius=0.5)),
    "in_step_1e-06": lambda m: integrate_from(
        m["constantin"], 5.0, 1.0, -2.0,
        IntegrationConfig(r_max=35.0, rel_tol=1e-6, origin_radius=0.5)),
    "backward": lambda m: integrate_backward(m["constantin"], 6.0, 1.5, 0.2),
}
_ROW_RUNS.update({f"shot_{name}_{a:g}": _shot(name, a)
                  for name in ("constantin", "example", "powerlaw")
                  for a in (2.0, 3.0, 4.0)})

_ROWS = {
    "run10":
        "2de3b96b4be45a77bd9a990d849d1e46a69bbf9028974de02c5f61c04096867c",
    "run100":
        "b8a7d7937d25b4ec6640565b379a0735c6e8d131bce26397b3745c72798f453a",
    "example":
        "78a8f710b2b515d0828cc13cae16ef23c326b4033fc1620f45a8ba4984553ac7",
    "powerlaw":
        "07a0fbe4aff6a4e63e5c3d7efb4520728e25cc98741fd83b43dc357361ecff2a",
    "capture":
        "074cb4bbde42bb77db3c0de893e477d779109c3cc3ebc81a2983fded6e643002",
    "capture_stop":
        "0f22b76c5650b24bee502834e8b594666a122b6695e429738665bfdf5d68d9d6",
    "in_step_0.001":
        "3c912995281a6fb04a36ca748c94481739f040d9c698bd843f791fe49aa48183",
    "in_step_1e-06":
        "06a78a499569a6dab079a751509f4f524acd4d69a0aaa66f7171efd0c2747463",
    "backward":
        "c69ae2db647056544ef1b4506efd2fe2017ec79f45d6f66c5916a583af89a768",
    "shot_constantin_2":
        "4c5c28223f9c3de7c356081322d2a7ff2fc53152d904091f0385af4e52239a92",
    "shot_constantin_3":
        "bc7b65fa118ff89cc8f103d516d8440dcb6882109d4df5b13afe3a5cd6feec77",
    "shot_constantin_4":
        "b7fff16502d7b252fec9a02117bb4a53d4ddde5a4cf30c8c2d8a96d2b3facf4a",
    "shot_example_2":
        "fdcfe645f924323d44e4f265a45e162f5668064ea870a5346586d53be5af1fde",
    "shot_example_3":
        "ce1fa94b2203b4fc56747b89e99425d4b4b88ce989e92005dfbce27c5ca8233d",
    "shot_example_4":
        "903faa9e41bbbeed3440a661c78d36677448f9fd16e4919db3921f30802b3ff3",
    "shot_powerlaw_2":
        "a42fb778db3a198873dea7a3b728449e3597300297de66873d66b7a1f136cf05",
    "shot_powerlaw_3":
        "1e99bda2a2863ec3acac47406e829cb0e4eb03ddcc7a2f782283781b8af600ad",
    "shot_powerlaw_4":
        "1b1e84db78f4d1a774e1a96f8d41a651b639beb6d87a64b2895e28761d8ff33c",
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
        60.41671426815308, -1.2844392220872523, 0.5395760549152415)
    # the Picard head stores 17 rows; every later row but the cut row is
    # one accepted step, and the step holding the stop is one more
    steps = len(traj.r) - 17
    # 17 head rows, one per accepted step, and for the single crossing an
    # 11-point grid, the bisection and the cut row
    assert calls[0] == 17 + steps + 11 + 60 + 1


# ---------------------------------------------------- hull bound property

_state = st.floats(-10.0, 10.0, allow_nan=False)
_slope = st.floats(-100.0, 100.0, allow_nan=False)
_step = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda h: h != 0.0)


@settings(max_examples=300, deadline=None)
@given(_state, _state, _state, _state, _slope, _slope, _slope, _slope, _step)
def test_hull_floor_bounds_hermite_radius(psi, beta, psi1, beta1, k1p, k1b,
                                          k7p, k7b, hs):
    seg = (psi, beta, psi1, beta1, k1p, k1b, k7p, k7b, hs)
    # the core's copy on floats, and the closest-approach pass on arrays
    floor = max(float(_hull_floor(*seg, hypot=math.hypot)),
                float(_hull_floor(*(np.array([v]) for v in seg))[0]))
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
# inlined copies of _hull_floor and of the full-step _dissipation.  The
# tracer below holds both to their references bit for bit on every step
# that forms them; the full-step dissipation is pinned by the dissipation
# sha256s of _PINNED as well.  The capture gate's grid and search run only
# where the hull floor lies below origin_radius, so these runs take
# origin_radius 0.3, which the orbits reach at r = 34 to 54.

def _core_lines(text):
    """Source line numbers of the lines of _integrate_core holding text."""
    lines, first = inspect.getsourcelines(integrator._integrate_core)
    return [first + k for k, line in enumerate(lines) if text in line]


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("name", ["constantin", "example", "powerlaw"])
def test_inlined_helpers_match_references(models, name, stop):
    # a line event fires before its line runs: at the capture gate floor is
    # this step's, and after the dissipation append the last dissipation is
    [at_floor] = _core_lines("if not floor >= origin_radius:")
    [at_diss] = _core_lines("if radius1 < origin_radius:")
    checked = {at_floor: 0, at_diss: 0}

    def local_trace(frame, event, arg):
        if event == "line" and frame.f_lineno in checked:
            v = frame.f_locals
            seg = tuple(v[k] for k in ("psi", "beta", "psi1", "beta1", "k1p",
                                       "k1b", "k7p", "k7b", "hs"))
            if frame.f_lineno == at_floor:
                assert v["floor"].hex() == float(
                    _hull_floor(*seg, hypot=math.hypot)).hex()
            else:
                assert v["diss"][-1].hex() == integrator._dissipation(
                    v["r"], v["hs"], v["beta"], v["q0"], v["q1"], v["q2"],
                    v["q3"], 1.0).hex()
            checked[frame.f_lineno] += 1
        return local_trace

    def trace(frame, event, arg):
        if frame.f_code is integrator._integrate_core.__code__:
            return local_trace
        return None

    sys.settrace(trace)
    try:
        traj = integrate(models[name], 10.0, IntegrationConfig(
            r_max=100.0, origin_radius=0.3, stop_at_zero_energy=stop))
    finally:
        sys.settrace(None)
    assert traj.termination is Termination.ORIGIN_REACHED
    assert min(checked.values()) > 0, checked


def test_no_per_step_helper_calls(constantin):
    # a setprofile guard: _dissipation and the capture gate's grid and
    # search run once, for the cut step, _hull_floor never runs,
    # _hermite_radius runs only in the grid and inside golden_min, and no
    # Python function but f and F is called from the core on more than a
    # few steps
    from_core, radius_callers = {}, set()
    core = integrator._integrate_core.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if frame.f_back.f_code is core:
            from_core[code.co_name] = from_core.get(code.co_name, 0) + 1
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
            r_max=100.0, origin_radius=0.3, stop_at_zero_energy=True))
    finally:
        sys.setprofile(None)
    assert traj.termination is Termination.ORIGIN_REACHED
    assert from_core["_dissipation"] == from_core["_radius_search"] == 1
    assert from_core["_radius_grid"] == 1
    assert "_hull_floor" not in from_core
    assert radius_callers == {"golden_min", "_radius_grid"}
    busy = {name for name, n in from_core.items() if n > 100}
    assert busy == {"f", "F"}


# ------------------------------------------------------------ shot sweep

@pytest.fixture(scope="module")
def shot_sweep(models):
    """Three models x a = 2, 2.25, ... 12 x origin_radius 1e-6 and 0.1 with
    the zero-energy stop: the sha256 of each run's termination, min_radius,
    min_radius_r and last row, and the sha256 of the runs' rows-only
    digests."""
    digest, rows = hashlib.sha256(), hashlib.sha256()
    for name in sorted(models):
        for k in range(41):
            a = 2.0 + 0.25 * k
            for origin_radius in (1e-6, 0.1):
                traj = integrate(models[name], a, IntegrationConfig(
                    r_max=50.0 + 0.8 * a * a, rel_tol=1e-9,
                    origin_radius=origin_radius, stop_at_zero_energy=True))
                last = tuple(float(c[-1]) for c in (
                    traj.r, traj.psi, traj.beta, traj.radius, traj.theta,
                    traj.E))
                digest.update(repr((
                    traj.termination.value, repr(traj.min_radius),
                    repr(traj.min_radius_r), last)).encode())
                rows.update(_rows(traj).encode())
    return digest.hexdigest(), rows.hexdigest()


def test_pinned_shot_sweep(shot_sweep):
    assert shot_sweep == (
        "70135b23b42d5790ed96f3a3588930ccd9f2970c8b771a723dd1b4bfd04e2ab6",
        "46d5d215f45606814a00362f2bf9fd647f66f41da882c53b6471117a2d291ae3")


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
    rad = np.where(traj.r[:-1, None] + s * h >= r_from,
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
    for j, s_lo, s_hi in windows:
        psi, beta = traj.hermite("psi", j), traj.hermite("beta", j)
        h = float(traj.r[j + 1] - traj.r[j])
        for s in np.linspace(max(0.0, s_lo), min(1.0, s_hi), 2001).tolist():
            if float(traj.r[j]) + s * h >= r_from:
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
    # the in-loop minimum used to fold in the uncut step past a stop: on
    # 11 of these 80 runs min_radius_r lay beyond r[-1]
    for k in range(40):
        a = 2.0 + 0.25 * k
        for origin_radius in (1e-6, 0.1):
            traj = integrate(constantin, a, IntegrationConfig(
                r_max=80.0, origin_radius=origin_radius,
                stop_at_zero_energy=True))
            assert traj.r[0] <= traj.min_radius_r <= traj.r[-1]
            assert traj.min_radius <= float(np.min(traj.radius))


def test_capture_grid_idle_while_shooting(constantin, monkeypatch):
    # the core scans a step's Hermite only where its hull floor lies below
    # origin_radius; a whole shooting solve never gets there
    from vortexplane import shoot_for_origin
    calls = {}
    search = integrator._radius_search

    def counted(*args):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return search(*args)

    monkeypatch.setattr(integrator, "_radius_search", counted)
    result = shoot_for_origin(constantin, 2.0, 4.0, tol=1e-6)
    assert "_integrate_core" not in calls
    assert 0 < calls["closest_approach"] <= 2 * len(result.history)


# -------------------------------------------------------- input hardening

@pytest.mark.parametrize("field, value", [
    ("r_max", math.inf), ("r_max", math.nan), ("r_max", 0.0),
    ("r_max", -5.0), ("r_handoff", 0.0), ("r_handoff", math.nan),
    ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", math.inf),
    ("abs_tol", -1e-12), ("abs_tol", math.nan), ("max_steps", 0),
    ("origin_radius", math.nan), ("origin_radius", -1.0),
    ("origin_radius", 0.0), ("origin_radius", math.inf),
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
