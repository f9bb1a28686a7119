import hashlib
import inspect
import json
import math
import os
import sys

import numpy as np
import pytest

from vortexplane import (HypothesisViolationError, IntegrationConfig,
                         NoBracketError, ParameterDomainError, RingSpec,
                         classify_shot, crossing_sequence, e_region_entry,
                         integrate, rate_onset_radius, ring_entry,
                         scan_for_bracket, shoot_for_origin,
                         transversality_check, verify_crossing_bounds)
from vortexplane import (admissibility, analysis, fixedpoint, phaseplane,
                         search, vorticity)
from vortexplane.integrator import Termination, Trajectory, arrival_start


def test_ring_spec_floor(constantin, example):
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    assert ring.liminf_floor == 1.0
    # the modulated model has c > 0, pushing the admissible floor to
    # (1 + c)^(1/nu) - 1 = (1.01)^2 - 1
    with pytest.raises(ParameterDomainError):
        RingSpec.for_model(example, 0.02, 0.1)
    ok = RingSpec.for_model(example, 0.05, 0.1)
    assert ok.liminf_floor == pytest.approx(1.01 ** 2)
    with pytest.raises(ParameterDomainError):
        RingSpec(epsilon=0.1, delta=0.1, c=0.0, nu=0.5)
    with pytest.raises(ParameterDomainError):
        RingSpec(epsilon=0.05, delta=0.1, c=0.0, nu=1.5)


def test_ring_spec_refuses_infinite_delta(constantin):
    with pytest.raises(ParameterDomainError):
        RingSpec.for_model(constantin, 0.05, math.inf)


def test_ring_rate_eta():
    ring = RingSpec(epsilon=0.05, delta=0.1, c=0.0, nu=0.5)
    r_minus = 40.0
    expected = 1.0 - 0.5 / 40.0 - 1.05 ** -0.5
    assert math.isclose(ring.rate_eta(r_minus), expected, rel_tol=1e-15)
    assert ring.rate_eta(r_minus) > 0.0


@pytest.mark.parametrize("r_minus", [0.0, -1.0, math.nan, math.inf])
def test_ring_rate_eta_rejects_bad_radius(r_minus):
    ring = RingSpec(epsilon=0.05, delta=0.1, c=0.0, nu=0.5)
    with pytest.raises(ParameterDomainError):
        ring.rate_eta(r_minus)


@pytest.mark.parametrize("slack", [math.nan, math.inf])
def test_crossing_bounds_refuse_non_finite_slack(constantin, run10, slack):
    # a nan slack fails every bound and an infinite one passes every bound
    seq = crossing_sequence(run10, r_start=20.0, r_end=50.0)
    with pytest.raises(ParameterDomainError):
        verify_crossing_bounds(run10, seq,
                               RingSpec.for_model(constantin, 0.05, 0.1),
                               slack=slack)


def test_crossing_bounds_refuse_window_from_origin(constantin, run10):
    # the default window starts at r[0] = 0, where the certified rate
    # 1 - 1/(2 r_minus) - (1+eps)^-nu has no value
    seq = crossing_sequence(run10, r_end=50.0)
    assert seq.r_start == 0.0 and seq.count > 0
    with pytest.raises(ParameterDomainError):
        verify_crossing_bounds(run10, seq,
                               RingSpec.for_model(constantin, 0.05, 0.1))


def test_energy_entry_frozen(run10):
    entry = e_region_entry(run10)
    assert entry is not None
    assert abs(entry.r_cross - 60.41671079364288) < 1e-6
    assert entry.side == "left"
    assert entry.psi < 0.0
    assert entry.transversal
    assert entry.rate < 0.0
    assert entry.energy_after < 0.0


def test_energy_entry_requires_positive_start(constantin, run10, state_at):
    entry = e_region_entry(run10)
    tail = integrate(constantin, 10.0, IntegrationConfig(r_max=100.0))
    # re-running from inside {E < 0} violates the hypothesis
    psi, beta = state_at(tail, entry.r_cross + 5.0)
    from vortexplane import integrate_from
    inner = integrate_from(constantin, entry.r_cross + 5.0, psi, beta,
                           IntegrationConfig(r_max=90.0))
    with pytest.raises(HypothesisViolationError):
        e_region_entry(inner)


def test_energy_entry_refuses_a_stopped_run(models):
    # a stopped run's last row is its crossing; test_stop_is_the_energy_entry
    # compares it with the entry of the orbit run on
    for model in models.values():
        for a in range(2, 13):
            traj = integrate(model, float(a), analysis._classification_config(
                float(a), 1e-9, model))
            assert traj.termination is Termination.EVENT
            with pytest.raises(ParameterDomainError, match="stopped run"):
                e_region_entry(traj)


def test_transversality_roster(run10):
    crossings = transversality_check(run10)
    assert len(crossings) == 9
    for c in crossings:
        assert abs(c.psi) < 1e-8
        assert c.residual < 1e-8
        assert c.transversal
    radii = [c.r for c in crossings]
    assert radii == sorted(radii)


def test_ring_entry_frozen(constantin, run100):
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    entry = ring_entry(run100, ring)
    assert entry is not None
    assert abs(entry.r_entry - 1770.732520980025) < 1e-5
    assert entry.min_radius_after <= 1.05
    assert entry.min_radius_after >= 0.0
    assert entry.r_entry < entry.min_radius_r <= float(run100.r[-1])


def test_ring_entry_requires_wide_start(constantin):
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    traj = integrate(constantin, 5.0, IntegrationConfig(r_max=10.0))
    with pytest.raises(HypothesisViolationError):
        ring_entry(traj, ring)


def test_entries_none_without_crossing(constantin):
    # up to r = 5 the a = 10 orbit stays far outside the ring and at E > 0
    traj = integrate(constantin, 10.0, IntegrationConfig(r_max=5.0))
    assert float(np.min(traj.radius)) > 1.1 and float(traj.E[-1]) > 0.0
    assert ring_entry(traj, RingSpec.for_model(constantin, 0.05, 0.1)) is None
    assert e_region_entry(traj) is None


def _count_calls(code, fn, *args):
    """Calls of the function with this code object while fn(*args) runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_scans_read_stored_nodes(constantin, run10, run100):
    # a setprofile guard: the crossings a window stored as nodes are read,
    # not searched, and the rate margin takes the slopes from the columns
    refine = analysis._refine_crossing.__code__
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    seq = crossing_sequence(run100, r_start=rate_onset_radius(run100, ring),
                            r_end=1990.0)
    assert _count_calls(refine, transversality_check, run10) == 0
    assert _count_calls(Trajectory.node.__code__, verify_crossing_bounds,
                        run100, seq, ring) == 0
    # the guard sees the search it forbids: the energy entry refines a step
    assert _count_calls(refine, e_region_entry, run10) == 1


def test_rate_onset_frozen(constantin, run100):
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    r_minus = rate_onset_radius(run100, ring)
    assert abs(r_minus - 35.61113293026504) < 1e-6
    # (1 + 1e-4)^(-1/2) leaves the rotation budget short of its 0.01 margin
    with pytest.raises(HypothesisViolationError):
        rate_onset_radius(run100, RingSpec.for_model(constantin, 1e-4, 0.1))


def test_crossing_sequence_run100(constantin, run100):
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    r_minus = rate_onset_radius(run100, ring)
    seq = crossing_sequence(run100, r_start=r_minus, r_end=1990.0)
    assert seq is not None
    assert seq.count == 195
    assert len(seq.r_minus) == len(seq.r_plus)
    assert np.all(seq.r_minus < seq.r_plus)
    assert np.all(np.diff(seq.r_plus) > 0.0)
    assert np.all(seq.r_minus >= r_minus)
    gaps = seq.r_plus - seq.r_minus
    # each passage takes at least one third of a turn divided by the top
    # angular speed, and the audit confirms the linear-in-n envelope
    assert float(np.min(gaps)) >= math.pi / 3.0 - 1e-3
    report = verify_crossing_bounds(run100, seq, ring, slack=1e-3)
    assert report.ok


def test_theta_nodes_match_bisection(run100):
    # the per-target bisection the node search replaced, kept as reference
    def bisect(th, target, lo, hi):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if th[mid] >= target:
                lo = mid
            else:
                hi = mid
        return lo

    i_lo, _ = run100.locate(1500.0)
    i_hi = run100.locate(1600.0)[0] + 1
    th = run100.theta
    window = th[i_lo:i_hi + 1]
    # every node value, i_hi's included, and the midpoints between them
    targets = np.concatenate([window, 0.5 * (window[1:] + window[:-1])])
    nodes = analysis._theta_nodes(window, targets.tolist(), i_lo)
    assert nodes.tolist() == [bisect(th, t, i_lo, i_hi) for t in targets]


def test_crossing_sequence_stalls_to_none(run10):
    # inside the potential well the angle is no longer strictly decreasing
    seq = crossing_sequence(run10, r_start=50.0, r_end=90.0)
    assert seq is None


def test_crossing_sequence_window_validation(run10):
    with pytest.raises(ParameterDomainError):
        crossing_sequence(run10, r_start=90.0, r_end=50.0)
    with pytest.raises(ParameterDomainError):
        crossing_sequence(run10, r_start=0.0, r_end=1e9)


def _scalar_radii(traj, seq):
    """The radii of seq's targets from one scalar _refine_crossing each,
    on the node _theta_nodes picks for it."""
    i_lo, _ = traj.locate(seq.r_start)
    i_end, s_end = traj.locate(seq.r_end)
    theta_end = traj.hermite("theta", i_end)(s_end)
    taus, n = [], 1
    while seq.theta_start + analysis._THETA1 - phaseplane.TWO_PI * n \
            >= theta_end:
        taus += [seq.theta_start + analysis._THETA0 - phaseplane.TWO_PI * n,
                 seq.theta_start + analysis._THETA1 - phaseplane.TWO_PI * n]
        n += 1
    nodes = analysis._theta_nodes(traj.theta[i_lo:i_end + 2], taus, i_lo)
    return np.array([analysis._refine_crossing(traj, "theta", tau,
                                               int(i))[0]
                     for tau, i in zip(taus, nodes)])


def test_crossing_sequence_matches_scalar_search(constantin, example,
                                                 powerlaw, run10, run100):
    # the array bisection finds every target's radius with the bits of the
    # scalar search, on both constantin runs, strictly decreasing spans of
    # the other two families, a span short of one turn and a one-turn span
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    ex10 = integrate(example, 10.0, IntegrationConfig(r_max=100.0))
    pw10 = integrate(powerlaw, 10.0, IntegrationConfig(r_max=100.0))
    spans = [(run10, 20.0, 50.0, None), (run10, 0.0, 50.0, None),
             (run100, rate_onset_radius(run100, ring), 1990.0, 195),
             (ex10, 5.0, e_region_entry(ex10).r_cross, None),
             (pw10, 5.0, e_region_entry(pw10).r_cross, None),
             (run10, 20.0, 21.0, 0), (run10, 20.0, 32.0, 1)]
    for traj, r_start, r_end, count in spans:
        seq = crossing_sequence(traj, r_start=r_start, r_end=r_end)
        assert seq is not None
        if count is not None:
            assert seq.count == count
        radii = _scalar_radii(traj, seq)
        for got, want in ((seq.r_minus, radii[0::2]),
                          (seq.r_plus, radii[1::2])):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # the scalar search is not called per target any more
    refine = analysis._refine_crossing.__code__
    assert _count_calls(refine, crossing_sequence, run100,
                        rate_onset_radius(run100, ring), 1990.0) == 0


@pytest.mark.parametrize("a", [1.5, 16.0 / 9.0, math.nan, math.inf])
def test_classify_shot_rejects_start_without_energy(constantin, a):
    # F(a) <= 0 for a <= 16/9: no energy-zero event can name a side
    with pytest.raises(ParameterDomainError):
        classify_shot(constantin, a)


def test_classify_shot_sides(constantin):
    assert classify_shot(constantin, 2.0).outcome == "right"
    assert classify_shot(constantin, 4.0).outcome == "left"


def test_scan_requires_sign_change(constantin):
    with pytest.raises(NoBracketError):
        scan_for_bracket(constantin, 2.0, 3.0, 1.0)


def test_shooting_frozen(constantin):
    a_lo, a_hi, history = scan_for_bracket(constantin, 2.0, 6.0, 1.0)
    assert a_lo == 3.0 and a_hi == 4.0
    assert {rec.outcome for rec in history} >= {"left", "right"}
    result = shoot_for_origin(constantin, a_lo, a_hi, tol=1e-6)
    assert abs(result.a_star - 3.0013413429260254) < 1e-3
    assert result.min_radius_achieved < 0.05
    assert result.a_lo <= result.a_star <= result.a_hi
    assert isinstance(result.origin_hit, bool)


def test_shoot_reuses_scan_ends(constantin, monkeypatch):
    # the scan's last two records are the bracket ends: passed as ends they
    # are not shot again, and the result is the same
    from vortexplane import analysis
    a_lo, a_hi, history = scan_for_bracket(constantin, 2.0, 6.0, 1.0)
    fresh = shoot_for_origin(constantin, a_lo, a_hi, tol=1e-3)
    shots = []
    classify = analysis.classify_shot

    def counted(model, a, rel_tol=1e-9):
        shots.append(a)
        return classify(model, a, rel_tol)

    monkeypatch.setattr(analysis, "classify_shot", counted)
    ends = (history[-2], history[-1])
    assert shoot_for_origin(constantin, a_lo, a_hi, tol=1e-3,
                            ends=ends) == fresh
    assert len(shots) == len(fresh.history) - 2
    assert a_lo not in shots and a_hi not in shots
    with pytest.raises(ParameterDomainError):
        shoot_for_origin(constantin, a_lo, a_hi, ends=ends[::-1])


# a* of the shooting models: perfbench/refdata.json, a scipy DOP853
# bisection to width 1e-10 (read-only; perfbench/reference.py writes it)
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "refdata.json")) as _fh:
    A_STAR_REF = json.load(_fh)["a_star"]
# arrival radii of the fit with s0 = 0.0125 at rel_tol 1e-11
ARRIVAL_REF = {"constantin": 6.92234375, "example": 6.87741809,
               "powerlaw": 5.14631934}


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-10, 1e-11])
@pytest.mark.parametrize("family", ["constantin", "example", "powerlaw"])
def test_arrival_fit_matches_reference(models, family, rel_tol):
    model = models[family]
    for a_start in (2.0, 2.5, 2.99):
        lo, hi, history = scan_for_bracket(model, a_start, rel_tol=rel_tol)
        result = shoot_for_origin(model, lo, hi, rel_tol=rel_tol,
                                  ends=(history[-2], history[-1]))
        assert abs(result.a_star - A_STAR_REF[family]) <= 1e-9
        assert abs(result.arrival_radius - ARRIVAL_REF[family]) <= 1e-6
        assert result.fit_residual <= 1e-8
        # the ends and the two shots that confirm the fit
        assert len(result.history) == 4
        assert (result.a_lo, result.a_hi) == (result.a_star - 0.5e-6,
                                              result.a_star + 0.5e-6)


@pytest.mark.parametrize("family", ["constantin", "example", "powerlaw"])
def test_arrival_fit_converged_in_s0(models, monkeypatch, family):
    # the series start's truncation moves R, hardly a*.  At rel_tol 1e-11
    # the integration error stays below the measure: at 1e-9 the two
    # backward sweeps alone move a* by up to 1.2e-11 (2.3e-12 at 1e-10)
    model = models[family]
    lo, hi, history = scan_for_bracket(model, 2.0, rel_tol=1e-11)
    ends = (history[-2], history[-1])
    full = shoot_for_origin(model, lo, hi, rel_tol=1e-11, ends=ends)
    monkeypatch.setattr(analysis, "_ARRIVAL_S0", 0.5 * analysis._ARRIVAL_S0)
    half = shoot_for_origin(model, lo, hi, rel_tol=1e-11, ends=ends)
    assert abs(half.a_star - full.a_star) < 1e-11
    assert abs(half.arrival_radius - full.arrival_radius) < 1e-5


def test_arrival_start_leading_terms(models):
    # psi = k s^p (1 + c s/R + O(s^2)), c = 1/((p+1) - alpha (p-1)):
    # k = 1/144, c = 2/7 for constantin and p = 20/7 for the power law
    for family, p, k, c in (
            ("constantin", 4.0, 1.0 / 144.0, 2.0 / 7.0),
            ("example", 4.0, ((1.0 + math.sin(0.01)) / 12.0) ** 2, 2.0 / 7.0),
            ("powerlaw", 20.0 / 7.0, (49.0 / 260.0) ** (1.0 / 0.7),
             1.0 / (27.0 / 7.0 - 0.3 * 13.0 / 7.0))):
        R, s = 6.0, 1e-4
        psi, beta = arrival_start(models[family], R, s)
        assert (psi / (k * s ** p) - 1.0) * R / s == pytest.approx(c, 1e-3)
        assert -beta * s / psi == pytest.approx(p, 1e-3)
    for R, s in ((6.0, 0.0), (6.0, 6.0), (6.0, math.nan), (math.inf, 0.1)):
        with pytest.raises(ParameterDomainError):
            arrival_start(models["constantin"], R, s)


def _flipped_beta(model, R, s):
    # a start the fit cannot follow
    psi, beta = arrival_start(model, R, s)
    return psi, -beta


def _fixed_state(model, R, s):
    # a start the fit follows to a point the confirming shots reject
    return 1e-3, -1e-2


@pytest.mark.parametrize("start", [_flipped_beta, _fixed_state])
def test_failed_fit_falls_back_to_bisection(constantin, monkeypatch, start):
    lo, hi, history = scan_for_bracket(constantin, 2.0)
    monkeypatch.setattr(analysis, "arrival_start", start)
    result = shoot_for_origin(constantin, lo, hi, tol=1e-6,
                              ends=(history[-2], history[-1]))
    assert result.a_hi - result.a_lo <= 1e-6
    assert result.a_lo - 1e-8 <= A_STAR_REF["constantin"] <= result.a_hi + 1e-8
    assert result.a_star == 0.5 * (result.a_lo + result.a_hi)
    assert result.arrival_radius is None and result.fit_residual is None
    assert len(result.history) > 4


def test_model_without_arrival_law_bisects(constantin):
    # a model outside the three families has no arrival series: the solve
    # is bisection alone, as before the fit
    import dataclasses
    custom = dataclasses.replace(constantin, model_id="custom")
    with pytest.raises(ParameterDomainError):
        arrival_start(custom, 6.0, 0.05)
    result = shoot_for_origin(custom, 3.0, 4.0, tol=1e-3)
    assert result.arrival_radius is None and result.fit_residual is None
    assert result.a_hi - result.a_lo <= 1e-3 and len(result.history) == 12


@pytest.mark.parametrize("family", ["constantin", "example", "powerlaw"])
def test_arrival_fit_saves_f_calls(models, monkeypatch, family):
    # f calls of one solve on the same bracket, counted on a
    # dataclasses.replace copy of the model as perfbench's tracer counts
    # them: the fit against bisection alone (the fit switched off)
    import dataclasses
    model = models[family]
    lo, hi, history = scan_for_bracket(model, 2.0)
    ends = (history[-2], history[-1])
    calls = [0]

    def counted(u):
        calls[0] += 1
        return model.f(u)

    copy = dataclasses.replace(model, f=counted)
    fitted = shoot_for_origin(copy, lo, hi, tol=1e-6, ends=ends)
    fit_calls = calls[0]
    calls[0] = 0
    monkeypatch.setattr(analysis, "_fit_arrival", lambda *args: None)
    bisected = shoot_for_origin(copy, lo, hi, tol=1e-6, ends=ends)
    assert fitted.arrival_radius is not None
    assert len(bisected.history) == 22
    assert fit_calls <= 0.6 * calls[0]


@pytest.mark.parametrize("call", [
    lambda m: scan_for_bracket(m, 2.0, 3.0, step=0.0),
    lambda m: scan_for_bracket(m, 2.0, 3.0, step=1e-300),
    lambda m: scan_for_bracket(m, 2.0, 20.0, step=1e-15),
    lambda m: scan_for_bracket(m, 2.0, 3.0, step=-1.0),
    lambda m: scan_for_bracket(m, 2.0, 3.0, step=math.nan),
    lambda m: scan_for_bracket(m, 2.0, 3.0, step=math.inf),
    lambda m: scan_for_bracket(m, math.nan, 3.0),
    lambda m: scan_for_bracket(m, 2.0, math.inf),
    lambda m: shoot_for_origin(m, 3.0, 4.0, tol=math.nan),
    lambda m: shoot_for_origin(m, 3.0, 4.0, tol=0.0),
    lambda m: shoot_for_origin(m, 3.0, 4.0, tol=-1.0),
    lambda m: shoot_for_origin(m, 3.0, 4.0, tol=math.inf),
    lambda m: shoot_for_origin(m, math.nan, 4.0),
    lambda m: shoot_for_origin(m, 3.0, math.inf),
    lambda m: shoot_for_origin(m, 4.0, 3.0),
    lambda m: shoot_for_origin(m, 3.0, 4.0, max_iter=0),
    lambda m: shoot_for_origin(m, 3.0, 4.0, max_iter=-1),
    lambda m: shoot_for_origin(m, 3.0, 4.0, max_iter=2.5),
    lambda m: shoot_for_origin(m, 3.0, 4.0, max_iter=True),
    lambda m: scan_for_bracket(m, 5.0, 2.0),
    lambda m: scan_for_bracket(m, 2.0, 2.0),
])
def test_shooting_rejects_bad_input(constantin, monkeypatch, call):
    # refused before any shot, so no case can loop
    def no_shot(*args, **kwargs):
        raise AssertionError("shot before the input was checked")

    monkeypatch.setattr(analysis, "classify_shot", no_shot)
    with pytest.raises(ParameterDomainError):
        call(constantin)


def _counting_shots(monkeypatch):
    """Replace classify_shot by a stub that counts its calls and always
    lands left, so a walk finds no bracket."""
    shots = []

    def stub(model, a, rel_tol=1e-9):
        shots.append(a)
        return analysis.ShotRecord(a, "left", 10.0, 1.0)

    monkeypatch.setattr(analysis, "classify_shot", stub)
    return shots


def test_scan_refuses_a_long_walk(constantin, monkeypatch):
    # step=1e-9 on [2, 20] would walk about 1.8e10 start values
    shots = _counting_shots(monkeypatch)
    for step in (1e-9, 18.0 / analysis._SCAN_MAX_SHOTS):
        with pytest.raises(ParameterDomainError):
            scan_for_bracket(constantin, 2.0, 20.0, step=step)
    assert shots == []


def test_scan_walks_criterion_11_range(constantin, monkeypatch):
    # criterion 11 walks [2, 200] with step 1: 199 start values
    shots = _counting_shots(monkeypatch)
    with pytest.raises(NoBracketError):
        scan_for_bracket(constantin, 2.0, 200.0, step=1.0)
    assert shots == [2.0 + k for k in range(199)]


def test_refined_min_radius(run10):
    r_at, value = run10.closest_approach()
    assert (r_at, value) == (run10.min_radius_r, run10.min_radius)
    assert value <= float(np.min(run10.radius)) + 1e-12
    assert float(run10.r[0]) <= r_at <= float(run10.r[-1])
    with pytest.raises(ParameterDomainError):
        run10.closest_approach(r_from=2.0 * float(run10.r[-1]))


# ----------------------------------------------- pinned Hermite refinements
#
# Recorded before the Trajectory sampling methods became locate, node and
# hermite; every refinement that reads the stored orbit must keep its bits.
# The ring entry's min_radius_r and the closest approach were re-recorded
# when Trajectory.closest_approach replaced refined_min_radius: the r of
# the minimum moves in its last digits (1997.300474951147 ->
# 1997.3004749503928 and 63.8512839798916 -> 63.85128397989159), and the
# value by one ulp on run10.  All were re-recorded when the crossing windows
# moved run10 and run100, which now store each crossing as a node, and
# again when the Picard head moved onto the Chebyshev collocation, and
# when its default end moved from r = 1/16 to 1.

def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_pinned_refinements(constantin, run10, run100):
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    seq = crossing_sequence(run100, r_start=rate_onset_radius(run100, ring),
                            r_end=1990.0)
    assert _sha(repr(transversality_check(run10))) == (
        "af78ff47e3838e3be155c95bc189c7a43332fad2d1f8ce81bf643c53ee0879f4")
    assert _sha(repr(seq.r_minus.tolist())) == (
        "bcadaeb54cd9dbb3d631792107b636bffd1a2ba51ad67294bc0612e540aa9f2e")
    assert _sha(repr(seq.r_plus.tolist())) == (
        "6ed654f12cf52335deab18a3e44ae80874950b137eb377d846d9aa6489cba9bd")
    assert repr(seq.theta_start) == "-30.39512814132731"
    assert repr(verify_crossing_bounds(run100, seq, ring).rate_margin) == (
        "-0.359252589444622")
    assert _sha(repr(ring_entry(run100, ring))) == (
        "195ffbea7d27cc37141a5a7fae4037ad445680b340bdedcd520fd6842d4a25b3")
    entry = e_region_entry(run10)
    assert (repr(entry.r_cross), repr(entry.psi), repr(entry.beta)) == (
        "60.416710793378435", "-1.2844416598221842", "0.5395748644849355")
    assert repr(run10.closest_approach()) == (
        "(63.85127956215514, 0.06577157322244874)")


# ------------------------------------------------- constants, not knobs
#
# Each of these was a defaulted parameter that no caller set, and several
# took bad input quietly: potential_by_quadrature's tol = nan hung,
# find_positive_zero's hi = -2 returned -1, transversality_check's
# r_to = nan kept every crossing, rate_onset_radius took a negative margin,
# the lobe's n = -1 raised a raw ValueError and the certificate's
# tolerance = nan failed quietly.  They are the argument's fixed values now.

def test_fixed_values_are_not_parameters():
    removed = {
        fixedpoint.banach_solve: {"n", "tol", "constants"},
        fixedpoint.equilibrium_dichotomy_certificate: {"T", "tolerance"},
        admissibility.check_zero: {"tol"},
        admissibility.check_symmetry: {"n", "tol"},
        admissibility.check_ball: {"n", "tol"},
        admissibility.check_lambda: {"n", "tol"},
        admissibility.check_ring_bound: {"n", "tol"},
        admissibility.check_level_set_sandwich: {"n", "tol"},
        analysis.crossing_sequence: {"theta0", "theta1"},
        analysis.rate_onset_radius: {"margin"},
        analysis.transversality_check: {"r_to"},
        phaseplane.level_set_geometry: {"n", "scan_hi"},
        phaseplane.scaled_lobe_curve: {"n"},
        vorticity.find_positive_zero: {"hi", "probes", "tol"},
        vorticity.potential_by_quadrature: {"tol"},
        search.golden_min: {"iters"},
        search.bisect_root: {"iters"},
    }
    assert sum(map(len, removed.values())) == 29
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn
