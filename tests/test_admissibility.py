import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from vortexplane import (InfeasibleConstantsError, ParameterDomainError,
                         banach_solve, constantin_model, example_model,
                         full_report, power_law_model)
from vortexplane.admissibility import (_sample_cache, _samples, check_ball,
                                       check_lambda, check_level_set_sandwich,
                                       check_symmetry, check_zero)
from vortexplane.sequences import sample_interval
from vortexplane.vorticity import ConstantsLedger, VorticityModel


def test_full_report_passes_everywhere(constantin, example, powerlaw):
    for model in (constantin, example, powerlaw):
        rep = full_report(model)
        assert rep.overall
        failed = [c.name for c in rep.checks if c.passed is False]
        assert failed == []


def test_full_report_refuses_no_ball(constantin):
    # with no centre a the report would be overall True on no ball check
    with pytest.raises(ParameterDomainError):
        full_report(constantin, a_values=())


def test_report_check_inventory(constantin, example, powerlaw):
    # the modulated family carries one extra record for its parameter window
    assert len(full_report(constantin).checks) == 14
    assert len(full_report(example).checks) == 15
    assert len(full_report(powerlaw).checks) == 14


def test_sandwich_skip_marker(constantin, example):
    rep = full_report(constantin)
    sandwich = next(c for c in rep.checks if c.name == "level_set_sandwich")
    assert sandwich.passed is None
    rep = full_report(example)
    sandwich = next(c for c in rep.checks if c.name == "level_set_sandwich")
    assert sandwich.passed is True


def test_sandwich_matches_beta_grid(example):
    # the margins over a (psi, beta) grid, where beta^2/2 cancels, agree
    # with the psi-only pass up to the rounding of beta^2 <= 16
    w = check_level_set_sandwich(example).witnesses
    c1, c2 = w["c1"], w["c2"]
    psis = np.linspace(-4.0, 4.0, 200)
    pot = np.array([example.F(float(p)) for p in psis])
    cubic = (2.0 / 3.0) * np.abs(psis) ** 1.5
    scale = 1.0 + np.abs(psis) ** 1.5
    lo, hi = math.inf, math.inf
    for b in np.linspace(-4.0, 4.0, 200):
        e = 0.5 * b * b + pot
        base = 0.5 * (psis ** 2 + b * b)
        lo = min(lo, float(np.min((e - (base - (1.0 + c1) * cubic)) / scale)))
        hi = min(hi, float(np.min((base - (1.0 - (c2 - c1)) * cubic - e)
                                  / scale)))
    assert abs(w["lower_margin"] - lo) <= 1e-14
    assert abs(w["upper_margin"] - hi) <= 1e-14


def test_report_serializes(example):
    rep = full_report(example)
    payload = rep.to_json_dict()
    assert payload["schema_version"] == 1
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["overall"] == rep.overall
    assert len(back["checks"]) == len(rep.checks)


def test_report_deterministic(constantin):
    a = full_report(constantin, seed=7).to_json_dict()
    b = full_report(constantin, seed=7).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _broken_model() -> VorticityModel:
    # f keeps the true square-root shape but the declared singular part is
    # a constant, so f != u - g and the split audit must flag it
    def f(u: float) -> float:
        return u - math.copysign(math.sqrt(abs(u)), u)

    def big_f(u: float) -> float:
        return 0.5 * u * u - (2.0 / 3.0) * abs(u) ** 1.5

    ledger = ConstantsLedger(u0=1.0, eta=28.0 / 9.0, L=1.0 + math.sqrt(2.0),
                             lambda_g=0.75, c=0.0, nu=0.5,
                             params={})
    return VorticityModel(
        model_id="broken", f=f, F=big_f, ledger=ledger,
        f_arr=lambda u: u - np.copysign(np.sqrt(np.abs(u)), u),
        g_arr=lambda u: np.full_like(u, 0.5),
        F_arr=lambda u: 0.5 * u * u - (2.0 / 3.0) * np.float_power(
            np.abs(u), 1.5),
        df=lambda u: 1.0 - 0.5 / math.sqrt(u))


def test_broken_decomposition_detected():
    model = _broken_model()
    oddness, decomposition = check_symmetry(model)
    assert oddness.passed is True
    assert decomposition.passed is False
    rep = full_report(model)
    assert rep.overall is False


def test_individual_checks_expose_witnesses(constantin):
    zero = check_zero(constantin)
    assert zero.passed
    assert abs(zero.witnesses["root"] - 1.0) <= 1e-9
    growth, lip = check_ball(constantin, 10.0)
    assert growth.passed
    assert growth.witnesses["bound"] == pytest.approx(
        constantin.ledger.eta * 10.0)
    assert growth.witnesses["max_abs_f"] <= growth.witnesses["bound"]
    assert lip.passed
    assert lip.witnesses["max_slope"] < constantin.ledger.L


@pytest.mark.parametrize("L, feasible", [(2.55, True), (2.7, False)])
def test_lipschitz_ceiling_is_the_contraction_ceiling(constantin, L,
                                                      feasible):
    # the Lipschitz records and banach_solve's contraction constants take L
    # up to the same ceiling, rate_transform(3) ~ 2.616: the records passed
    # only L <= 2.5 while the solve converged at 2.55
    model = dataclasses.replace(
        constantin, ledger=dataclasses.replace(constantin.ledger, L=L))
    lipschitz = [c for c in full_report(model).checks
                 if c.name.startswith("lipschitz_a_")]
    assert len(lipschitz) == 3
    assert all(c.passed is feasible for c in lipschitz)
    assert {c.witnesses["ceiling"] for c in lipschitz} == {
        2.6158590031955273}
    if feasible:
        _, _, factor = banach_solve(model, 6.0, 2.0, 0.1)
        assert factor < 0.1
    else:
        with pytest.raises(InfeasibleConstantsError):
            banach_solve(model, 6.0, 2.0, 0.1)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf, 1e-300,
                               1e308])
def test_check_ball_rejects_bad_centre(constantin, a):
    # 1e-300 is finite and > 0, but its interval is too narrow for a slope;
    # at 1e308 the bound eta a overflows, and the growth check passed
    # against inf
    with pytest.raises(ParameterDomainError):
        check_ball(constantin, a)


# sha256 of each report's indented canonical JSON at seed 0: every
# witness of every check, to the last bit.  Re-recorded when the ball
# records read f and f' at the ball's ends and at f's minimum instead of
# a sample: only the growth and Lipschitz witnesses moved
_PINNED_REPORTS = {
    "constantin":
        "075b11840dd1d8ef3a17bbe15ac21a20c30148e1d03abe2e02f07b03c7b21bb7",
    "example":
        "9910ba2776932cbadfe851a9242191600544203594e76a9df22a637cf46c5cfc",
    "powerlaw":
        "e4a1a8150806c2c10ab7abe442b6e1dbbbdae4b83d93a359717c532ea83307cc",
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_pinned_report_json(models, name):
    text = json.dumps(full_report(models[name], seed=0).to_json_dict(),
                      sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_REPORTS[name]


# the same digest at seed 7 with odd centres, for each family at the end
# of its parameter range; re-recorded with the seed-0 digests, and also
# when the flux ratio took the report's seed
_PINNED_SEED7_REPORTS = {
    "constantin":
        "6d765a327970aa79ba9fda8b7ac3e903780c0f3cdb4bc512ed1d3b59591311eb",
    "example_0.0208":
        "317c0e437cb70b84500db183bed89714abb328ceafbcdd8069b7684cad25e9fe",
    "powerlaw_0.97":
        "2c1d6e2d3b00d737241dac2c6294181116a9b869f94f8f5331b1af5285fb2aa9",
}
_SEED7_MODELS = {"constantin": constantin_model,
                 "example_0.0208": lambda: example_model(0.0208),
                 "powerlaw_0.97": lambda: power_law_model(0.97)}


@pytest.mark.parametrize("name", sorted(_PINNED_SEED7_REPORTS))
def test_pinned_report_json_at_seed_7(name):
    report = full_report(_SEED7_MODELS[name](), a_values=(0.37, 2.5, 3e4),
                         seed=7)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == _PINNED_SEED7_REPORTS[name])


_BALL_MODELS = {"constantin": constantin_model,
                "example_1e-9": lambda: example_model(1e-9),
                "example_0.0208": lambda: example_model(0.0208),
                "powerlaw_0.01": lambda: power_law_model(0.01),
                "powerlaw_0.97": lambda: power_law_model(0.97)}


@pytest.mark.parametrize("name", sorted(_BALL_MODELS))
def test_ball_bounds_hold_over_dense_samples(name):
    # f is convex on u > 0, so no sample of |f| and no secant slope may
    # exceed the max |f| and sup |f'| read at the ball's ends and at f's
    # minimum: checked on an even grid and on the Kronecker draws of seeds
    # 0 and 7 that the records used to sample.  The grid is no finer, so
    # that a secant's rounding error (2 ulps of f over its width, 6e-13 at
    # a = 3e4) stays below the tolerance
    model = _BALL_MODELS[name]()
    for a in (0.37, 1.0, 2.5, 10.0, 100.0, 3e4):
        growth, lipschitz = check_ball(model, a)
        lo, hi = growth.witnesses["interval"]
        for xs in (np.linspace(lo, hi, 2001),
                   np.sort(sample_interval(10_000, lo, hi, seed=0)),
                   np.sort(sample_interval(10_000, lo, hi, seed=7))):
            fv = model.f_arr(xs)
            assert np.max(np.abs(fv)) <= growth.witnesses["max_abs_f"] * (
                1.0 + 1e-12)
            slopes = np.abs(np.diff(fv) / np.diff(xs))
            assert np.max(slopes) <= lipschitz.witnesses["max_slope"] * (
                1.0 + 1e-12)


def test_ball_refuses_an_interval_off_the_convex_side(constantin):
    # eta >= 4 puts the ball's left end at u <= 0, where f is concave
    model = dataclasses.replace(
        constantin, ledger=dataclasses.replace(constantin.ledger, eta=4.5))
    with pytest.raises(ParameterDomainError):
        check_ball(model, 1.0)


def test_flux_ratio_takes_the_seed():
    # the flux ratio sampled seed 0 whatever the report's seed
    model = power_law_model(0.97)
    w0 = check_lambda(model, seed=0).witnesses
    w7 = check_lambda(model, seed=7).witnesses
    assert w0["arg_worst"] != w7["arg_worst"]
    assert w0["worst_margin"] != w7["worst_margin"]
    assert full_report(model, seed=7).checks[3].witnesses == w7


def test_sample_cache_is_read_only_and_bounded():
    # every model's report of a seed shares these arrays: an in-place write
    # by a caller would change every later report, and CLI seeds must not
    # grow the cache without limit
    for arr in _samples(0):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0
    assert _sample_cache.cache_parameters()["maxsize"] == 8
    for seed in range(20):
        _samples(seed)
    assert _sample_cache.cache_info().currsize <= 8
    # the key is the validated int: True is refused, not taken for 1
    with pytest.raises(ParameterDomainError):
        _samples(True)


@pytest.mark.parametrize("a_values", [
    5.0, None, ["1"], "1", np.ones((2, 2)), [True], [np.bool_(True)],
    [1.0, None], [1j], [1.0, 1.0], [1, 1.0], [1.0, 1.0000001],
], ids=repr)
def test_full_report_refuses_malformed_centres(constantin, a_values):
    # a bare number or a 2-d array raised a raw TypeError or ValueError,
    # True stood for the centre 1, and two centres that print alike wrote
    # two records of the same name
    with pytest.raises(ParameterDomainError):
        full_report(constantin, a_values=a_values)


def test_full_report_takes_any_iterable_of_centres(constantin):
    want = full_report(constantin, a_values=(2.0, 5.0)).to_json_dict()
    for centres in ([2.0, 5.0], (a for a in (2.0, 5.0)), np.array([2.0, 5.0]),
                    [2, 5]):
        got = full_report(constantin, a_values=centres).to_json_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(
            want, sort_keys=True)


@pytest.mark.parametrize("seed", [math.nan, 1.5, True, math.inf])
def test_full_report_refuses_non_integer_seed(constantin, seed):
    # a NaN seed would sample NaN, and 1.5 or True would silently stand
    # for some other seed
    with pytest.raises(ParameterDomainError):
        full_report(constantin, seed=seed)
