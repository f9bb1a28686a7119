import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from vortexplane import (InfeasibleConstantsError, ParameterDomainError,
                         banach_solve, constantin_model, example_model,
                         full_report, power_law_model)
from vortexplane.admissibility import (_ball_points, _sample_cache, _samples,
                                       check_ball, check_level_set_sandwich,
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
            np.abs(u), 1.5))


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
# witness of every check, to the last bit.  Re-recorded when the Lipschitz
# records took their ceiling from rate_transform(3): only the "ceiling"
# witness moved, 2.5 -> 2.6158590031955273
_PINNED_REPORTS = {
    "constantin":
        "ffc0802bae60a802ae56a8c82cdfcc38abd560f4ffd9f0e8c0105b6cb8cb6a64",
    "example":
        "b6c15cfd554aab902ea572f0e2884dbe7537b0705742ad0894f7a6726545ae02",
    "powerlaw":
        "27353909d452d92841ef58dbc055a34002d08c835a3a9dcc1600cb531b24a8ca",
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_pinned_report_json(models, name):
    text = json.dumps(full_report(models[name], seed=0).to_json_dict(),
                      sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_REPORTS[name]


# the same digest at seed 7 with odd centres, for each family at the end
# of its parameter range; recorded before the ledger's samples were cached
# and the ball's sort was dropped, so they pin that both keep the bits
_PINNED_SEED7_REPORTS = {
    "constantin":
        "cbad533b9ae00addebf4ea037a3506ad01a372b33bfea4c10589a96aefdc40c4",
    "example_0.0208":
        "01bc3562dcb6a46c7b71ba27e09827b83a9216c644d4471baed513983fa2e855",
    "powerlaw_0.97":
        "51127c33a19acce79c14097958b73dc3463e5429b9e7e8bdcc19ba4e85691405",
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


@pytest.mark.parametrize("eta", [28.0 / 9.0, 10.0 / 3.0])
@pytest.mark.parametrize("seed", [-3, 0, 1, 7, 12345])
def test_ball_points_are_the_sorted_draw(eta, seed):
    # eta 28/9 is the constantin and power-law ledgers', 10/3 the
    # modulated one's; the centres run from 7e-6 to 1e300 / eta
    for a in np.geomspace(7e-6, 1e300 / eta, 61):
        lo, hi = (1.0 - eta / 4.0) * a, (1.0 + eta / 4.0) * a
        drawn = np.sort(sample_interval(10_000, lo, hi, seed=seed))
        assert _ball_points(lo, hi, seed).tobytes() == drawn.tobytes()


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
