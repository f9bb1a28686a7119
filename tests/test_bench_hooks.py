"""The package names the benchmark in perfbench/ reaches, private ones
included.  A trim that removes or reshapes one of them fails here, not
only in a benchmark run.  perfbench/ is imported, never changed."""

import os
import sys

import pytest

from vortexplane import (analysis, fixedpoint, integrator, verify,
                         vorticity)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_tracer_counts_the_calls_of_each_family(family):
    tr = spans.Tracer()
    shoot_params = dict(reference.SHOOT_MODELS)[family]
    for model in (vorticity.make_model(family, **shoot_params),
                  workloads._audit_model(family, 0.5)):
        copy = tr.model(model)
        assert copy.model_id == family
        with tr.span("probe"):
            assert copy.f(1.5) == model.f(1.5)
            assert copy.F(1.5) == model.F(1.5)
        assert tr.spans[-1].counts["f"] == 1
        assert tr.spans[-1].counts["F"] == 1


def test_shot_replay_and_acceptance_hooks():
    model = vorticity.constantin_model()
    config = analysis._classification_config(2.5, 1e-9, model)
    assert config.r_handoff == 1.0   # the _steps cut of the replay
    r, psi, beta, dissipation = integrator.series_start(model, 2.5, config)
    assert r[-1] == config.r_handoff and psi[0] == 2.5
    assert len(verify._ORDERED) == 12
    cache = verify.RunCache()
    assert callable(cache.run)
    for family in workloads.FAMILIES:
        assert getattr(cache, family).model_id == family


def test_shooting_result_keeps_origin_hit():
    # the shooting workload's check reads result.origin_hit
    result = analysis.ShootingResult(a_lo=2.0, a_hi=3.0, a_star=2.5,
                                     min_radius_achieved=0.1)
    assert result.origin_hit is False


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_model_audit_picard_calls(family):
    # ModelAudit.setup's warm-up solve, then op's solves and check's
    # residual, with the arguments workloads.py passes
    model = workloads._audit_model(family, 0.5)
    fixedpoint.picard_solve(model, 10.0, r_end=1.0, n=1 << 10)
    for a in workloads.PICARD_AMPS:
        g = fixedpoint.picard_solve(model, a, r_end=1.0, n=1 << 17, tol=1e-13)
        assert fixedpoint.picard_residual(model, g) < 1e-8
