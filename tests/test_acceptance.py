"""Acceptance gate: all thirteen criteria, one pass/fail line each."""

import pytest

from vortexplane import verify

_IDS = [f"criterion_{i:02d}" for i in range(1, 14)]


@pytest.mark.parametrize("index", range(13), ids=_IDS)
def test_criterion(acceptance_results, index):
    result = acceptance_results[index]
    print(result.line())
    assert result.ident == index + 1
    assert result.passed, result.line()


def test_matrix(acceptance_results):
    lines = verify.matrix_lines(acceptance_results)
    for line in lines:
        print(line)
    assert len(acceptance_results) == 13
    assert lines[-1] == "overall: PASS"


def test_report_is_canonical_json(acceptance_results):
    import json

    text = verify.render_report(acceptance_results)
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["overall_pass"] is True
    assert [c["id"] for c in payload["criteria"]] == list(range(1, 14))
    # canonical form: re-serialization reproduces the exact bytes
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_pinned_report(acceptance_results):
    # criteria 8 and 11 report closest approaches found after the run by
    # Trajectory.closest_approach; with them the report's sha256 went from
    # 9da20b34... to 13958c7b... (criterion 8's minimum moved in its last
    # digits, criterion 13's byte count from 4094 to 4097).  The crossing
    # windows moved every constantin orbit with a crossing above their
    # entry floor: 13958c7b... -> 7b902df2... (criterion 4's imbalance
    # 1.90e-8 -> 1.42e-10, criterion 8's minimum 0.00105 -> 0.00153).
    # Criterion 11 fits the arrival and confirms it with two shots instead
    # of bisecting: 7b902df2... -> 34cbbd33... (a* 3.0013413429260254 ->
    # 3.0013417657354937, min_radius_achieved 0.00011994385321280488 ->
    # 0.0003662699930531855, 25 -> 7 classification shots, and the new
    # measures arrival_radius and fit_residual).  The DOP853 pair moved
    # every orbit: 34cbbd33... -> 78cf9482... (criterion 4's imbalance
    # 1.42e-10 -> 3.61e-11, criterion 8's minimum 0.0015345 -> 0.0015279,
    # criterion 13's byte count 4185 -> 4182).  Criterion 5's solves start
    # from a coarse fixed point and report their sweeps and last change:
    # 78cf9482... -> 252fc758... (residual 2.2019719381205505e-10 ->
    # 2.2023982637620065e-10, ball_ratio and end_ratio in their last
    # digits, 8 -> 5 sweeps at a = 10 and 100, criterion 13's byte count
    # 4182 -> 4390).  Criterion 5's solves start from a Richardson pair of
    # coarse fixed points and criterion 6 reports the sweeps and last
    # change of its (6, 2, 0.1) solve: 252fc758... -> 7fee7c48...
    # (residual 2.2023982637620065e-10 -> 2.2018298295733985e-10,
    # ball_ratio and end_ratio in their last digits, 5 -> 1 sweeps at
    # a = 10 and 100, banach_sweeps 7, criterion 13's byte count
    # 4390 -> 4471).  The zero-energy stop cuts where E's own Hermite falls
    # through 0, which moves criterion 11's stopped shots: 7fee7c48... ->
    # 3ec4dda2... (a* 3.0013417654039216 -> 3.001341765403924, R
    # 6.9223437719183245 -> 6.922343771918324, fit_residual 8.7534e-11 ->
    # 8.7824e-11, min_radius_achieved 3.662595529639628e-4 ->
    # 3.662595541706584e-4, criterion 13's byte count 4471 -> 4469).  Each
    # step integrates its dissipation with the pair's weights on its
    # stages, which moves only the dissipation: 3ec4dda2... -> 2f3d6c73...
    # (criterion 4's imbalance 3.6106025625992437e-11 ->
    # 3.526132106523367e-11, criterion 13's byte count 4469 -> 4468).
    # Criterion 5's solves collocate on Chebyshev nodes in s = r^2 instead
    # of sweeping the 2^17-interval trapezoid rule: 2f3d6c73... ->
    # 54f5ea99... (residual 2.2018298295733985e-10 ->
    # 2.7000623958883807e-13, ball_ratio and end_ratio in their 11th
    # digits, 1 -> 8 sweeps at a = 10 and 100).  The integrator's Picard
    # head collocates the same way instead of sweeping the 512-interval
    # trapezoid rule, which moves every orbit: 54f5ea99... -> 5d0b2b77...
    # (criterion 4's imbalance 3.526132106523367e-11 ->
    # 3.218185900333303e-11, criterion 8's minimum 0.0015279159937949525
    # -> 0.001527945948572681, criterion 13's byte count 4468 -> 4464).
    # Criterion 5 reads its solves on their 33 nodes and checks them with
    # the off-node Gauss-Legendre oracle instead of sampling 2^17 + 1
    # nodes for a Simpson one: 5d0b2b77... -> f15843ce... (residual
    # 2.7000623958883807e-13 -> 1.4210854715202004e-14, ball_ratio and
    # end_ratio in their last digits, criterion 13's byte count
    # 4464 -> 4463).  The integrator's head reaches r = 1 by default and
    # the stepper starts there, which moves every orbit: f15843ce... ->
    # 6567a234... (criterion 4's imbalance 3.218185900333303e-11 ->
    # 3.207873366977902e-11, criterion 8's minimum 0.001527945948572681
    # -> 0.0015277660766170225, a* 3.00134176540639 ->
    # 3.001341765405669, criterion 13's byte count 4463 -> 4464).
    # Criterion 6's backward solves collocate on the 33 Chebyshev nodes of
    # their window instead of sweeping the 2,048-interval trapezoid rule:
    # 6567a234... -> db37b1da... (observed_factor 0.04186091098154562 ->
    # 0.041860910957649496, banach_last_change 9.245937349078304e-13 ->
    # 9.245659793322147e-13, banach_sweeps 7, criterion 13's byte count
    # 4464 -> 4465)
    import hashlib

    c8, c11 = acceptance_results[7].measures, acceptance_results[10].measures
    assert (repr(c8["min_radius_after"]), repr(c8["min_radius_r"]),
            repr(c11["min_radius_achieved"]), repr(c11["a_star"])) == (
        "0.0015277660766170225", "6346.796561010144",
        "0.0003662598982331043", "3.001341765405669")
    text = verify.render_report(acceptance_results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "db37b1dacbcd688ad9a5a17ea5e0325dbd8c386cead485194b706bc9abbc9da6")
