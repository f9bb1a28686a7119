import hashlib

import pytest

from vortexplane import (IntegrationConfig, ParameterDomainError, RingSpec,
                         build_portrait_svg, integrate)


def test_svg_skeleton(constantin):
    svg = build_portrait_svg(constantin)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "model: constantin" in svg
    # two filled lobes of the zero level set, no orbit traces yet
    assert svg.count("<path") == 2


def test_svg_with_ring_and_orbit(constantin):
    traj = integrate(constantin, 5.0, IntegrationConfig(r_max=60.0))
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    svg = build_portrait_svg(constantin, trajectories=(traj,), ring=ring)
    assert svg.count("<path") == 3
    # the ring contributes its two bounding circles
    assert svg.count("<circle") >= 2
    assert "stroke-dasharray" in svg


def test_svg_sandwich_curves(example):
    # the modulated model draws two dashed reference envelopes, each with a
    # point-symmetric twin
    svg = build_portrait_svg(example)
    assert svg.count("stroke-dasharray") == 4
    assert "model: example" in svg


def test_svg_clip(constantin):
    traj = integrate(constantin, 50.0, IntegrationConfig(r_max=100.0))
    wide = build_portrait_svg(constantin, trajectories=(traj,))
    clipped = build_portrait_svg(constantin, trajectories=(traj,),
                                 clip_radius=5.0)
    assert wide != clipped


@pytest.mark.parametrize("clip", [0.0, -1.0, float("nan"), float("inf")])
def test_svg_clip_must_be_finite_and_positive(constantin, clip):
    # 0 divided by zero, -1 drew at a negative scale and nan was ignored
    with pytest.raises(ParameterDomainError, match="clip_radius"):
        build_portrait_svg(constantin, clip_radius=clip)


def test_svg_deterministic(constantin):
    traj = integrate(constantin, 10.0, IntegrationConfig(r_max=80.0))
    a = build_portrait_svg(constantin, trajectories=(traj,))
    b = build_portrait_svg(constantin, trajectories=(traj,))
    assert a == b


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pinned_svg(constantin, run10, example, powerlaw):
    # the bytes of four portraits: a ring with two orbits, the same
    # clipped, the modulated model's sandwich curves and the power law
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    run5 = integrate(constantin, 5.0, IntegrationConfig(r_max=100.0))
    orbits = (run5, run10)
    assert _sha(build_portrait_svg(constantin, orbits, ring=ring)) == (
        "de54329fac99edf567f30e606570577193c88e40ca9de8c6290aad7b0b8b3998")
    assert _sha(build_portrait_svg(constantin, orbits, ring=ring,
                                   clip_radius=3.0)) == (
        "fb3de06aba96d661d0ec7ce64ba575f0f8526077973b81e857622f1807a9e840")
    for model, digest in (
            (example,
             "71f1691874077536e6d9a9400434cc5662c52b2e45921b0fb639282e7913d8e8"),
            (powerlaw,
             "ae5be27a43c9548788a41ddbcd53cb396fe06ed71d77621b881f7c97afcb3814")):
        orbit = integrate(model, 5.0, IntegrationConfig(r_max=60.0))
        assert _sha(build_portrait_svg(model, (orbit,))) == digest
