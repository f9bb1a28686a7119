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
    # clipped, the modulated model's sandwich curves and the power law;
    # re-recorded when the Picard head moved onto the Chebyshev collocation
    # and when its default end moved from r = 1/16 to 1
    ring = RingSpec.for_model(constantin, 0.05, 0.1)
    run5 = integrate(constantin, 5.0, IntegrationConfig(r_max=100.0))
    orbits = (run5, run10)
    assert _sha(build_portrait_svg(constantin, orbits, ring=ring)) == (
        "e7836651498185717e7dd68be62cf0697226741758abef52d351ef93a5d81697")
    assert _sha(build_portrait_svg(constantin, orbits, ring=ring,
                                   clip_radius=3.0)) == (
        "64fe0c7a8f5622010b5d91e04b22aaa1f0fc3652c696b069cc0eac6f29a6e9a9")
    for model, digest in (
            (example,
             "c0837dc74b960a5c2ee28db33efc8e8cf329da9b49b0463c9207a7c11b59c5eb"),
            (powerlaw,
             "9ff93c933b3524a1c5d83efd9b21443159775ea22dbb6753066980c5fc4009ad")):
        orbit = integrate(model, 5.0, IntegrationConfig(r_max=60.0))
        assert _sha(build_portrait_svg(model, (orbit,))) == digest
