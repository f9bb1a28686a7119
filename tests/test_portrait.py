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
