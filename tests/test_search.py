import math

from vortexplane.phaseplane import _bisect
from vortexplane.search import bisect_root, golden_min


def test_exact_zero_at_midpoint_is_returned():
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.25

    assert bisect_root(g, 0.0, 1.0, g(0.0), 60) == 0.25
    # g(0), then the midpoints 0.5 and 0.25
    assert calls == [0.0, 0.5, 0.25]


def test_underflowing_bracket_converges():
    # products of these values underflow to 0.0; sign comparisons do not
    def g(x):
        return 1e-200 * (0.3 - x)

    assert abs(bisect_root(g, 0.0, 1.0, g(0.0), 200, 1e-14) - 0.3) <= 1e-14
    assert abs(_bisect(g, 0.0, 1.0) - 0.3) <= 1e-14


def test_golden_min_parabola():
    x, fx = golden_min(lambda s: (s - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-7
    assert fx == (x - 0.3) ** 2
    assert math.isfinite(fx)
