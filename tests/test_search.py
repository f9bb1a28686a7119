import math

from vortexplane.search import bisect_root, golden_min, newton_root


def test_exact_zero_at_midpoint_is_returned():
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.25

    assert bisect_root(g, 0.0, 1.0, g(0.0)) == 0.25
    # g(0), then the midpoints 0.5 and 0.25
    assert calls == [0.0, 0.5, 0.25]


def test_underflowing_bracket_converges():
    # products of these values underflow to 0.0; sign comparisons do not
    def g(x):
        return 1e-200 * (0.3 - x)

    assert abs(bisect_root(g, 0.0, 1.0, g(0.0), 1e-14) - 0.3) <= 1e-14
    # the Newton bracket compares signs too
    assert abs(newton_root(g, lambda x: -1e-200, 0.0, 1.0, g(0.0), 0.9, 200,
                           1e-14) - 0.3) <= 1e-14


def test_stalled_bracket_stops_without_a_call():
    # on adjacent doubles the midpoint rounds to an end: nothing can move
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.3

    for lo in (0.3, 1.0, -2.5, 5e-324, 1e300):
        hi = math.nextafter(lo, math.inf)
        assert bisect_root(g, lo, hi, -1.0) in (lo, hi)
    assert calls == []


def test_newton_falls_back_to_bisection():
    # a zero slope at the start and Newton points that leave the bracket
    # (atan overshoots from 0.5) both take the bracket's midpoint
    calls = []

    def g(x):
        calls.append(x)
        return math.atan(x - 0.1)

    def dg(x):
        return 0.0 if x == 0.9 else 1.0 / (1.0 + (x - 0.1) ** 2)

    root = newton_root(g, dg, -4.0, 6.0, g(-4.0), 0.9, 200, 1e-14)
    assert abs(root - 0.1) <= 1e-14
    assert calls[1:3] == [0.9, 0.5 * (-4.0 + 0.9)]
    assert len(calls) < 15


def test_golden_min_parabola():
    x, fx = golden_min(lambda s: (s - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-7
    assert fx == (x - 0.3) ** 2
    assert math.isfinite(fx)
