import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexplane.errors import ParameterDomainError, ToleranceError
from vortexplane.vorticity import adaptive_simpson


def test_simpson_exact_on_cubic():
    val = adaptive_simpson(lambda x: x ** 3 - 2.0 * x, 0.0, 2.0, 1e-12)
    assert abs(val - (4.0 - 4.0)) < 1e-13


def test_simpson_sine():
    val = adaptive_simpson(math.sin, 0.0, 1.0, 1e-12)
    assert abs(val - (1.0 - math.cos(1.0))) < 1e-12


def test_simpson_endpoint_kink():
    # integrand with a square-root kink at the left endpoint
    val = adaptive_simpson(lambda x: math.sqrt(x), 0.0, 1.0, 1e-12)
    assert abs(val - 2.0 / 3.0) < 1e-9


def test_simpson_interior_kink():
    val = adaptive_simpson(lambda x: math.sqrt(abs(x)), -1.0, 1.0, 1e-11)
    assert abs(val - 4.0 / 3.0) < 1e-8


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_simpson_quadratics(a, b, c):
    val = adaptive_simpson(lambda x: a * x * x + b * x + c, -1.0, 2.0, 1e-12)
    exact = a * 3.0 + b * 1.5 + c * 3.0
    assert abs(val - exact) <= 1e-10 * (1.0 + abs(exact))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_simpson_rejects_bad_tolerance(tol):
    # a NaN tol let no panel converge: every branch recursed to the depth cap
    calls = []
    with pytest.raises(ParameterDomainError):
        adaptive_simpson(lambda x: calls.append(x) or x, 0.0, 1.0, tol)
    assert calls == []


def test_simpson_bounded_jump_converges():
    # bisection leaves only width-bounded mass at a bounded jump, so the
    # max-depth fallback accepts with the error already at roundoff level
    val = adaptive_simpson(lambda x: 0.0 if x < 1.0 / 3.0 else 1.0,
                           0.0, 1.0, 1e-12)
    assert abs(val - 2.0 / 3.0) < 1e-12


def test_simpson_near_nonintegrable_raises():
    with pytest.raises(ToleranceError):
        adaptive_simpson(lambda x: abs(x - 1.0 / 3.0) ** -0.99,
                         0.0, 1.0, 1e-10)
