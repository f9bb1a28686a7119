import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexplane import ParameterDomainError
from vortexplane.sequences import kronecker, sample_interval, sample_loglin


def test_kronecker_frozen_head():
    vals = kronecker(4, 1, 0).ravel()
    expected = [0.1180339887498949, 0.7360679774997898,
                0.3541019662496847, 0.9721359549995796]
    assert np.allclose(vals, expected, rtol=0.0, atol=1e-15)


def test_kronecker_shape_and_range():
    pts = kronecker(257, 3, seed=5)
    assert pts.shape == (257, 3)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)


def test_kronecker_deterministic_and_seed_sensitive():
    a = kronecker(64, 2, seed=1)
    b = kronecker(64, 2, seed=1)
    c = kronecker(64, 2, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kronecker_equidistribution():
    # golden rotation fills the unit interval with low discrepancy: each
    # tenth should catch roughly n/10 points
    pts = kronecker(1000, 1, seed=0).ravel()
    counts, _ = np.histogram(pts, bins=10, range=(0.0, 1.0))
    assert counts.min() > 80 and counts.max() < 120


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(0, 10))
def test_sample_interval_bounds(n, seed):
    lo, hi = -2.5, 7.0
    pts = sample_interval(n, lo, hi, seed=seed)
    assert len(pts) == n
    assert np.all(pts >= lo) and np.all(pts <= hi)


def test_sample_loglin_spans_decades():
    pts = sample_loglin(500, 1e-2, 1e3, seed=0)
    assert np.all(pts >= 1e-2) and np.all(pts <= 1e3)
    assert np.any(pts < 1.0) and np.any(pts > 100.0)


@pytest.mark.parametrize("n, dim", [(0, 1), (-3, 1), (4, 0)])
def test_kronecker_rejects_empty_request(n, dim):
    with pytest.raises(ParameterDomainError):
        kronecker(n, dim)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 2.0)])
def test_sample_loglin_rejects_bad_range(lo, hi):
    with pytest.raises(ParameterDomainError):
        sample_loglin(10, lo, hi)


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, math.nan, math.inf,
                                 -math.inf, np.float64(3.0)])
def test_kronecker_refuses_non_integer_seed(bad):
    with pytest.raises(ParameterDomainError):
        kronecker(8, 1, seed=bad)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, math.nan, math.inf])
def test_kronecker_refuses_non_integer_count(bad):
    # a float count is refused, not rounded up to a row count
    with pytest.raises(ParameterDomainError):
        kronecker(bad)


def test_kronecker_refuses_seed_beyond_float_range():
    with pytest.raises(ParameterDomainError):
        kronecker(8, 1, seed=10 ** 400)


@pytest.mark.parametrize("seed", [0, 1, 7, -3])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 10_000])
def test_kronecker_matches_float_modulo(n, dim, seed):
    # the float-modulo form as the reference for x - floor(x): a numpy
    # whose floor or subtraction rounds differently fails here
    if dim == 1:
        alphas = np.array([0.6180339887498949])
    else:
        alphas = np.array([1.3247179572447460 ** -(j + 1)
                           for j in range(dim)])
    phase = (seed * 0.6180339887498949 + 0.5) % 1.0
    idx = np.arange(1, n + 1)[:, None]
    expected = (phase + idx * alphas[None, :]) % 1.0
    assert kronecker(n, dim, seed).tobytes() == expected.tobytes()


def test_kronecker_integer_types_agree():
    # a numpy integer seed or count gives the same bits as a Python int
    assert (kronecker(np.int64(50), 2, np.int32(-3)).tobytes()
            == kronecker(50, 2, -3).tobytes())
