"""Deterministic low-discrepancy sampling.

All admissibility checks sample with additive (Kronecker) sequences so a
report is reproducible byte for byte given the same seed.  The 1-d
generator steps by the inverse golden ratio, the 2-d one by the inverse
powers of the plastic number; both are standard equidistributed choices.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import ParameterDomainError

# 1/phi and the 2-d generalization via the plastic number.
_GOLDEN_STEP = 0.6180339887498949
_PLASTIC = 1.3247179572447460


def kronecker(n: int, dim: int = 1, seed: int = 0) -> np.ndarray:
    """Return an (n, dim) read-only array of quasi-random points in [0, 1).

    The seed only shifts the starting phase, so any seed gives the same
    equidistribution quality.  n, dim and seed must be integers (a bool is
    not), n and dim positive; seed may have either sign.  The points depend
    on nothing else, so the last few draws are cached and shared.

    The phase lies in [0, 1), so every x = phase + idx alpha is >= 0, and
    for x >= 0 both x - floor(x) and x % 1.0 are exact and equal
    fmod(x, 1): the cheaper first form gives the same bits.
    """
    n, dim = _integer("n", n), _integer("dim", dim)
    seed = _integer("seed", seed)
    if n <= 0 or dim <= 0:
        raise ParameterDomainError("n and dim must be positive")
    return _kronecker(n, dim, seed)


def _integer(name: str, value) -> int:
    """value as an int, for a cache key: True or 2.0 hash like 1 and 2, so
    a bool or a non-integer is refused before it can share an entry."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@functools.lru_cache(maxsize=8)
def _kronecker(n: int, dim: int, seed: int) -> np.ndarray:
    if dim == 1:
        alphas = np.array([_GOLDEN_STEP])
    else:
        alphas = np.array([_PLASTIC ** -(j + 1) for j in range(dim)])
    try:
        phase = (seed * _GOLDEN_STEP + 0.5) % 1.0
    except OverflowError:
        raise ParameterDomainError(
            "seed times the golden step overflows a float") from None
    x = phase + np.arange(1, n + 1)[:, None] * alphas[None, :]
    x -= np.floor(x)
    x.flags.writeable = False
    return x


def sample_interval(n: int, lo: float, hi: float, seed: int = 0) -> np.ndarray:
    """Quasi-random points of [lo, hi], endpoints included."""
    pts = lo + (hi - lo) * kronecker(n, 1, seed)[:, 0]
    pts[0] = lo
    if n > 1:
        pts[-1] = hi
    return pts


def sample_loglin(n: int, lo: float, hi: float, seed: int = 0) -> np.ndarray:
    """Quasi-random points that equidistribute in log scale on [lo, hi]."""
    if lo <= 0 or hi <= lo:
        raise ParameterDomainError("need 0 < lo < hi")
    return np.exp(sample_interval(n, np.log(lo), np.log(hi), seed))
