"""Fixed-point solvers for the profile equation near its two delicate spots.

Near r = 0 the equation is singular and the orbit through psi(0) = a,
beta(0) = 0 is the fixed point of

    (T psi)(r) = a - int_0^r (1/xi) int_0^xi tau f(psi(tau)) dtau dxi,

contractive on [0, r_end] for r_end <= 1 once f is Lipschitz on the
invariant ball |psi - a| <= eta a / 4.  Far out, anchoring at r = T and
sweeping back to sqrt(T^2 - 1) gives the system

    psi(r) = psi_T - int_r^T beta(s) ds,
    beta(r) = beta_T T / r + (1/r) int_r^T s f(psi(s)) ds,

a contraction in the weighted sup metric  sup max(|dpsi|, |dbeta|) e^{-kr}
for a window of rates k derived below.  The short-range operator is
collocated in s = r^2 on Chebyshev-Lobatto nodes, where psi is analytic
(picard_solve, and picard_head for the integrator); the backward operator
uses the trapezoid rule.  The Simpson re-evaluation on a uniform grid
serves as an independent residual oracle for the short-range fixed point.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (FixedPointFailureError, InfeasibleConstantsError,
                     ParameterDomainError)
from .quadrature import cumsimpson, cumtrapz
from .search import bisect_root
from .vorticity import VorticityModel

_PHI_AT_3 = 44.0 * math.log(3.0) / (15.0 * math.log(3.0) + 2.0)
_LAM_LO = 1.0 + 1e-12
# picard_solve: Chebyshev-Lobatto nodes 0.._CHEB_N in s = r^2, and the
# stride of the nodes its grid samples by Clenshaw's recurrence; the
# integrator's head stores _HEAD_CELLS + 1 rows
_CHEB_N, _STRIDE, _HEAD_CELLS = 32, 64, 16


def check_start_value(a: float) -> None:
    """Reject a start value psi(0) = a that is not a finite number >= 1."""
    if not (math.isfinite(a) and a >= 1.0):
        raise ParameterDomainError(
            f"start value a must be finite and >= 1, got {a!r}")


def check_ball_centre(a: float, eta: float) -> None:
    """Reject a ball centre a that is not > 0, or whose ball end
    (1 + eta/4) a or bound eta a is not finite."""
    if not (a > 0.0 and math.isfinite((1.0 + eta / 4.0) * a)
            and math.isfinite(eta * a)):
        raise ParameterDomainError(
            f"ball centre a must be > 0 with a finite ball end and bound "
            f"eta a, got {a!r}")


def require_finite(**values: float) -> None:
    """Reject the first keyword argument whose value is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterDomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GridFunction:
    """Samples of a scalar function on an ascending uniform grid.

    A fixed-point solve also records how many sweeps it ran and the sup
    change of its last sweep; other grids leave both at 0.  picard_solve
    samples its collocation polynomial on the read-only grid r that every
    solve on the same (r_end, n) shares (see _nodes).
    """
    r: np.ndarray
    values: np.ndarray
    sweeps: int = 0
    last_change: float = 0.0

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])


def _check_ball(psi: np.ndarray, a: float, ball: float) -> None:
    """Refuse psi once max |psi - a| exceeds the radius ball, or is NaN.
    fl(x - a) is monotone in x, so psi's max and min give it exactly."""
    dev = max(float(psi.max()) - a, a - float(psi.min()))
    if not dev <= ball * (1.0 + 1e-12):
        raise FixedPointFailureError(
            f"iterate left the ball: |psi - a| reached {dev!r} "
            f"against radius {ball!r}")


def _check_count(name: str, value: int, least: int) -> None:
    """Reject a grid size or sweep budget that is not an integer >= least."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ParameterDomainError(
            f"{name} must be an integer >= {least}, got {value!r}")


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands them to every caller."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=4)
def _nodes(r_end: float, n: int) -> np.ndarray:
    """np.linspace(0, r_end, n + 1), built once per (r_end, n) and shared
    read-only: Picard solves sampled on the same grid, and the integrator's
    heads on their 17 rows, reuse it instead of faulting in a fresh one."""
    return _read_only(np.linspace(0.0, r_end, n + 1))[0]


def _lagrange(offsets: Tuple[int, ...], t: np.ndarray) -> list:
    """Weights at t of the cubic through nodes 0 and offsets, one array per
    offset; node 0's weight is left out (see _cubic_read)."""
    nodes = (0,) + offsets
    weights = []
    for x in offsets:
        w = np.ones_like(t)
        for y in nodes:
            if y != x:
                w *= (t - y) / (x - y)
        weights.append(w)
    return weights


# stencils of the 4-point cubic relative to the left node j of an interval:
# the first interval, the inner ones and the last
_STENCILS = ((1, 2, 3), (-1, 1, 2), (-2, -1, 1))


def _cubic_read(v: np.ndarray, m: int) -> np.ndarray:
    """Read the values v on cells + 1 uniform nodes onto the grid m times
    finer with the 4-point cubic, centred where the nodes allow.

    The grids nest, so fine node j m + k lies at t = k / m past coarse node
    j, and the fine values of interval j are a row of a (cells, m) view with
    fixed weights per column.  Difference form, v_j + sum_i w_i(t)
    (v_{j+i} - v_j), reads a constant back exactly and every coarse node
    back bit for bit (a -0.0 as +0.0).

    Per stencil the sum is one einsum of the (cells, 3) differences with
    the (3, m) weights, then + v_j.  Its output starts at +0.0 and takes
    the products in stencil order, so each value is ((0 + d_1 w_1) +
    d_2 w_2) + d_3 w_3 + v_j, rounded after every operation as separate
    multiply-adds would round it; tests pin the bytes against a node by
    node gather.
    """
    cells = len(v) - 1
    out = np.empty(cells * m + 1)
    out[-1] = v[-1]
    rows = out[:-1].reshape(cells, m)
    t = np.arange(m) / m
    for (lo, hi), offsets in zip(((0, 1), (1, cells - 1), (cells - 1, cells)),
                                 _STENCILS):
        base = v[lo:hi]
        diffs = np.stack([v[lo + i:hi + i] for i in offsets], axis=1)
        diffs -= base[:, None]
        np.einsum('ik,kj->ij', diffs, np.array(_lagrange(offsets, t)),
                  out=rows[lo:hi])
        rows[lo:hi] += base[:, None]
    return out


def _integral(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (rows) of int_0^s of the series c in
    x = 2 s - 1, one degree higher, fixed by its value 0 at s = 0."""
    d = np.concatenate([2.0 * c[:1], c[1:], np.zeros((2, c.shape[1]))])
    out = np.zeros((len(c) + 1, c.shape[1]))
    out[1:] = (d[:-2] - d[2:]) / (4.0 * np.arange(1, len(c) + 1)[:, None])
    out[0] = out[1::2].sum(axis=0) - out[2::2].sum(axis=0)
    return out


@functools.lru_cache(maxsize=1)
def _collocation() -> Tuple[np.ndarray, ...]:
    """(to_coeffs, K, M, Q), read-only, on the _CHEB_N + 1 Chebyshev-Lobatto
    nodes of s in [0, 1], ascending, in x = 2 s - 1: node values to their
    interpolant's coefficients, f to (1/4) int_0^s (1/v) int_0^v f (Trefethen,
    Approximation Theory and Approximation Practice, 2013, ch. 19), f to its
    mean (1/s) int_0^s f at the head rows s_j = (j/_HEAD_CELLS)^2 and then
    at the nodes, and node values to int_0^{s_j} of their interpolant.  T_k
    comes from 2N cosines at the nodes and by recurrence at the rows, the
    mean from the exact downward recurrence of (1 + x) q = 2 int_0^s f.
    """
    N = _CHEB_N
    table = np.array([math.cos(math.pi * m / N) for m in range(2 * N)])
    T = table[np.arange(N + 2)[:, None] * (N - np.arange(N + 1)) % (2 * N)]
    w = np.where(np.arange(N + 1) % N, 1.0, 0.5)
    to_coeffs = (2.0 / N) * w[:, None] * T[:-1] * w
    g = 4.0 * _integral(to_coeffs)
    q = np.zeros((N + 3, N + 1))
    for m in range(N + 1, 1, -1):
        q[m - 1] = g[m] - 2.0 * q[m] - q[m + 1]
    q[0] = 0.5 * g[1] - q[1] - 0.5 * q[2]
    K = 0.25 * np.einsum('kj,ki->ji', T, _integral(q[:N + 1]))
    rows = np.ones((N + 2, _HEAD_CELLS + 1))
    rows[1] = 2.0 * (np.arange(_HEAD_CELLS + 1) / _HEAD_CELLS) ** 2 - 1.0
    for k in range(2, N + 2):
        rows[k] = 2.0 * rows[1] * rows[k - 1] - rows[k - 2]
    M = np.einsum('kj,ki->ji', np.hstack([rows, T])[:N + 1], q[:N + 1])
    Q = np.einsum('kj,ki->ji', rows, _integral(to_coeffs))
    K[0] = Q[0] = 0.0
    return _read_only(to_coeffs, K, M, Q)


def _short_range_ball(model: VorticityModel, a: float, r_end: float) -> float:
    """eta a / 4, once a, its ball and 0 < r_end <= 1 pass their checks."""
    check_start_value(a)
    if not 0.0 < r_end <= 1.0:
        raise ParameterDomainError(
            f"contraction audited for 0 < r_end <= 1, got {r_end!r}")
    check_ball_centre(a, model.ledger.eta)
    return model.ledger.eta * a / 4.0


def _iterate(sweep: Callable, size: int, a: float, ball: float, tol: float,
             max_iter: int) -> Tuple[np.ndarray, int, float]:
    """(psi, sweeps, last change) of psi = sweep(psi) from the constant a,
    once the sup change is at most tol a.  An iterate out of the ball
    |psi - a| <= ball (which keeps psi >= a/8 > 0), a NaN one included, or
    max_iter sweeps without convergence raise FixedPointFailureError."""
    psi = np.full(size, float(a))
    for k in range(1, max_iter + 1):
        new = sweep(psi)
        _check_ball(new, a, ball)
        change = float(np.max(np.abs(new - psi)))
        psi = new
        if change <= tol * a:
            return psi, k, change
    raise FixedPointFailureError(
        f"no convergence within {max_iter} sweeps (last change {change!r})")


def _collocate(model: VorticityModel, a: float, r_end: float, ball: float,
               tol: float, max_iter: int) -> Tuple[np.ndarray, int, float]:
    """_iterate on a - r_end^2 K f(psi) at the _CHEB_N + 1 nodes."""
    K, scale = _collocation()[1], r_end * r_end
    return _iterate(
        lambda p: a - scale * np.einsum('ij,j->i', K, model.f_arr(p)),
        _CHEB_N + 1, a, ball, tol, max_iter)


def picard_solve(model: VorticityModel, a: float, r_end: float = 0.0625,
                 n: int = 512, tol: float = 1e-13,
                 max_iter: int = 200) -> GridFunction:
    """Iterate the short-range operator to its fixed point on [0, r_end].

    In s = r^2 the operator is a - (1/4) int_0^s (1/v) int_0^v f(psi), and
    collocation on the _CHEB_N + 1 Chebyshev-Lobatto nodes of [0, r_end^2]
    applies it as a - r_end^2 K f(psi) (Clenshaw & Norton, Comput. J. 6,
    1963).  A sweep is one f_arr call; _iterate starts, stops and refuses.

    The result samples the interpolant on the shared n + 1 node grid (see
    _nodes), in the ball too: Clenshaw's sum of the coefficients of
    psi - a on every _STRIDE-th node where _STRIDE divides n into at least
    4 cells, else on every node (node 0 set to a), and _cubic_read between.
    """
    ball = _short_range_ball(model, a, r_end)
    _check_count("n", n, 8)
    _check_count("max_iter", max_iter, 1)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterDomainError(
            f"tol must be finite and >= 0, got {tol!r}")
    psi, sweeps, change = _collocate(model, a, r_end, ball, tol, max_iter)
    rs = _nodes(float(r_end), n)
    m = _STRIDE if n % _STRIDE == 0 and n >= 4 * _STRIDE else 1
    two_x = 4.0 * (rs[::m] / r_end) ** 2 - 2.0
    coeffs = np.einsum('kj,j->k', _collocation()[0], psi - a)
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + two_x * b1 - b2, b1
    values = a + (coeffs[0] + 0.5 * two_x * b1 - b2)
    values[0] = a
    values = _cubic_read(values, m)
    _check_ball(values, a, ball)
    return GridFunction(rs, values, sweeps=sweeps, last_change=change)


def picard_head(model: VorticityModel, a: float, r_end: float,
                tol: float) -> Tuple[np.ndarray, ...]:
    """The integrator's head: (r, psi, beta, cumulative dissipation) on the
    shared grid _nodes(r_end, _HEAD_CELLS), read from f at picard_solve's
    fixed point.  In s = r^2, with m = (1/s) int_0^s f, psi = a - (1/4)
    int_0^s m, beta = -(r/2) m and int_0^r beta^2/r = (1/8) int_0^s m^2."""
    ball = _short_range_ball(model, a, r_end)
    M, Q = _collocation()[2:]
    mean = np.einsum('ij,j->i', M, model.f_arr(
        _collocate(model, a, r_end, ball, tol, 200)[0]))
    at_rows, at_nodes = mean[:_HEAD_CELLS + 1], mean[_HEAD_CELLS + 1:]
    drop, cum = r_end * r_end * np.einsum(
        'ij,kj->ki', Q, [at_nodes / 4.0, at_nodes * at_nodes / 8.0])
    rs = _nodes(float(r_end), _HEAD_CELLS)
    beta = -0.5 * rs * at_rows
    beta[0] = 0.0
    return rs, a - drop, beta, cum


def picard_residual(model: VorticityModel, grid: GridFunction) -> float:
    """Sup distance between the grid and the operator re-applied with the
    Simpson rule, a + int_0^r beta with beta from beta_from_psi; an oracle
    the trapezoid iteration never saw."""
    beta = beta_from_psi(model, grid).values
    return float(np.max(np.abs(
        (grid.values[0] + cumsimpson(beta, grid.h)) - grid.values)))


def beta_from_psi(model: VorticityModel, grid: GridFunction) -> GridFunction:
    """beta = -(1/r) int_0^r tau f(psi) dtau on the same grid (beta(0) = 0)."""
    rs, psi = grid.r, grid.values
    w = rs * model.f_arr(psi)
    inner = cumsimpson(w, grid.h)
    beta = np.zeros(len(rs))
    beta[1:] = -inner[1:] / rs[1:]
    return GridFunction(rs, beta)


def rate_transform(lam: float) -> float:
    """phi(lambda) = 44 ln(lambda) / (15 ln(lambda) + 2), increasing on
    (1, infty); its value at 3 caps the Lipschitz bounds this construction
    can absorb."""
    if not 1.0 < lam < math.inf:
        raise ParameterDomainError(
            f"rate transform needs finite lambda > 1, got {lam!r}")
    ln = math.log(lam)
    return 44.0 * ln / (15.0 * ln + 2.0)


@dataclass(frozen=True)
class ContractionConstants:
    """Audited rate window for the backward weighted metric."""
    T: float
    L: float
    lam_star: float
    lam_mid: float
    k_lo: float
    k_hi: float
    k: float
    zeta: float


def select_contraction_constants(T: float = 6.0,
                                 L: float = 1.0 + math.sqrt(2.0)
                                 ) -> ContractionConstants:
    """Pick the metric rate k and contraction bound zeta for anchor T.

    lam_star solves rate_transform(lam) = L; the midpoint toward 3 gives
    slack, k_lo collects the ball and Lipschitz requirements, k_hi is the
    ceiling (T + sqrt(T^2 - 1)) ln(lam_mid) coming from the exponential
    comparison e^x <= 1 + lam x on [0, ln lam].  Geometric mean k keeps
    zeta = k_lo / k strictly below 1.  T^2 must be finite, or k_hi = k = inf.
    """
    if not (T >= 6.0 and math.isfinite(T * T)):
        raise ParameterDomainError(
            f"anchor radius must be >= 6 with T^2 finite, got {T!r}")
    if not L > 0.0:
        raise ParameterDomainError("Lipschitz bound must be positive")
    # the lambda* bracket [_LAM_LO, 3] holds a root only inside this range
    rate_lo = rate_transform(_LAM_LO)
    if not rate_lo < L < _PHI_AT_3:
        raise InfeasibleConstantsError(
            f"Lipschitz bound {L!r} lies outside the rate-transform range "
            f"({rate_lo!r}, {_PHI_AT_3!r}) over lambda in ({_LAM_LO!r}, 3)")
    # bisect on the predicate rate_transform >= L, never an exact zero:
    # lam_star is the lower edge of the ulps where rate_transform rounds to L
    # (the bracket reaches adjacent doubles within 54 halvings, and stops)
    lam_star = bisect_root(lambda lam: 1.0 if rate_transform(lam) >= L
                           else -1.0, _LAM_LO, 3.0, -1.0)
    lam_mid = 0.5 * (lam_star + 3.0)
    mll = lam_mid * math.log(lam_mid)
    k_lo = max(mll, L * (1.25 * mll + 0.5))
    k_hi = (T + math.sqrt(T * T - 1.0)) * math.log(lam_mid)
    if not k_lo < k_hi:
        raise InfeasibleConstantsError(
            f"rate window empty: k_lo={k_lo!r} >= k_hi={k_hi!r}")
    k = math.sqrt(k_lo * k_hi)
    return ContractionConstants(T=T, L=L, lam_star=lam_star, lam_mid=lam_mid,
                                k_lo=k_lo, k_hi=k_hi, k=k, zeta=k_lo / k)


def _tail(values: np.ndarray, h: float) -> np.ndarray:
    """int_r^T of grid samples via the trapezoid rule."""
    cum = cumtrapz(values, h)
    return cum[-1] - cum


def banach_solve(model: VorticityModel, T: float, psi_T: float, beta_T: float,
                 max_iter: int = 400
                 ) -> Tuple[GridFunction, GridFunction, float]:
    """Backward fixed point on [sqrt(T^2 - 1), T] anchored at (psi_T, beta_T).

    Returns the psi and beta grids on 2048 intervals plus the largest
    observed contraction ratio of successive weighted distances, which must
    stay below the audited zeta.  Iterates are confined to the domain
    |psi - psi_T| <= eta psi_T / 4, |beta| <= 2 |beta_T| + eta psi_T; the
    sweeps stop once a sup change is at most 1e-12 max(1, psi_T).  From
    T ~ 1.05e6 the window holds no 2049 strictly increasing nodes.
    """
    require_finite(T=T, psi_T=psi_T, beta_T=beta_T)
    _check_count("max_iter", max_iter, 1)
    constants = select_contraction_constants(T=T, L=model.ledger.L)
    if psi_T < 1.0:
        raise ParameterDomainError(
            f"anchor value psi_T must be >= 1, got {psi_T!r}")
    eta = model.ledger.eta
    if abs(beta_T) > eta * psi_T / 8.0:
        raise ParameterDomainError(
            f"anchor slope too steep: |beta_T| must be <= eta psi_T / 8 "
            f"= {eta * psi_T / 8.0!r}")
    r_lo = math.sqrt(T * T - 1.0)
    rs = np.linspace(r_lo, T, 2049)
    if not np.all(np.diff(rs) > 0.0):
        raise ParameterDomainError(
            f"anchor radius T={T!r} is too large: the window "
            f"[{r_lo!r}, {T!r}] holds no 2049 strictly increasing nodes")
    h = float(rs[1] - rs[0])
    weight = np.exp(-constants.k * (rs - r_lo))
    psi_ball = eta * psi_T / 4.0
    beta_ball = 2.0 * abs(beta_T) + eta * psi_T

    psi = np.full(len(rs), float(psi_T))
    beta = beta_T * T / rs
    prev_wdist = None
    factor = 0.0
    floor = 1e3 * np.finfo(float).eps * max(1.0, psi_T)
    for sweep in range(1, max_iter + 1):
        new_psi = psi_T - _tail(beta, h)
        new_beta = beta_T * T / rs + _tail(rs * model.f_arr(psi), h) / rs
        dev_psi = float(np.max(np.abs(new_psi - psi_T)))
        dev_beta = float(np.max(np.abs(new_beta)))
        if not (dev_psi <= psi_ball * (1.0 + 1e-12)
                and dev_beta <= beta_ball * (1.0 + 1e-12)):
            raise FixedPointFailureError(
                f"iterate left the domain: |psi-psi_T|={dev_psi!r} "
                f"(ball {psi_ball!r}), |beta|={dev_beta!r} "
                f"(ball {beta_ball!r})")
        gap = np.maximum(np.abs(new_psi - psi), np.abs(new_beta - beta))
        wdist = float(np.max(gap * weight))
        change = float(np.max(gap))
        psi, beta = new_psi, new_beta
        if prev_wdist is not None and prev_wdist > floor:
            factor = max(factor, wdist / prev_wdist)
        prev_wdist = wdist
        if change <= 1e-12 * max(1.0, psi_T):
            return (GridFunction(rs, psi, sweeps=sweep, last_change=change),
                    GridFunction(rs, beta, sweeps=sweep, last_change=change),
                    factor)
    raise FixedPointFailureError(
        f"no convergence within {max_iter} sweeps (last change {change!r})")


@dataclass(frozen=True)
class DichotomyCertificate:
    """Numerical witness that (u0, 0) is reached only by the constant orbit.

    Uniqueness of the backward fixed point forces any orbit passing through
    (psi, beta) = (u0, 0) at some radius in the window to coincide with the
    equilibrium there, and then everywhere by continuation; the certificate
    records how far the computed fixed point and a forward sweep actually
    stray from the constant.
    """
    anchor_psi: float
    T: float
    backward_psi_dev: float
    backward_beta_dev: float
    contraction_factor: float
    zeta: float
    forward_psi_dev: float
    forward_beta_dev: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return (max(self.backward_psi_dev, self.backward_beta_dev,
                    self.forward_psi_dev, self.forward_beta_dev)
                <= self.tolerance
                and self.contraction_factor <= self.zeta)


def equilibrium_dichotomy_certificate(model: VorticityModel
                                      ) -> DichotomyCertificate:
    """The certificate of the equilibrium (u0, 0) at anchor T = 6."""
    from .integrator import IntegrationConfig, integrate_from

    T, u0 = 6.0, model.ledger.u0
    constants = select_contraction_constants(T=T, L=model.ledger.L)
    psi_g, beta_g, factor = banach_solve(model, T, u0, 0.0)
    r_lo = math.sqrt(T * T - 1.0)
    config = IntegrationConfig(r_max=T, rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate_from(model, r_lo, u0, 0.0, config)
    return DichotomyCertificate(
        anchor_psi=u0,
        T=T,
        backward_psi_dev=float(np.max(np.abs(psi_g.values - u0))),
        backward_beta_dev=float(np.max(np.abs(beta_g.values))),
        contraction_factor=factor,
        zeta=constants.zeta,
        forward_psi_dev=float(np.max(np.abs(traj.psi - u0))),
        forward_beta_dev=float(np.max(np.abs(traj.beta))),
        tolerance=1e-10,
    )
