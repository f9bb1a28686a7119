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
for a window of rates k derived below.  Grid operators use the trapezoid
rule; the Simpson re-evaluation serves as an independent residual oracle.
A Picard sweep is one left-to-right pass over cache-sized blocks of the
grid that gives the iterates of the whole-grid trapezoid rule bit for bit.
On a fine grid the iterates start from the fixed points of the grids
_COARSE_RATIO and 2 _COARSE_RATIO times coarser: Richardson extrapolation
of the pair removes the trapezoid rule's h^2 term down to the fine grid's
own, and a 4-point cubic reads the result onto the fine nodes (nested
iteration; Hackbusch, Multi-Grid Methods and Applications, 1985, ch. 5).
Other grids start from the constant a.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (FixedPointFailureError, InfeasibleConstantsError,
                     ParameterDomainError)
from .quadrature import cumsimpson, cumtrapz
from .search import bisect_root
from .vorticity import VorticityModel

_PHI_AT_3 = 44.0 * math.log(3.0) / (15.0 * math.log(3.0) + 2.0)
_LAM_LO = 1.0 + 1e-12
# nodes per block of a Picard sweep: a block's work arrays stay in L2
_BLOCK = 16384
# a Picard solve on n intervals starts from the solves on n // _COARSE_RATIO
# and n // (2 _COARSE_RATIO) intervals once 2 _COARSE_RATIO divides n and
# n // _COARSE_RATIO >= _COARSE_MIN; the integrator's 512-point heads stay
# far below and keep their constant start
_COARSE_RATIO, _COARSE_MIN = 64, 512
# the trapezoid error of the coarse fixed point less the fine one's, per
# unit of the coarser fixed point less the coarse one (three coarse errors)
_RICHARDSON = (1.0 - _COARSE_RATIO ** -2) / 3.0


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
    change of its last sweep; other grids leave both at 0.  A Picard
    solve's r is the read-only node grid that every solve on the same
    (r_end, n) shares (see _nodes).
    """
    r: np.ndarray
    values: np.ndarray
    sweeps: int = 0
    last_change: float = 0.0

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])


def _check_count(name: str, value: int, least: int) -> None:
    """Reject a grid size or sweep budget that is not an integer >= least."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ParameterDomainError(
            f"{name} must be an integer >= {least}, got {value!r}")


@functools.lru_cache(maxsize=4)
def _nodes(r_end: float, n: int) -> np.ndarray:
    """np.linspace(0, r_end, n + 1), built once per (r_end, n) and shared
    read-only: a fine solve, its two coarse starts and the integrator's
    head each reuse their grid instead of faulting in a fresh one."""
    rs = np.linspace(0.0, r_end, n + 1)
    rs.flags.writeable = False
    return rs


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


def _coarse_solve(model: VorticityModel, a: float, r_end: float, n: int,
                  ratio: int, tol: float, max_iter: int) -> GridFunction:
    """The fixed point on n // ratio intervals, for the start of the
    n-interval solve; a failure names both grid sizes."""
    try:
        return picard_solve(model, a, r_end, n // ratio, tol, max_iter)
    except FixedPointFailureError as exc:
        raise FixedPointFailureError(
            f"coarse start on {n // ratio} intervals for the {n}-interval "
            f"grid failed: {exc}") from exc


def picard_solve(model: VorticityModel, a: float, r_end: float = 0.0625,
                 n: int = 512, tol: float = 1e-13,
                 max_iter: int = 200) -> GridFunction:
    """Iterate the short-range operator to its fixed point on [0, r_end].

    Every iterate must stay in the ball |psi - a| <= eta a / 4 (which in
    particular keeps psi >= a/8 > 0); escape, a NaN iterate included, or
    failure to converge within max_iter raises FixedPointFailureError.  A
    start value whose ball end (1 + eta/4) a or bound eta a overflows is
    refused, as admissibility.check_ball refuses it.

    When 2 _COARSE_RATIO divides n and n // _COARSE_RATIO >= _COARSE_MIN
    the iterates start from the fixed points psi_c on n // _COARSE_RATIO
    and psi_2c on n // (2 _COARSE_RATIO) intervals (same tol and
    max_iter).  Their difference, read onto the psi_c nodes, is three
    times the trapezoid rule's h^2 term of psi_c; Richardson extrapolation
    psi_c - (psi_2c - psi_c) / 3 (1 - _COARSE_RATIO^-2) keeps only the
    fine grid's own h^2 term.  _cubic_read puts the result on the n + 1
    nodes, and np.clip keeps it in the ball.  Any other n starts from
    psi = a.  A failure of either coarse solve names the coarse start and
    both grid sizes.

    A sweep is one left-to-right pass over blocks of _BLOCK nodes, so a
    block's work arrays stay in cache.  Each block carries over, from the
    node to its left, r f(psi) of the previous iterate, the integrand and
    both running sums; the sums add left to right as np.cumsum does, so
    the iterates are those of the whole-grid trapezoid rule bit for bit.
    A block writes the new iterate over the old one once it has measured
    the change, so a sweep allocates and touches no second grid.
    """
    check_start_value(a)
    if not 0.0 < r_end <= 1.0:
        raise ParameterDomainError(
            f"contraction audited for 0 < r_end <= 1, got {r_end!r}")
    _check_count("n", n, 8)
    _check_count("max_iter", max_iter, 1)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterDomainError(
            f"tol must be finite and >= 0, got {tol!r}")
    eta = model.ledger.eta
    check_ball_centre(a, eta)
    rs = _nodes(float(r_end), n)
    h = float(rs[1] - rs[0])
    half_h = 0.5 * h
    ball = eta * a / 4.0
    if n % (2 * _COARSE_RATIO) == 0 and n // _COARSE_RATIO >= _COARSE_MIN:
        coarse, coarser = (
            _coarse_solve(model, a, r_end, n, ratio, tol, max_iter).values
            for ratio in (_COARSE_RATIO, 2 * _COARSE_RATIO))
        # the pair agrees at node 0, so the start keeps psi(0) = a
        drift = _cubic_read(coarser - coarse[::2], 2)
        psi = _cubic_read(coarse - drift * _RICHARDSON, _COARSE_RATIO)
        np.clip(psi, a - ball, a + ball, out=psi)
    else:
        psi = np.full(n + 1, float(a))
    # per block, views of: the radii and iterate where it evaluates
    # r f(psi) and the slots that take them, its radii and iterate, and
    # the work arrays, whose index 0 holds the node left of the block.
    # The first block evaluates node 0 too; a later one finds its left
    # node's value carried over, since that node is already overwritten.
    width = min(_BLOCK, n)
    w, g, t = np.empty(width + 1), np.empty(width + 1), np.empty(width)
    blocks = []
    for s in range(1, n + 1, _BLOCK):
        e = min(s + _BLOCK, n + 1)
        lo = 0 if s == 1 else s
        wk, gk, tk = w[:e - s + 1], g[:e - s + 1], t[:e - s]
        blocks.append((rs[lo:e], psi[lo:e], wk[lo - s + 1:], rs[s:e],
                       psi[s:e], wk[1:], wk[:-1], gk[1:], gk[:-1], tk))
    # max|new - a| and max|new - psi| of each block; their np.max keeps a
    # NaN, as the whole-grid max does
    stats = np.empty((len(blocks), 2))
    for sweep in range(1, max_iter + 1):
        # -0.0 + x == x for every x, signed zeros included
        inner = outer = -0.0
        g[0] = 0.0
        for k, (r_f, psi_f, w_f, r, block, w_hi, w_lo, g_hi, g_lo, tk) \
                in enumerate(blocks):
            np.multiply(r_f, model.f_arr(psi_f), out=w_f)
            np.add(w_hi, w_lo, out=tk)
            tk *= half_h
            tk[0] += inner
            np.cumsum(tk, out=tk)
            inner = tk[-1]
            np.divide(tk, r, out=g_hi)
            np.add(g_hi, g_lo, out=tk)
            tk *= half_h
            tk[0] += outer
            np.cumsum(tk, out=tk)
            outer = tk[-1]
            w[0], g[0] = w_hi[-1], g_hi[-1]
            # the new block in tk; w_hi is free for the two distances
            np.subtract(a, tk, out=tk)
            np.subtract(tk, a, out=w_hi)
            stats[k, 0] = np.abs(w_hi, out=w_hi).max()
            np.subtract(tk, block, out=w_hi)
            stats[k, 1] = np.abs(w_hi, out=w_hi).max()
            block[:] = tk
        dev, change = stats.max(axis=0).tolist()
        if not dev <= ball * (1.0 + 1e-12):
            raise FixedPointFailureError(
                f"iterate left the ball: |psi - a| reached {dev!r} "
                f"against radius {ball!r}")
        if change <= tol * a:
            return GridFunction(rs, psi, sweeps=sweep, last_change=change)
    raise FixedPointFailureError(
        f"no convergence within {max_iter} sweeps (last change {change!r})")


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
