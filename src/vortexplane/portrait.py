"""Deterministic SVG phase portraits.

The drawing is assembled directly as SVG text so that identical inputs
produce byte-identical files: fixed palette, fixed viewport, fixed float
formatting, no library-dependent rendering state.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from .analysis import RingSpec
from .errors import ParameterDomainError
from .integrator import Trajectory
from .phaseplane import level_set_geometry, scaled_lobe_curve
from .vorticity import VorticityModel

_SIZE = 640.0
_MARGIN = 50.0
_TRAJ_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
                "#e377c2")
_MAX_PATH_POINTS = 4000


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Frame:
    """Square world box [-extent, extent]^2 mapped to the viewport."""

    def __init__(self, extent: float):
        self.extent = extent
        self.scale = (_SIZE - 2.0 * _MARGIN) / (2.0 * extent)

    def x(self, psi):
        """Viewport x of a float or, elementwise, of a float64 array."""
        return _MARGIN + (psi + self.extent) * self.scale

    def y(self, beta):
        """Viewport y of a float or, elementwise, of a float64 array."""
        return _SIZE - _MARGIN - (beta + self.extent) * self.scale

    def path(self, psis: np.ndarray, betas: np.ndarray,
             close: bool = False) -> str:
        # one array pass per map rounds each point as the scalar maps do
        xs = self.x(np.asarray(psis, dtype=float)).tolist()
        ys = self.y(np.asarray(betas, dtype=float)).tolist()
        parts = [f"L{x:.2f},{y:.2f}" for x, y in zip(xs, ys)]
        if parts:
            parts[0] = "M" + parts[0][1:]
        if close:
            parts.append("Z")
        return " ".join(parts)


def _decimate(arr: np.ndarray) -> np.ndarray:
    n = len(arr)
    if n <= _MAX_PATH_POINTS:
        return arr
    stride = int(math.ceil(n / _MAX_PATH_POINTS))
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return arr[idx]


def build_portrait_svg(model: VorticityModel,
                       trajectories: Iterable[Trajectory] = (),
                       ring: Optional[RingSpec] = None,
                       clip_radius: Optional[float] = None) -> str:
    """Compose the zero level set, optional capture ring, reference
    sandwich curves for the modulated model, and orbit traces.

    clip_radius crops the world box; otherwise it grows to the data.  It
    is checked before trajectories is read, so a lazy iterable of orbits
    runs none of them for a bad clip.
    """
    if clip_radius is not None and not 0.0 < clip_radius < math.inf:
        raise ParameterDomainError(
            f"clip_radius must be finite and positive, got {clip_radius!r}")
    trajectories = list(trajectories)
    geo = level_set_geometry(model)
    extent = 1.25 * geo.psi_plus
    if ring is not None:
        extent = max(extent, 1.25 * (1.0 + ring.delta))
    for tr in trajectories:
        extent = max(extent, 1.05 * float(np.max(tr.radius)))
    if clip_radius is not None:
        extent = min(extent, clip_radius)
    fr = _Frame(extent)

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">')
    out.append(f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" '
               f'fill="#ffffff"/>')

    # axes
    out.append(f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(fr.y(0.0))}" '
               f'x2="{_fmt(_SIZE - _MARGIN)}" y2="{_fmt(fr.y(0.0))}" '
               f'stroke="#bbbbbb" stroke-width="1"/>')
    out.append(f'<line x1="{_fmt(fr.x(0.0))}" y1="{_fmt(_MARGIN)}" '
               f'x2="{_fmt(fr.x(0.0))}" y2="{_fmt(_SIZE - _MARGIN)}" '
               f'stroke="#bbbbbb" stroke-width="1"/>')

    # zero level set: right lobe and its point-symmetric twin
    lobe_psi = np.concatenate([geo.psi_grid, geo.psi_grid[::-1]])
    lobe_beta = np.concatenate([geo.beta_grid, -geo.beta_grid[::-1]])
    for sign in (1.0, -1.0):
        d = fr.path(sign * lobe_psi, sign * lobe_beta, close=True)
        out.append(f'<path d="{d}" fill="#fde9c8" fill-opacity="0.8" '
                   f'stroke="#e69f00" stroke-width="1.5"/>')

    # sandwich reference curves for the modulated model
    c2 = model.ledger.params.get("c2")
    if c2 is not None:
        c1 = math.sin(0.5 * c2)
        for eps_mod, color in ((c1, "#b35806"), (-(c2 - c1), "#542788")):
            ps, bs = scaled_lobe_curve(eps_mod)
            for sign in (1.0, -1.0):
                d = fr.path(sign * ps, sign * bs)
                out.append(f'<path d="{d}" fill="none" stroke="{color}" '
                           f'stroke-width="1" stroke-dasharray="5,3"/>')

    # capture ring
    if ring is not None:
        for radius, color in ((1.0 + ring.epsilon, "#555555"),
                              (1.0 + ring.delta, "#999999")):
            out.append(f'<circle cx="{_fmt(fr.x(0.0))}" '
                       f'cy="{_fmt(fr.y(0.0))}" '
                       f'r="{_fmt(radius * fr.scale)}" fill="none" '
                       f'stroke="{color}" stroke-width="1" '
                       f'stroke-dasharray="2,2"/>')

    # lobe tips and equilibria
    for px, py, color in ((geo.psi_plus, 0.0, "#e69f00"),
                          (-geo.psi_plus, 0.0, "#e69f00"),
                          (model.ledger.u0, 0.0, "#000000"),
                          (-model.ledger.u0, 0.0, "#000000")):
        out.append(f'<circle cx="{_fmt(fr.x(px))}" cy="{_fmt(fr.y(py))}" '
                   f'r="3" fill="{color}"/>')

    # orbits
    for j, tr in enumerate(trajectories):
        keep = tr.radius <= extent * math.sqrt(2.0)
        psis = _decimate(tr.psi[keep])
        betas = _decimate(tr.beta[keep])
        color = _TRAJ_COLORS[j % len(_TRAJ_COLORS)]
        d = fr.path(psis, betas)
        out.append(f'<path d="{d}" fill="none" stroke="{color}" '
                   f'stroke-width="0.8" stroke-opacity="0.85"/>')
        if len(psis):
            out.append(f'<circle cx="{_fmt(fr.x(float(psis[0])))}" '
                       f'cy="{_fmt(fr.y(float(betas[0])))}" r="3" '
                       f'fill="{color}"/>')

    out.append(f'<text x="{_fmt(_SIZE - _MARGIN + 8)}" '
               f'y="{_fmt(fr.y(0.0) + 4)}" font-family="monospace" '
               f'font-size="13" fill="#333333">&#x3c8;</text>')
    out.append(f'<text x="{_fmt(fr.x(0.0) - 14)}" y="{_fmt(_MARGIN - 8)}" '
               f'font-family="monospace" font-size="13" '
               f'fill="#333333">&#x3b2;</text>')
    out.append(f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_SIZE - 14)}" '
               f'font-family="monospace" font-size="12" fill="#333333">'
               f'model: {model.model_id}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
