"""Hand-rolled SVG renderings of diagrams and landscapes.

SVG is written directly, with fixed canvas geometry and fixed-precision
coordinates, so repeated runs on identical inputs produce byte-identical
files. A landscape level's polyline holds only its breakpoints: the first
and last grid points and every point where the level changes value. The
points it leaves out lie on the horizontal segment between their kept
neighbours, so the drawn image is the same as with every grid point.
"""

from __future__ import annotations

import html
import math

import numpy as np

from .homology import PersistenceDiagram
from .jsonio import open_atomic
from .summaries import PersistenceLandscape

__all__ = ["plot_diagram", "plot_landscape"]

_W, _H = 520, 520
_L, _R, _T, _B = 64, 20, 36, 52
_PLOT_W = _W - _L - _R
_PLOT_H = _H - _T - _B

_DIM_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")


def _f(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.3g}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.0f}" y="22" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle" fill="#202020">{html.escape(title, quote=False)}</text>',
    ]


def _axes(x_label: str, y_label: str, vmax_x: float, vmax_y: float) -> list[str]:
    parts = [
        f'<rect x="{_L}" y="{_T}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#303030" stroke-width="1"/>'
    ]
    for i in range(5):
        frac = i / 4
        x = _L + frac * _PLOT_W
        y = _T + _PLOT_H - frac * _PLOT_H
        parts.append(
            f'<line x1="{_f(x)}" y1="{_T + _PLOT_H}" x2="{_f(x)}" '
            f'y2="{_T + _PLOT_H + 5}" stroke="#303030" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(x)}" y="{_T + _PLOT_H + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#202020">'
            f"{_tick_label(frac * vmax_x)}</text>"
        )
        parts.append(
            f'<line x1="{_L - 5}" y1="{_f(y)}" x2="{_L}" y2="{_f(y)}" '
            f'stroke="#303030" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_L - 9}" y="{_f(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" fill="#202020">'
            f"{_tick_label(frac * vmax_y)}</text>"
        )
    parts.append(
        f'<text x="{_L + _PLOT_W / 2:.0f}" y="{_H - 14}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" fill="#202020">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_T + _PLOT_H / 2:.0f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" fill="#202020" '
        f'transform="rotate(-90 16 {_T + _PLOT_H / 2:.0f})">{y_label}</text>'
    )
    return parts


def _write_svg(parts: list[str], path: str) -> None:
    """The elements in parts, one a line, closed by </svg>."""
    with open_atomic(path) as handle:
        handle.write("\n".join(parts))
        handle.write("\n</svg>\n")


def plot_diagram(diagram: PersistenceDiagram, path: str, title: str = "persistence diagram") -> None:
    """Scatter of (birth, death) pairs, one color per dimension.

    Infinite deaths are drawn as triangles on a dashed line at the top of
    the plotting range.
    """
    finite_deaths = [d for _, _, d in diagram.pairs if math.isfinite(d)]
    births = [b for _, b, _ in diagram.pairs]
    vmax = max(finite_deaths + births + [1e-12]) * 1.05
    dims = sorted({k for k, _, _ in diagram.pairs})

    def sx(v: float) -> float:
        return _L + (v / vmax) * _PLOT_W

    def sy(v: float) -> float:
        return _T + _PLOT_H - (v / vmax) * _PLOT_H

    parts = _header(title)
    parts += _axes("birth", "death", vmax, vmax)
    parts.append(
        f'<line x1="{_f(sx(0))}" y1="{_f(sy(0))}" x2="{_f(sx(vmax))}" '
        f'y2="{_f(sy(vmax))}" stroke="#909090" stroke-width="1" stroke-dasharray="4,3"/>'
    )
    has_inf = any(math.isinf(d) for _, _, d in diagram.pairs)
    if has_inf:
        y_inf = _T + 8
        parts.append(
            f'<line x1="{_L}" y1="{y_inf}" x2="{_L + _PLOT_W}" y2="{y_inf}" '
            f'stroke="#b0b0b0" stroke-width="1" stroke-dasharray="2,3"/>'
        )
        parts.append(
            f'<text x="{_L + _PLOT_W - 4}" y="{y_inf - 3}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end" fill="#606060">inf</text>'
        )
    for k, b, d in diagram.pairs:
        color = _DIM_COLORS[k % len(_DIM_COLORS)]
        if math.isfinite(d):
            parts.append(
                f'<circle class="pt" cx="{_f(sx(b))}" cy="{_f(sy(d))}" r="3.5" '
                f'fill="{color}" fill-opacity="0.8"/>'
            )
        else:
            x, y = sx(b), _T + 8.0
            parts.append(
                f'<path d="M {_f(x)} {_f(y - 4)} L {_f(x - 4)} {_f(y + 3)} '
                f'L {_f(x + 4)} {_f(y + 3)} Z" fill="{color}"/>'
            )
    for slot, k in enumerate(dims):
        color = _DIM_COLORS[k % len(_DIM_COLORS)]
        x0 = _L + 10 + slot * 64
        parts.append(
            f'<circle cx="{x0}" cy="{_T + 12}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x0 + 8}" y="{_T + 16}" font-family="sans-serif" '
            f'font-size="11" fill="#202020">dim {k}</text>'
        )
    _write_svg(parts, path)


def plot_landscape(ls: PersistenceLandscape, path: str, title: str | None = None) -> None:
    """Polyline per landscape level on the landscape's own grid.

    Each polyline keeps a level's first and last grid points and every
    point whose value differs from a neighbour's; the interior points of a
    run of equal values are dropped, since they lie on the segment between
    the run's ends.
    """
    if title is None:
        title = f"persistence landscape (dim {ls.dim})"
    vmax_x = float(ls.grid[-1]) if ls.grid.size else 1.0
    vmax_y = float(ls.levels.max()) * 1.1 if ls.levels.size and ls.levels.max() > 0 else 1e-12
    vmax_x = vmax_x or 1e-12
    xs = _L + (ls.grid / vmax_x) * _PLOT_W
    ys = _T + _PLOT_H - (ls.levels / vmax_y) * _PLOT_H

    parts = _header(title)
    parts += _axes("t", "level value", vmax_x, vmax_y)
    for k, v in enumerate(ls.levels):
        color = _DIM_COLORS[k % len(_DIM_COLORS)]
        keep = np.ones(v.size, dtype=bool)
        keep[1:-1] = (v[1:-1] != v[:-2]) | (v[1:-1] != v[2:])
        pts = " ".join(
            f"{_f(x)},{_f(y)}" for x, y in zip(xs[keep].tolist(), ys[k][keep].tolist())
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" stroke-opacity="0.9"/>'
        )
        x0 = _L + 10 + k * 64
        parts.append(
            f'<line x1="{x0}" y1="{_T + 12}" x2="{x0 + 14}" y2="{_T + 12}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + 18}" y="{_T + 16}" font-family="sans-serif" '
            f'font-size="11" fill="#202020">k={k + 1}</text>'
        )
    _write_svg(parts, path)
