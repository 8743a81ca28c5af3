"""Hand-rolled SVG renderings of diagrams and landscapes.

SVG is written directly, with fixed canvas geometry and fixed-precision
coordinates, so repeated runs on identical inputs produce byte-identical
files. A presentation attribute that several elements share is written
once: font-family on the root, the others on a <g> around each run of
elements that share them. A landscape level is piecewise linear, so its
polyline holds only its corners: the first and last grid points and every
grid point where the level bends. The points it leaves out lie on the
segment between their kept neighbours, so the drawn image is the same as
with every grid point.
"""

from __future__ import annotations

import html
import itertools
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

# a landscape grid point is a corner when the second difference of its
# unrounded pixel y exceeds this many pixels; float rounding on a straight
# stretch stays far below it, and a point left out lies within about this
# of the drawn segment
_BEND_PX = 1e-9


def _f(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.3g}"


def _grouped(items: list[tuple[str | None, str]]) -> list[str]:
    """Elements in order, given as (shared, element) pairs; each run of
    consecutive elements with one shared attribute string goes in a <g>
    that states those attributes once, and None shares nothing."""
    parts: list[str] = []
    for attrs, run in itertools.groupby(items, key=lambda item: item[0]):
        elements = [element for _, element in run]
        parts += elements if attrs is None else [f"<g {attrs}>", *elements, "</g>"]
    return parts


def _header(title: str) -> list[str]:
    """The root, which sets font-family for every text, then the background
    and the title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.0f}" y="22" font-size="14" text-anchor="middle" '
        f'fill="#202020">{html.escape(title, quote=False)}</text>',
    ]


def _axes(x_label: str, y_label: str, vmax_x: float, vmax_y: float) -> list[str]:
    """Frame and ticks, the x then the y tick labels, then the axis labels.

    Every tick is drawn before every tick label. No label touches a tick:
    x labels have their baseline 15 px below the tick ends and y labels end
    4 px left of them, so the image is the one drawn with each label right
    after its own tick.
    """
    stroke = 'stroke="#303030" stroke-width="1"'
    x_text = 'font-size="11" text-anchor="middle" fill="#202020"'
    y_text = 'font-size="11" text-anchor="end" fill="#202020"'
    label = 'font-size="12" text-anchor="middle" fill="#202020"'
    base = _T + _PLOT_H
    frame = f'<rect x="{_L}" y="{_T}" width="{_PLOT_W}" height="{_PLOT_H}" fill="none"/>'
    ticks = [(stroke, frame)]
    x_labels, y_labels = [], []
    for i in range(5):
        frac = i / 4
        x, y = _f(_L + frac * _PLOT_W), base - frac * _PLOT_H
        ticks.append((stroke, f'<line x1="{x}" y1="{base}" x2="{x}" y2="{base + 5}"/>'))
        ticks.append((stroke, f'<line x1="{_L - 5}" y1="{_f(y)}" x2="{_L}" y2="{_f(y)}"/>'))
        x_labels.append(
            (x_text, f'<text x="{x}" y="{base + 20}">{_tick_label(frac * vmax_x)}</text>')
        )
        y_labels.append(
            (y_text, f'<text x="{_L - 9}" y="{_f(y + 4)}">{_tick_label(frac * vmax_y)}</text>')
        )
    mid = f"{_T + _PLOT_H / 2:.0f}"
    return _grouped([
        *ticks,
        *x_labels,
        *y_labels,
        (label, f'<text x="{_L + _PLOT_W / 2:.0f}" y="{_H - 14}">{x_label}</text>'),
        (label, f'<text x="16" y="{mid}" transform="rotate(-90 16 {mid})">{y_label}</text>'),
    ])


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
            f'<text x="{_L + _PLOT_W - 4}" y="{y_inf - 3}" font-size="10" '
            f'text-anchor="end" fill="#606060">inf</text>'
        )
    # each run of finite points of one dim shares a <g> for its fill; an
    # infinite-death marker, opaque, ends the run
    points: list[tuple[str | None, str]] = []
    for k, b, d in diagram.pairs:
        color = _DIM_COLORS[k % len(_DIM_COLORS)]
        if math.isfinite(d):
            points.append((
                f'fill="{color}" fill-opacity="0.8"',
                f'<circle class="pt" cx="{_f(sx(b))}" cy="{_f(sy(d))}" r="3.5"/>',
            ))
        else:
            x, y = sx(b), _T + 8.0
            points.append((
                None,
                f'<path d="M {_f(x)} {_f(y - 4)} L {_f(x - 4)} {_f(y + 3)} '
                f'L {_f(x + 4)} {_f(y + 3)} Z" fill="{color}"/>',
            ))
    parts += _grouped(points)
    for slot, k in enumerate(dims):
        color = _DIM_COLORS[k % len(_DIM_COLORS)]
        x0 = _L + 10 + slot * 64
        parts.append(f'<circle cx="{x0}" cy="{_T + 12}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{x0 + 8}" y="{_T + 16}" font-size="11" fill="#202020">dim {k}</text>'
        )
    _write_svg(parts, path)


def plot_landscape(ls: PersistenceLandscape, path: str, title: str | None = None) -> None:
    """Polyline per landscape level on the landscape's own grid.

    Each polyline keeps a level's first and last grid points and every
    interior point where the level bends: where the second difference of
    its pixel y, before rounding, exceeds _BEND_PX. The grid is evenly
    spaced, so the points dropped lie on the segment between their kept
    neighbours; flat runs and the slopes of each tent are drawn by their
    ends alone.
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
    # every polyline is drawn before the legend: a level rises no higher
    # than y = _T + _PLOT_H / 11 (75.3 px), as vmax_y is 1.1 times the top
    # level, and the legend lies above y = 56, so none of them overlap
    lines, legend, labels = [], [], []
    for k, y in enumerate(ys):
        color = _DIM_COLORS[k % len(_DIM_COLORS)]
        keep = np.ones(y.size, dtype=bool)
        keep[1:-1] = np.abs(y[2:] - 2 * y[1:-1] + y[:-2]) > _BEND_PX
        pts = " ".join(
            f"{_f(px)},{_f(py)}" for px, py in zip(xs[keep].tolist(), y[keep].tolist())
        )
        lines.append((
            'fill="none" stroke-width="1.5" stroke-opacity="0.9"',
            f'<polyline points="{pts}" stroke="{color}"/>',
        ))
        x0 = _L + 10 + k * 64
        legend.append((
            'stroke-width="2"',
            f'<line x1="{x0}" y1="{_T + 12}" x2="{x0 + 14}" y2="{_T + 12}" stroke="{color}"/>',
        ))
        labels.append(
            ('font-size="11" fill="#202020"', f'<text x="{x0 + 18}" y="{_T + 16}">k={k + 1}</text>')
        )
    parts += _grouped(lines + legend + labels)
    _write_svg(parts, path)
