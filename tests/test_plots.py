import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtda import (
    PersistenceDiagram,
    landscape,
    plot_diagram,
    plot_landscape,
    shared_t_max,
)
from dirtda.plots import _L, _PLOT_H, _PLOT_W, _T, _f
from test_summaries import quantized_diagrams, small_diagrams


def svg_root(path):
    tree = ET.parse(path)
    root = tree.getroot()
    assert root.tag.endswith("svg")
    return root


def data_circles(root):
    return [
        e
        for e in root.iter()
        if e.tag.endswith("circle") and e.attrib.get("class") == "pt"
    ]


class TestPlotDiagram:
    def test_empty_diagram_valid_svg(self, tmp_path):
        path = str(tmp_path / "empty.svg")
        plot_diagram(PersistenceDiagram(()), path, "empty")
        root = svg_root(path)
        # axes plus diagonal reference, no scatter markers
        assert not data_circles(root)
        assert [e for e in root.iter() if e.tag.endswith("line")]

    def test_markers_per_pair(self, tmp_path):
        dia = PersistenceDiagram(((0, 0.0, 1.0), (1, 0.5, 2.0), (1, 0.2, 1.5)))
        path = str(tmp_path / "three.svg")
        plot_diagram(dia, path, "three")
        assert len(data_circles(svg_root(path))) == 3

    def test_infinite_pair_margin_marker(self, tmp_path):
        dia = PersistenceDiagram(((0, 0.0, 1.0), (0, 0.0, math.inf)))
        path = str(tmp_path / "inf.svg")
        plot_diagram(dia, path, "inf")
        content = Path(path).read_text(encoding="utf-8")
        root = svg_root(path)
        assert len(data_circles(root)) == 1  # finite pair only
        assert "inf" in content  # margin band is labeled
        assert len([e for e in root.iter() if e.tag.endswith("path")]) == 1

    def test_byte_identical(self, tmp_path):
        dia = PersistenceDiagram(((0, 0.0, 1.0), (1, 0.25, 0.75)))
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        plot_diagram(dia, a, "same")
        plot_diagram(dia, b, "same")
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestPlotLandscape:
    def test_zero_landscape_flat(self, tmp_path):
        ls = landscape(PersistenceDiagram(()), dim=1, k_max=2, n_grid=32, t_max=1.0)
        path = str(tmp_path / "zero.svg")
        plot_landscape(ls, path, "zero")
        root = svg_root(path)
        lines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(lines) == 2
        for line in lines:
            points = line.attrib["points"].split()
            assert len(points) == 2  # the first and last grid points only
            assert len({pt.split(",")[1] for pt in points}) == 1  # flat at the baseline

    def test_single_tent_triangle(self, tmp_path):
        dia = PersistenceDiagram(((1, 1.0, 3.0),))
        ls = landscape(dia, dim=1, k_max=1, n_grid=64, t_max=4.0)
        path = str(tmp_path / "tent.svg")
        plot_landscape(ls, path, "tent")
        lines = [e for e in svg_root(path).iter() if e.tag.endswith("polyline")]
        assert len(lines) == 1
        ys = [float(pt.split(",")[1]) for pt in lines[0].attrib["points"].split()]
        # svg y grows downward: the tent's apex is the minimum y
        apex = int(np.argmin(ys))
        assert 0 < apex < len(ys) - 1

    def test_byte_identical(self, tmp_path):
        dia = PersistenceDiagram(((1, 0.5, 1.5), (1, 0.2, 0.9)))
        ls = landscape(dia, dim=1, k_max=3, n_grid=64, t_max=2.0)
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        plot_landscape(ls, a, "same")
        plot_landscape(ls, b, "same")
        assert Path(a).read_bytes() == Path(b).read_bytes()


# small and quantized diagrams may be empty; the third kind dies at 0 only
landscape_diagrams = st.one_of(
    small_diagrams(),
    quantized_diagrams(),
    st.integers(1, 7).map(lambda n: PersistenceDiagram(((1, 0.0, 0.0),) * n)),
)


def full_grid_points(ls, k):
    """Every grid point of level k, formatted point by point."""
    vmax_x = float(ls.grid[-1]) or 1e-12
    vmax_y = float(ls.levels.max()) * 1.1 if ls.levels.max() > 0 else 1e-12

    def sx(v):
        return _L + (v / vmax_x) * _PLOT_W

    def sy(v):
        return _T + _PLOT_H - (v / vmax_y) * _PLOT_H

    return [f"{_f(sx(float(t)))},{_f(sy(float(v)))}" for t, v in zip(ls.grid, ls.levels[k])]


@settings(max_examples=60, deadline=None)
@given(
    dia=landscape_diagrams,
    k_max=st.integers(1, 6),
    n_grid=st.integers(2, 600),
)
def test_polyline_keeps_breakpoints_of_full_grid(tmp_path_factory, dia, k_max, n_grid):
    ls = landscape(dia, 1, k_max, n_grid, shared_t_max(dia))
    path = str(tmp_path_factory.mktemp("ls") / "ls.svg")
    plot_landscape(ls, path, "oracle")
    lines = [e for e in svg_root(path).iter() if e.tag.endswith("polyline")]
    assert len(lines) == k_max
    for k, line in enumerate(lines):
        full = full_grid_points(ls, k)
        kept = line.attrib["points"].split()
        assert kept[0] == full[0] and kept[-1] == full[-1]
        # x strings strictly increase, so the match into full is unique
        at = [full.index(p) for p in kept]
        assert at == sorted(set(at))
        for left, right in zip(at, at[1:]):
            x0, y0 = full[left].split(",")
            x1, y1 = full[right].split(",")
            for dropped in full[left + 1 : right]:
                x, y = dropped.split(",")
                assert y == y0 == y1
                assert float(x0) < float(x) < float(x1)
