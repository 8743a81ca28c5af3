import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from dirtda import (
    PersistenceDiagram,
    landscape,
    plot_diagram,
    plot_landscape,
)


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
            ys = {pt.split(",")[1] for pt in line.attrib["points"].split()}
            assert len(ys) == 1  # flat at the baseline

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
