import math
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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

# the SVGs of GOLDEN_DIAGRAM and GOLDEN_LANDSCAPE as plots.py wrote them when
# every element carried each of its own presentation attributes
GOLDEN = Path(__file__).parent / "golden"


def svg_root(path):
    tree = ET.parse(path)
    root = tree.getroot()
    assert root.tag.endswith("svg")
    return root


# presentation attributes an element takes from its <svg> and <g> ancestors;
# the font properties and text-anchor matter on <text> alone
INHERITED = frozenset({
    "fill", "fill-opacity", "stroke", "stroke-width", "stroke-opacity",
    "stroke-dasharray", "font-family", "font-size", "text-anchor",
})
TEXT_ONLY = frozenset({"font-family", "font-size", "text-anchor"})


def _value(text):
    try:
        return float(text)
    except ValueError:
        return text


def drawn_elements(path):
    """Every element of the SVG at path other than <svg> and <g>, in
    document order, as (tag, effective attributes, text).

    An element's effective attributes are its own over those it inherits
    from its ancestors; numbers are compared as floats.
    """
    drawn = []

    def walk(parent, inherited):
        for element in parent:
            tag = element.tag.rsplit("}", 1)[-1]
            if tag == "g":
                # a group that set anything but inherited properties, such
                # as a transform, would change how its children are drawn
                assert set(element.attrib) <= INHERITED, element.attrib
                walk(element, {**inherited, **element.attrib})
                continue
            assert len(element) == 0, tag
            attrs = {**inherited, **element.attrib}
            if tag != "text":
                attrs = {k: v for k, v in attrs.items() if k not in TEXT_ONLY}
            drawn.append((tag, frozenset((k, _value(v)) for k, v in attrs.items()), element.text))

    root = svg_root(path)
    walk(root, {k: v for k, v in root.attrib.items() if k in INHERITED})
    return drawn


def assert_draws_the_same(path, golden):
    got, want = drawn_elements(path), drawn_elements(golden)
    assert Counter(got) == Counter(want)
    # elements that may overlap keep their paint order
    shapes = ("polyline", "circle", "path")
    assert [e for e in got if e[0] in shapes] == [e for e in want if e[0] in shapes]


def data_circles(root):
    return [
        e
        for e in root.iter()
        if e.tag.endswith("circle") and e.attrib.get("class") == "pt"
    ]


GOLDEN_DIAGRAM = PersistenceDiagram((
    (0, 0.0, 0.5), (0, 0.1, math.inf), (0, 0.2, 0.9), (0, 0.3, 0.35),
    (1, 0.4, 0.7), (1, 0.45, 0.6), (2, 0.62, 0.66),
))
# two tents in dim 1 and five levels, so levels 3 to 5 are flat
GOLDEN_LANDSCAPE = landscape(
    PersistenceDiagram(((1, 0.1, 0.9), (1, 0.3, 0.6))), 1, k_max=5, n_grid=64, t_max=1.0
)


class TestSharedStyles:
    def test_diagram_draws_the_golden_elements(self, tmp_path):
        # an infinite point between finite dim-0 points, and a title to escape
        path = tmp_path / "diagram.svg"
        plot_diagram(GOLDEN_DIAGRAM, str(path), 'R&D <1> / "peak"')
        assert_draws_the_same(path, GOLDEN / "diagram.svg")
        assert path.read_text(encoding="utf-8").count("font-family") == 1
        assert path.stat().st_size < (GOLDEN / "diagram.svg").stat().st_size

    def test_landscape_draws_the_golden_elements(self, tmp_path):
        path = tmp_path / "landscape.svg"
        plot_landscape(GOLDEN_LANDSCAPE, str(path))
        assert_draws_the_same(path, GOLDEN / "landscape.svg")
        assert path.read_text(encoding="utf-8").count("font-family") == 1
        assert path.stat().st_size < (GOLDEN / "landscape.svg").stat().st_size

    def test_helper_sees_a_changed_attribute(self, tmp_path):
        # the comparison is not blind: a group that drops fill-opacity differs
        path = tmp_path / "diagram.svg"
        plot_diagram(GOLDEN_DIAGRAM, str(path), 'R&D <1> / "peak"')
        text = path.read_text(encoding="utf-8")
        dropped = text.replace('fill="#ff7f0e" fill-opacity="0.8"', 'fill="#ff7f0e"', 1)
        assert dropped != text
        path.write_text(dropped, encoding="utf-8")
        with pytest.raises(AssertionError):
            assert_draws_the_same(path, GOLDEN / "diagram.svg")


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

    def test_single_tent_drawn_by_its_corners(self, tmp_path):
        # every grid point used to be written along the two slopes: 35 points
        dia = PersistenceDiagram(((1, 1.0, 3.0),))
        ls = landscape(dia, dim=1, k_max=1, n_grid=65, t_max=4.0)
        path = str(tmp_path / "tent.svg")
        plot_landscape(ls, path, "tent")
        lines = [e for e in svg_root(path).iter() if e.tag.endswith("polyline")]
        assert [line.attrib["points"] for line in lines] == [
            "64.00,468.00 173.00,468.00 282.00,75.27 391.00,468.00 500.00,468.00"
        ]

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
    """Every grid point of level k in pixels, before rounding."""
    vmax_x = float(ls.grid[-1]) or 1e-12
    vmax_y = float(ls.levels.max()) * 1.1 if ls.levels.max() > 0 else 1e-12

    def sx(v):
        return _L + (v / vmax_x) * _PLOT_W

    def sy(v):
        return _T + _PLOT_H - (v / vmax_y) * _PLOT_H

    return [(sx(float(t)), sy(float(v))) for t, v in zip(ls.grid, ls.levels[k])]


@settings(max_examples=60, deadline=None)
@given(
    dia=landscape_diagrams,
    k_max=st.integers(1, 6),
    n_grid=st.integers(2, 600),
)
# the apex at 1 + 1.25e-6 lies just past grid point 10: the second
# difference at grid point 11 is only ~1e-3 px, yet leaving that point out
# would draw the line ~9e-4 px off it
@example(dia=PersistenceDiagram(((1, 2.5e-6, 2.0),)), k_max=1, n_grid=22)
def test_polyline_keeps_breakpoints_of_full_grid(tmp_path_factory, dia, k_max, n_grid):
    ls = landscape(dia, 1, k_max, n_grid, shared_t_max(dia))
    path = str(tmp_path_factory.mktemp("ls") / "ls.svg")
    plot_landscape(ls, path, "oracle")
    lines = [e for e in svg_root(path).iter() if e.tag.endswith("polyline")]
    assert len(lines) == k_max
    for k, line in enumerate(lines):
        exact = full_grid_points(ls, k)
        full = [f"{_f(x)},{_f(y)}" for x, y in exact]
        kept = line.attrib["points"].split()
        assert kept[0] == full[0] and kept[-1] == full[-1]
        # x strings strictly increase, so the match into full is unique
        at = [full.index(p) for p in kept]
        assert at == sorted(set(at))
        for left, right in zip(at, at[1:]):
            (x0, y0), (x1, y1) = exact[left], exact[right]
            for x, y in exact[left + 1 : right]:
                assert x0 < x < x1
                # a dropped point lies on the segment between its kept neighbours
                assert abs(y - (y0 + (y1 - y0) * (x - x0) / (x1 - x0))) <= 1e-6
