import csv
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dirtda import (
    DirectedNetwork,
    DistanceMatrix,
    FrequencyBand,
    MultivariateSeries,
    channel_labels,
    default_labels,
    load_series,
    save_series,
    segment,
    standardize,
)
from dirtda import ingest


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestMultivariateSeries:
    def test_basic_construction(self):
        s = MultivariateSeries(np.zeros((10, 3)), 100.0, ("a", "b", "c"))
        assert s.n_samples == 10
        assert s.n_channels == 3
        assert s.duration_sec == 0.1

    def test_default_labels(self):
        assert default_labels(3) == ("ch1", "ch2", "ch3")

    def test_rejects_nonfinite(self):
        data = np.zeros((4, 2))
        data[2, 1] = np.nan
        with pytest.raises(ValueError, match="row 3"):
            MultivariateSeries(data, 1.0, ("a", "b"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            MultivariateSeries(np.zeros((4, 2)), 1.0, ("a", "a"))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            MultivariateSeries(np.zeros((4, 2)), 0.0, ("a", "b"))

    @pytest.mark.parametrize("fs", [True, "100"], ids=["bool", "string"])
    def test_rejects_rate_that_is_not_a_number(self, fs):
        # True used to be stored as 1.0 Hz, and "100" raised a TypeError
        message = f"sampling_rate_hz must be a finite number > 0, got {fs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MultivariateSeries(np.zeros((4, 2)), fs)

    def test_samples_read_only(self):
        s = MultivariateSeries(np.zeros((4, 2)), 1.0, ("a", "b"))
        with pytest.raises(ValueError):
            s.samples[0, 0] = 1.0


class TestLoadSeries:
    def test_header_parse(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        s = load_series(path, 10.0)
        assert s.n_samples == 3
        assert s.n_channels == 2
        assert s.channel_labels == ("a", "b")

    def test_nan_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,nan\n")
        with pytest.raises(ValueError, match="row 3.*column 2"):
            load_series(path, 10.0)

    def test_single_column_no_header(self, tmp_path):
        path = write(tmp_path, "1\n2\n3\n")
        s = load_series(path, 10.0)
        assert s.n_channels == 1
        assert s.channel_labels == ("ch1",)

    def test_no_header_numeric_first_row(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4\n")
        s = load_series(path, 10.0)
        assert s.n_samples == 2
        assert s.channel_labels == ("ch1", "ch2")

    def test_ragged_rows_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_series(path, 10.0)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\nx,4\n")
        with pytest.raises(ValueError):
            load_series(path, 10.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(str(tmp_path / "nope.csv"), 10.0)

    def test_error_position_is_file_line(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n\n\n3,x\n")
        with pytest.raises(ValueError, match="row 5, column 2"):
            load_series(path, 10.0)

    def test_ragged_row_position_is_file_line(self, tmp_path):
        path = write(tmp_path, "\na,b\n1,2\n\n3\n")
        with pytest.raises(ValueError, match="ragged row 5:"):
            load_series(path, 10.0)

    def test_byte_order_mark_without_header(self, tmp_path):
        # the mark used to make the first row a header of label "\ufeff1.0"
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff1.0,2.0\n3.0,4.0\n5.0,6.0\n".encode("utf-8"))
        s = load_series(str(path), 10.0)
        assert s.channel_labels == ("ch1", "ch2")
        assert s.samples.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffa,b\n1,2\n3,4\n".encode("utf-8"))
        s = load_series(str(path), 10.0)
        assert s.channel_labels == ("a", "b")
        assert s.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_clean_csv_skips_cell_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        s = MultivariateSeries(rng.normal(size=(1000, 8)), 50.0)
        path = str(tmp_path / "clean.csv")
        save_series(s, path)

        def refuse(path):
            raise AssertionError("per-cell parser called on a clean CSV")

        monkeypatch.setattr(ingest, "_parse_cells", refuse)
        back = load_series(path, 50.0)
        assert back.channel_labels == s.channel_labels
        assert back.samples.tobytes() == s.samples.tobytes()

        # nor on a headerless one that starts with a byte-order mark
        rows = "".join(",".join(map(repr, row)) + "\n" for row in s.samples.tolist())
        marked = write(tmp_path, "\ufeff" + rows, name="marked.csv")
        back = load_series(marked, 50.0)
        assert back.channel_labels == default_labels(8)
        assert back.samples.tobytes() == s.samples.tobytes()

    def test_header_only_raises_without_warning(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="header but no data rows"):
                load_series(path, 10.0)
        assert caught == []

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        s = MultivariateSeries(rng.normal(size=(50, 4)), 25.0, ("w", "x", "y", "z"))
        path = str(tmp_path / "rt.csv")
        save_series(s, path)
        back = load_series(path, 25.0)
        assert back.channel_labels == s.channel_labels
        assert np.array_equal(back.samples, s.samples)


LABELLED = {
    "series": lambda labels: MultivariateSeries(np.zeros((4, 2)), 1.0, labels),
    "network": lambda labels: DirectedNetwork(np.zeros((2, 2)), FrequencyBand("b", 1, 2), labels),
    "distance": lambda labels: DistanceMatrix(np.zeros((2, 2)), labels),
}


class TestChannelLabels:
    @pytest.mark.parametrize("labels", [("a", "a"), (1, 2)], ids=["repeated", "numbers"])
    @pytest.mark.parametrize("build", LABELLED.values(), ids=LABELLED.keys())
    def test_labelled_types_refuse(self, build, labels):
        message = f"channel labels must be distinct strings, got {list(labels)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(labels)

    @pytest.mark.parametrize("build", LABELLED.values(), ids=LABELLED.keys())
    def test_none_gives_default_labels(self, build):
        labelled = build(None)
        if isinstance(labelled, MultivariateSeries):
            assert labelled.channel_labels == ("ch1", "ch2")
        else:
            assert labelled.labels == ("ch1", "ch2")

    def test_count_must_match(self):
        with pytest.raises(ValueError, match="3 labels for 2 channels"):
            channel_labels(["a", "b", "c"], 2)
        assert channel_labels(["a", "b"], 2) == ("a", "b")


class TestSegment:
    def make(self, t=48000, fs=100.0, d=2):
        return MultivariateSeries(
            np.arange(t * d, dtype=float).reshape(t, d), fs, default_labels(d)
        )

    def test_half_of_eight_minutes(self):
        s = self.make(t=48000, fs=100.0)
        assert segment(s, 0, 240).n_samples == 24000

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            segment(self.make(), 10, 10)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            segment(self.make(), 20, 10)

    def test_full_duration_is_identity(self):
        s = self.make(t=1000)
        out = segment(s, 0, s.duration_sec)
        assert np.array_equal(out.samples, s.samples)

    def test_window_beyond_recording_rejected(self):
        s = self.make(t=1000, fs=100.0)
        with pytest.raises(ValueError):
            segment(s, 0, 10.01)

    def test_floor_rounding(self):
        s = self.make(t=100, fs=10.0)
        out = segment(s, 0.19, 0.51)
        # rows floor(1.9)..floor(5.1)-1 = rows 1..4
        assert np.array_equal(out.samples, s.samples[1:5])

    def test_composition(self):
        s = self.make(t=2000, fs=100.0)
        a, b, c = 2.0, 9.0, 15.0
        direct = segment(s, a, b)
        nested = segment(segment(s, a, c), 0, b - a)
        assert np.array_equal(direct.samples, nested.samples)


class TestStandardize:
    def test_moments(self):
        s = MultivariateSeries(np.array([[1.0], [2.0], [3.0]]), 1.0, ("a",))
        out = standardize(s)
        assert abs(out.samples.mean()) < 1e-15
        assert abs(out.samples.var(ddof=1) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        s = MultivariateSeries(rng.normal(2.0, 5.0, size=(200, 3)), 1.0, ("a", "b", "c"))
        once = standardize(s)
        twice = standardize(once)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-12

    def test_constant_channel_names_label(self):
        data = np.column_stack([np.full(5, 5.0), np.arange(5.0)])
        s = MultivariateSeries(data, 1.0, ("flat", "ok"))
        with pytest.raises(ValueError, match="flat"):
            standardize(s)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            standardize(MultivariateSeries(np.ones((1, 2)), 1.0, ("a", "b")))


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 20), st.integers(1, 4)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    )
)
def test_save_load_round_trip_property(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("rt")
    s = MultivariateSeries(data, 100.0, default_labels(data.shape[1]))
    path = str(tmp / "x.csv")
    save_series(s, path)
    assert np.array_equal(load_series(path, 100.0).samples, s.samples)


def test_save_series_matches_per_scalar_format(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-20, 20, size=(40, 3))
    data[0, 0] = -0.0
    s = MultivariateSeries(data, 1.0, ("x", "y", "z"))
    path = tmp_path / "s.csv"
    save_series(s, str(path))
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(s.channel_labels)
        for row in s.samples:
            writer.writerow([repr(float(x)) for x in row])
    assert path.read_bytes() == expected.read_bytes()


# Pieces of CSV text that either parser may stumble on: every token that
# float() and np.loadtxt read differently, plus line ends and separators.
TOKENS = [
    *"0123456789", ".", "e", "+", "-", "_", " ", "\t", ",", "\n", "\r\n", "\r",
    '"', "#", "nan", "inf", "1e400", "\u0663",
]
CELL_TOKENS = [t for t in TOKENS if t not in (",", "\n", "\r\n", "\r")]
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
ODD_CELLS = st.lists(st.sampled_from(CELL_TOKENS), max_size=4).map("".join)


@st.composite
def csv_texts(draw):
    """Mostly well-formed tables with the odd bad cell, blank line or ragged row."""
    width = draw(st.integers(1, 4))
    lines = [""] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        header = st.sampled_from(["a", "b", "ch 1", '"q"', "1", "", "#x"])
        lines.append(",".join(draw(st.lists(header, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 6))):
        w = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        cell = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, ODD_CELLS)
        lines.append(",".join(draw(st.lists(cell, min_size=w, max_size=w))))
        if not draw(st.integers(0, 5)):
            lines.append("")
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def outcome(read, path):
    try:
        s = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return s.samples.shape, s.samples.tobytes(), s.channel_labels


def parse_cells_only(path):
    data, labels = ingest._parse_cells(path)
    return MultivariateSeries(data, 10.0, labels or default_labels(data.shape[1]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(csv_texts(), st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)))
def test_load_series_matches_cell_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda p: load_series(p, 10.0), str(path)) == outcome(
        parse_cells_only, str(path)
    )


def test_failed_save_keeps_previous_csv(tmp_path, monkeypatch):
    # save_series used to write in place: a failure left a truncated CSV
    path = tmp_path / "s.csv"
    save_series(MultivariateSeries(np.zeros((4, 2)), 1.0), str(path))
    before = path.read_bytes()
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, handle):
            self.writer = real_writer(handle)
            self.writerow = self.writer.writerow

        def writerows(self, rows):
            self.writer.writerow(rows[0])
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", FailingWriter)
    with pytest.raises(OSError, match="disk full"):
        save_series(MultivariateSeries(np.ones((4, 2)), 1.0), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["s.csv"]
