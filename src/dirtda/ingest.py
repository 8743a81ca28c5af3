"""Loading, windowing, and normalization of multichannel recordings.

Recordings are plain CSV: one row per sample, one column per channel,
optionally preceded by a single header row of channel labels. Every type
that holds channel labels checks them with channel_labels.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .jsonio import float_array_field, is_number, open_atomic

__all__ = [
    "MultivariateSeries",
    "channel_labels",
    "default_labels",
    "load_series",
    "save_series",
    "segment",
    "standardize",
]


def default_labels(n_channels: int) -> tuple[str, ...]:
    """Fallback channel names "ch1" .. "chd"."""
    return tuple(f"ch{i}" for i in range(1, n_channels + 1))


def channel_labels(labels: tuple[str, ...] | list[str] | None, n_channels: int) -> tuple[str, ...]:
    """labels as a tuple of n_channels distinct strings, or the default
    labels when labels is None; anything else raises ValueError."""
    if labels is None:
        return default_labels(n_channels)
    labels = tuple(labels)
    if not all(isinstance(label, str) for label in labels) or len(set(labels)) < len(labels):
        raise ValueError(f"channel labels must be distinct strings, got {list(labels)}")
    if len(labels) != n_channels:
        raise ValueError(f"{len(labels)} labels for {n_channels} channels")
    return labels


@dataclass(frozen=True)
class MultivariateSeries:
    """A fixed-rate multichannel recording.

    Attributes
    ----------
    samples : np.ndarray
        Array of shape (n_samples, n_channels), float64, finite. The array
        is copied on construction and marked read-only.
    sampling_rate_hz : float
        Sampling rate in Hz, a finite number > 0 (not a bool), as a float.
    channel_labels : tuple[str, ...]
        One distinct string per channel; None gives the defaults.
    """

    samples: np.ndarray
    sampling_rate_hz: float
    channel_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = float_array_field(self.samples, "series samples")
        if arr.ndim != 2:
            raise ValueError(f"samples must be 2-d (got ndim={arr.ndim})")
        t, d = arr.shape
        if t < 1 or d < 1:
            raise ValueError(f"samples must be non-empty (got shape {arr.shape})")
        fs = self.sampling_rate_hz
        if not (is_number(fs) and math.isfinite(fs) and fs > 0):
            raise ValueError(f"sampling_rate_hz must be a finite number > 0, got {fs!r}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sampling_rate_hz", float(fs))
        object.__setattr__(self, "channel_labels", channel_labels(self.channel_labels, d))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_sec(self) -> float:
        return self.n_samples / self.sampling_rate_hz


def _parse_float(cell: str, row_no: int, col_no: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(
            f"non-numeric value {cell!r} at row {row_no}, column {col_no}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r} at row {row_no}, column {col_no}")
    return value


def _header_labels(row: list[str], row_no: int) -> tuple[str, ...] | None:
    """The row's stripped cells when any of them is not a number, else None."""
    try:
        for col_no, cell in enumerate(row, start=1):
            _parse_float(cell, row_no, col_no)
    except ValueError:
        return tuple(cell.strip() for cell in row)
    return None


def _load_clean(
    path: str | os.PathLike,
) -> tuple[np.ndarray, tuple[str, ...] | None] | None:
    """Parse a clean numeric CSV with np.loadtxt, or None when it cannot vouch.

    The header is detected from the first non-empty row exactly as in
    _parse_cells. The result is kept only when loadtxt raised and warned
    nothing, returned at least one row as wide as that first row, and every
    value is finite; anything else is left to _parse_cells.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            first = next((row for row in reader if row), None)
            if first is None:
                return None
            labels = _header_labels(first, reader.line_num)
        # loadtxt skips blank lines itself, so only a header needs skipping
        skip = reader.line_num if labels is not None else 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(
                path,
                delimiter=",",
                skiprows=skip,
                dtype=float,
                comments=None,
                ndmin=2,
                encoding="utf-8-sig",
            )
    except (ValueError, csv.Error, Warning):
        return None
    if data.shape[0] < 1 or data.shape[1] != len(first) or not np.isfinite(data).all():
        return None
    return data, labels


def _parse_cells(path: str | os.PathLike) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse the CSV one cell at a time with float(); the source of every error."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"empty recording: {path}")

    first_no, first = rows[0]
    labels = _header_labels(first, first_no)
    if labels is not None:
        rows = rows[1:]
        if not rows:
            raise ValueError(f"header but no data rows in {path}")

    width = len(rows[0][1])
    data = np.empty((len(rows), width), dtype=float)
    for i, (row_no, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"ragged row {row_no}: expected {width} columns, got {len(row)}"
            )
        for j, cell in enumerate(row):
            data[i, j] = _parse_float(cell, row_no, j + 1)
    return data, labels


def load_series(path: str | os.PathLike, sampling_rate_hz: float) -> MultivariateSeries:
    """Read a CSV recording.

    The first non-empty row is treated as a header when any of its cells
    does not parse as a number; otherwise default labels "ch1".."chd" are
    assigned. A UTF-8 byte-order mark at the start of the file is skipped.
    A clean numeric file is parsed in C by np.loadtxt. Anything
    it rejects, warns about, or reads as non-finite or of the wrong width
    (quoted cells, "1_0", non-ASCII digits, ragged rows, bad cells) is
    parsed again one cell at a time with Python's float(), which accepts
    the same cells as before and raises every error. Ragged rows and
    non-numeric or non-finite cells are reported as "row N, column M",
    where N is the 1-based file line on which the record ends (blank lines
    count) and M the 1-based column.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    parsed = _load_clean(path)
    if parsed is None:
        parsed = _parse_cells(path)
    data, labels = parsed
    return MultivariateSeries(data, sampling_rate_hz, labels)


def save_series(series: MultivariateSeries, path: str | os.PathLike) -> None:
    """Write a CSV with a header row atomically; repr floats reload bit-identical."""
    with open_atomic(os.fspath(path)) as handle:
        writer = csv.writer(handle)
        writer.writerow(series.channel_labels)
        writer.writerows(series.samples.tolist())


def segment(series: MultivariateSeries, start_sec: float, end_sec: float) -> MultivariateSeries:
    """Extract the window [start_sec, end_sec) as a new series.

    Selected rows are floor(start_sec * fs) .. floor(end_sec * fs) - 1.
    """
    if start_sec < 0 or not start_sec < end_sec:
        raise ValueError(f"empty or inverted window [{start_sec}, {end_sec})")
    if end_sec > series.duration_sec + 1e-12:
        raise ValueError(
            f"window end {end_sec}s exceeds recording length {series.duration_sec}s"
        )
    fs = series.sampling_rate_hz
    lo = math.floor(start_sec * fs)
    hi = min(math.floor(end_sec * fs), series.n_samples)
    if hi <= lo:
        raise ValueError(f"window [{start_sec}, {end_sec})s contains no samples at {fs} Hz")
    return MultivariateSeries(series.samples[lo:hi], fs, series.channel_labels)


def standardize(series: MultivariateSeries) -> MultivariateSeries:
    """Center and scale each channel to sample mean 0 and sample variance 1."""
    if series.n_samples < 2:
        raise ValueError("standardize needs at least 2 samples")
    x = series.samples
    sd = x.std(axis=0, ddof=1)
    flat = np.flatnonzero(sd == 0)
    if flat.size:
        raise ValueError(
            f"constant channel {series.channel_labels[flat[0]]!r} cannot be standardized"
        )
    z = (x - x.mean(axis=0)) / sd
    return MultivariateSeries(z, series.sampling_rate_hz, series.channel_labels)
