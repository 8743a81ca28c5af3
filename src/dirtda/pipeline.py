"""Windowed multi-band analysis pipeline.

One VAR is fitted per time window; every (window, band) cell then yields a
directed network, its |W_a| distance, a persistence diagram, and landscapes.
A run makes three passes, and each writes its results as it computes them:

1. the fit pass fits each window's model and writes it;
2. the cell pass, window by window, builds each cell's network and diagram,
   writes both and the diagram's plot, and keeps only the diagram;
3. the band pass, band by band, samples every window's landscapes on the
   band's shared grid, plots them, and computes the distances between each
   pair of windows.

A failing window, cell, or window pair is recorded in report.failures, in
that pass order, and skipped without aborting the run. All artifacts are
written with stable ordering and fixed formatting, so a rerun on identical
input is byte-identical.

Only results that no other artifact of the run determines are written: the
model, network and diagram of each cell, the plots, and report.json. The
decomposition is decompose() of the network, and each landscape is
landscape() of the diagram with the cell's t_max from the report, so
neither gets a file of its own.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .decomp import asym_distance, decompose
from .homology import (
    PersistenceDiagram,
    diagram_to_dict,
    persistence,
    rips_filtration,
    total_persistence,
)
from .ingest import load_series, segment, standardize
from .jsonio import is_int, is_number, read_json, write_json
from .pdc import DEFAULT_BANDS, DirectedNetwork, FrequencyBand, network_to_dict, pdc_band
from .plots import plot_diagram, plot_landscape
from .summaries import (
    DEFAULT_K_MAX,
    DEFAULT_N_GRID,
    PersistenceLandscape,
    bottleneck,
    landscape,
    landscape_distance,
    shared_t_max,
    wasserstein,
)
from .var import OrderCriterion, fit_var, select_order, var_model_to_dict

__all__ = ["PipelineConfig", "AnalysisReport", "run_pipeline", "diagram_distances"]

REPORT_NAME = "report.json"


# window name of a config whose windows are empty: one window spanning the
# whole recording
FULL_WINDOW = "full"
_CRITERIA = tuple(c.value for c in OrderCriterion)


def _is_window(value: Any) -> bool:
    """(name, start, end): a string and two finite numbers, 0 <= start < end.

    Whether end lies within the recording is known only from the input
    file, so segment checks that.
    """
    return (
        isinstance(value, tuple)
        and len(value) == 3
        and isinstance(value[0], str)
        and all(is_number(x) and math.isfinite(x) for x in value[1:])
        and 0 <= value[1] < value[2]
    )


def _xml_chars(text: str) -> bool:
    """Whether every character of text lies in XML 1.0's Char production.

    The SVG titles hold window and band names, and no escape can write a
    character outside it, such as most control characters or a lone
    surrogate, into XML. A comparison per character, as the regex for this
    character class takes 6-9 ms to compile (Python 3.11, 2-vCPU VM), a
    cost every import would pay.
    """
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in text
    )


def _int_from(low: int) -> tuple[str, Callable[[Any], bool]]:
    return f"an integer >= {low}", lambda v: is_int(v) and v >= low


# every key of the flat JSON config -> (PipelineConfig field, what its value
# must be, test of the value); anything else is rejected as a typo, and an
# absent key leaves the field's default. A config that would fail every
# cell, or stop a run after its first writes, fails when it is built
_CONFIG_FIELDS: dict[str, tuple[str, str, Callable[[Any], bool]]] = {
    "input": ("input_path", "a path string", lambda v: isinstance(v, str)),
    "fs_hz": ("sampling_rate_hz", "finite and > 0",
              lambda v: is_number(v) and math.isfinite(v) and v > 0),
    "out_dir": ("out_dir", "a path string", lambda v: isinstance(v, str)),
    "windows": ("windows", "(name, start, end) tuples of a string and two finite "
                "numbers with 0 <= start < end",
                lambda v: isinstance(v, tuple) and all(map(_is_window, v))),
    "bands": ("bands", "a tuple of FrequencyBand",
              lambda v: isinstance(v, tuple) and all(isinstance(b, FrequencyBand) for b in v)),
    "order": ("order", *_int_from(1)),
    "select_k_max": ("select_k_max", "null or an integer >= 1",
                     lambda v: v is None or (is_int(v) and v >= 1)),
    "criterion": ("criterion", " or ".join(map(repr, _CRITERIA)), lambda v: v in _CRITERIA),
    "n_grid": ("n_grid", *_int_from(1)),
    "max_dim": ("max_dim", "1 or 2", lambda v: is_int(v) and v in (1, 2)),
    "standardize": ("standardize", "true or false", lambda v: isinstance(v, bool)),
    "landscape_k_max": ("landscape_k_max", *_int_from(1)),
    "landscape_n_grid": ("landscape_n_grid", *_int_from(2)),
    "wasserstein_q": ("wasserstein_q", "finite and >= 1",
                      lambda v: is_number(v) and math.isfinite(v) and v >= 1),
}
CONFIG_KEYS = frozenset(_CONFIG_FIELDS)
_REQUIRED_KEYS = ("input", "fs_hz", "out_dir")


def _named_spans(key: str, value: Any) -> tuple[tuple[Any, ...], ...]:
    """{name: [start, end]} as (name, start, end), sorted by name; numbers
    become floats, and any other value is left for the config to refuse."""
    if not isinstance(value, dict) or not all(
        isinstance(span, (list, tuple)) and len(span) == 2 for span in value.values()
    ):
        raise ValueError(f"config key {key!r}: must be {{name: [start, end]}}, got {value!r}")
    return tuple(
        (name, *(float(x) if is_number(x) else x for x in span))
        for name, span in sorted(value.items())
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one analysis run needs, mirroring the flat JSON config.

    windows maps window name to (start_sec, end_sec); an empty mapping means
    one window, named FULL_WINDOW, spanning the whole recording. order is
    the fixed VAR order; when select_k_max is set instead, the order is
    chosen per window by the given criterion.

    Every field's type and range is checked when the config is built, then
    its names: window names and band names must each be distinct and hold
    only characters that XML 1.0 allows, window names may not hold '|', and
    no two cells may write the same file. A failing check raises ValueError
    naming the config key, before any file is written. sampling_rate_hz and
    wasserstein_q are stored as floats.
    """

    input_path: str
    sampling_rate_hz: float
    out_dir: str
    windows: tuple[tuple[str, float, float], ...] = ()
    bands: tuple[FrequencyBand, ...] = DEFAULT_BANDS
    order: int = 5
    select_k_max: int | None = None
    criterion: str = "bic"
    n_grid: int = 32
    max_dim: int = 2
    standardize: bool = True
    landscape_k_max: int = DEFAULT_K_MAX
    landscape_n_grid: int = DEFAULT_N_GRID
    wasserstein_q: float = 1.0

    def __post_init__(self) -> None:
        for key, (name, must_be, ok) in _CONFIG_FIELDS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"config key {key!r}: must be {must_be}, got {value!r}")
        object.__setattr__(self, "sampling_rate_hz", float(self.sampling_rate_hz))
        object.__setattr__(self, "wasserstein_q", float(self.wasserstein_q))
        window_names = [name for name, _, _ in self.windows] or [FULL_WINDOW]
        band_names = [band.name for band in self.bands]
        for key, names in (("windows", window_names), ("bands", band_names)):
            for name in names:
                if not _xml_chars(name):
                    raise ValueError(
                        f"config key {key!r}: name {name!r} holds a character XML cannot hold"
                    )
        # a window pair's distances and failures are keyed "a|b"
        for name in window_names:
            if "|" in name:
                raise ValueError(
                    f"config key 'windows': name {name!r} holds '|', which joins "
                    "the two names of a window pair"
                )
        _check_artifact_names(window_names, band_names)

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "PipelineConfig":
        """Config from its flat JSON form; an unknown or missing required
        key, or a value the config refuses, raises ValueError naming it."""
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key in _REQUIRED_KEYS:
            if key not in doc:
                raise ValueError(f"config key {key!r}: required but missing")
        fields = {_CONFIG_FIELDS[key][0]: value for key, value in doc.items()}
        if "windows" in doc:
            fields["windows"] = _named_spans("windows", doc["windows"])
        if "bands" in doc:
            spans = _named_spans("bands", doc["bands"])
            try:
                fields["bands"] = tuple(FrequencyBand(*span) for span in spans)
            except ValueError as exc:
                raise ValueError(f"config key 'bands': {exc}") from None
        return PipelineConfig(**fields)

    def to_dict(self) -> dict[str, Any]:
        doc = {key: getattr(self, name) for key, (name, _, _) in _CONFIG_FIELDS.items()}
        doc["windows"] = {name: [lo, hi] for name, lo, hi in self.windows}
        doc["bands"] = {b.name: [b.low_hz, b.high_hz] for b in self.bands}
        return doc


@dataclass
class AnalysisReport:
    """What one run produced; artifacts are file names within config.out_dir."""

    config: PipelineConfig
    cells: dict[str, dict[str, Any]] = field(default_factory=dict)
    distances: dict[str, Any] = field(default_factory=dict)
    failures: list[dict[str, str]] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def n_succeeded(self) -> int:
        return sum(len(bands) for bands in self.cells.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "cells": self.cells,
            "distances": self.distances,
            "failures": self.failures,
            "artifacts": sorted(self.artifacts),
        }


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name)


def _check_artifact_names(window_names: list[str], band_names: list[str]) -> None:
    """Raise if two windows, or two (window, band) cells, share a file name.

    A repeated window or band name repeats a file name, so this refuses
    those too. _slug is not one-to-one ("a b" and "a-b" both give "a-b"),
    and a cell joins two slugs with "_" ("a_b" + "c" and "a" + "b_c" both
    give "a_b_c"), so without this check one cell's files overwrite
    another's.
    """
    named = [(f"model_{_slug(w)}.json", f"window {w!r}") for w in window_names]
    named += [
        (f"diagram_{_slug(w)}_{_slug(b)}.json", f"cell ({w!r}, {b!r})")
        for w in window_names
        for b in band_names
    ]
    claimed: dict[str, str] = {}
    for path, name in named:
        if path in claimed:
            raise ValueError(f"{claimed[path]} and {name} would both write {path}")
        claimed[path] = name


def _cell(
    model, labels: tuple[str, ...], band: FrequencyBand, cfg: PipelineConfig
) -> tuple[DirectedNetwork, PersistenceDiagram]:
    """Network and diagram for one (window, band) cell."""
    net = pdc_band(model, band, cfg.sampling_rate_hz, cfg.n_grid, labels)
    return net, persistence(rips_filtration(asym_distance(decompose(net)), cfg.max_dim))


def diagram_distances(
    dia_a: PersistenceDiagram,
    dia_b: PersistenceDiagram,
    ls_a: PersistenceLandscape,
    ls_b: PersistenceLandscape,
    dim: int,
    q: float,
) -> dict[str, Any]:
    """Bottleneck, q-Wasserstein and landscape L2 distances in one dimension.

    ls_a and ls_b are the two diagrams' landscapes in dim on one grid. An
    infinite distance is written "inf", as JSON has no infinity. The two
    diagram distances read one augmented matrix, cached by summaries.
    """
    was = wasserstein(dia_a, dia_b, dim, q)
    bot = bottleneck(dia_a, dia_b, dim)
    return {
        "bottleneck": bot if math.isfinite(bot) else "inf",
        "wasserstein": was if math.isfinite(was) else "inf",
        "landscape_l2": landscape_distance(ls_a, ls_b, 2),
    }


def _listed_artifacts(out_dir: str) -> list[str]:
    """File names that the report.json already in out_dir lists as artifacts.

    A missing or unreadable report, or one without an artifacts list, lists
    none. Only plain names are returned: never one with a directory part,
    ".", ".." or report.json, so a report cannot point outside out_dir.
    """
    try:
        doc = read_json(os.path.join(out_dir, REPORT_NAME))
    except (OSError, ValueError):
        return []
    listed = doc.get("artifacts")
    if not isinstance(listed, list):
        return []
    return [
        name
        for name in listed
        if isinstance(name, str)
        and name == os.path.basename(name)
        and name not in ("", ".", "..", REPORT_NAME)
    ]


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute the full analysis and write all artifacts under out_dir.

    Returns the report, which is also written as report.json. Per-cell
    failures, and per window pair failures of the distance phase (with
    window "a|b"), are collected in report.failures rather than raised.
    Files that a report.json already in out_dir lists, and that this run
    does not write, are removed before the new report is written, so
    out_dir never holds results of an earlier config that look current.
    """
    report = AnalysisReport(config)
    previous = _listed_artifacts(config.out_dir)
    series = load_series(config.input_path, config.sampling_rate_hz)

    windows = config.windows or ((FULL_WINDOW, 0.0, series.duration_sec),)
    os.makedirs(config.out_dir, exist_ok=True)
    dims = range(config.max_dim + 1)

    def artifact(name: str) -> str:
        """Path of a file in out_dir, listed in the report by its name alone."""
        report.artifacts.append(name)
        return os.path.join(config.out_dir, name)

    def fail(window: str, band: str, error: str) -> None:
        report.failures.append({"window": window, "band": band, "error": error})

    # fit pass: one model per window; a window failure poisons only its cells
    models: dict[str, Any] = {}
    for name, lo, hi in windows:
        try:
            win = segment(series, lo, hi)
            if config.standardize:
                win = standardize(win)
            if config.select_k_max is not None:
                order = select_order(win, config.select_k_max, OrderCriterion(config.criterion))
            else:
                order = config.order
            models[name] = fit_var(win, order)
        except ValueError as exc:
            for band in config.bands:
                fail(name, band.name, str(exc))
            continue
        write_json(var_model_to_dict(models[name]), artifact(f"model_{_slug(name)}.json"))

    # cell pass, window by window: only the diagrams outlive it
    diagrams: dict[str, dict[str, PersistenceDiagram]] = {b.name: {} for b in config.bands}
    for name, model in models.items():
        for band in config.bands:
            try:
                net, diagram = _cell(model, series.channel_labels, band, config)
            except ValueError as exc:
                fail(name, band.name, str(exc))
                continue
            stem = f"{_slug(name)}_{_slug(band.name)}"
            write_json(network_to_dict(net), artifact(f"network_{stem}.json"))
            write_json(diagram_to_dict(diagram), artifact(f"diagram_{stem}.json"))
            plot_diagram(diagram, artifact(f"diagram_{stem}.svg"), f"{name} / {band.name}")
            diagrams[band.name][name] = diagram

    # band pass: landscapes on the band's shared grid, then window distances
    for band in config.bands:
        cells = diagrams[band.name]
        # shared truncation across windows keeps landscapes comparable
        t_max = shared_t_max(*cells.values())
        landscapes: dict[str, list[PersistenceLandscape]] = {}
        for name, diagram in cells.items():
            stem = f"{_slug(name)}_{_slug(band.name)}"
            landscapes[name] = [
                landscape(diagram, dim, config.landscape_k_max, config.landscape_n_grid, t_max)
                for dim in dims
            ]
            for dim, ls in enumerate(landscapes[name]):
                title = f"{name} / {band.name} dim {dim}"
                plot_landscape(ls, artifact(f"landscape_{stem}_dim{dim}.svg"), title)
            report.cells.setdefault(name, {})[band.name] = {
                "t_max": t_max,
                "total_persistence": {str(dim): total_persistence(diagram, dim) for dim in dims},
            }

        band_dist: dict[str, Any] = {}
        for wa, wb in itertools.combinations(cells, 2):
            ls_a, ls_b = landscapes[wa], landscapes[wb]
            try:
                band_dist[f"{wa}|{wb}"] = {
                    str(dim): diagram_distances(
                        cells[wa], cells[wb], ls_a[dim], ls_b[dim], dim, config.wasserstein_q
                    )
                    for dim in dims
                }
            except Exception as exc:  # one pair's failure must not end the run
                fail(f"{wa}|{wb}", band.name, f"{type(exc).__name__}: {exc}")
        if band_dist:
            report.distances[band.name] = band_dist

    # results of an earlier config that this run did not rewrite
    written = set(report.artifacts)
    for name in previous:
        path = os.path.join(config.out_dir, name)
        if name not in written and os.path.isfile(path):
            os.remove(path)

    write_json(report.to_dict(), os.path.join(config.out_dir, REPORT_NAME))
    report.artifacts.append(REPORT_NAME)
    return report
