"""Windowed multi-band analysis pipeline.

One VAR is fitted per time window; every (window, band) cell then yields a
directed network, its |W_a| distance, a persistence diagram, and landscapes.
Cells run one after another in config order and are independent: a failing
cell, or a failing distance between two windows' diagrams, is recorded and
skipped without aborting the run. All artifacts are
written with stable ordering and fixed formatting, so a rerun on identical
input is byte-identical.

Only results that no other artifact of the run determines are written: the
model, network and diagram of each cell, the plots, and report.json. The
decomposition is decompose() of the network, and each landscape is
landscape() of the diagram with the cell's t_max from the report, so
neither gets a file of its own.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from .decomp import asym_distance, decompose
from .homology import (
    PersistenceDiagram,
    diagram_to_dict,
    persistence,
    rips_filtration,
    total_persistence,
)
from .ingest import load_series, segment, standardize
from .jsonio import read_json, write_json
from .pdc import DEFAULT_BANDS, FrequencyBand, network_to_dict, pdc_band
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


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _number(value: Any) -> float:
    if not _is_number(value):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _path(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a path string, got {value!r}")
    return value


def _criterion(value: Any) -> str:
    return OrderCriterion(value).value


def _span(value: Any) -> tuple[float, float]:
    """[start, end] as exactly two JSON numbers."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(map(_is_number, value))
    ):
        raise ValueError(f"expected [start, end], two numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _named_spans(value: Any) -> tuple[tuple[str, float, float], ...]:
    """{name: [start, end]} as (name, start, end), sorted by name."""
    if not isinstance(value, dict):
        raise ValueError(f"expected {{name: [start, end]}}, got {value!r}")
    return tuple((str(name), *_span(span)) for name, span in sorted(value.items()))


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


# every key of the flat JSON config -> (PipelineConfig field, parser of its
# value); anything else is rejected as a typo, and an absent key leaves the
# field's default
_CONFIG_FIELDS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "input": ("input_path", _path),
    "fs_hz": ("sampling_rate_hz", _number),
    "out_dir": ("out_dir", _path),
    "windows": ("windows", _named_spans),
    "bands": ("bands", lambda v: tuple(FrequencyBand(*span) for span in _named_spans(v))),
    "order": ("order", _integer),
    "select_k_max": ("select_k_max", lambda v: None if v is None else _integer(v)),
    "criterion": ("criterion", _criterion),
    "n_grid": ("n_grid", _integer),
    "max_dim": ("max_dim", _integer),
    "standardize": ("standardize", _boolean),
    "landscape_k_max": ("landscape_k_max", _integer),
    "landscape_n_grid": ("landscape_n_grid", _integer),
    "wasserstein_q": ("wasserstein_q", _number),
}
CONFIG_KEYS = frozenset(_CONFIG_FIELDS)
_REQUIRED_KEYS = ("input", "fs_hz", "out_dir")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one analysis run needs, mirroring the flat JSON config.

    windows maps window name to (start_sec, end_sec); an empty mapping means
    one window spanning the whole recording. order is the fixed VAR order;
    when select_k_max is set instead, the order is chosen per window by the
    given criterion.
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

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "PipelineConfig":
        """Config from its flat JSON form; an unknown or missing required
        key, or a value that does not parse, raises ValueError naming it."""
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        fields = {}
        for key, (name, parse) in _CONFIG_FIELDS.items():
            if key not in doc:
                if key in _REQUIRED_KEYS:
                    raise ValueError(f"config key {key!r}: required but missing")
                continue
            try:
                fields[name] = parse(doc[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        return PipelineConfig(**fields)

    def to_dict(self) -> dict[str, Any]:
        return {
            "input": self.input_path,
            "fs_hz": self.sampling_rate_hz,
            "out_dir": self.out_dir,
            "windows": {name: [lo, hi] for name, lo, hi in self.windows},
            "bands": {b.name: [b.low_hz, b.high_hz] for b in self.bands},
            "order": self.order,
            "select_k_max": self.select_k_max,
            "criterion": self.criterion,
            "n_grid": self.n_grid,
            "max_dim": self.max_dim,
            "standardize": self.standardize,
            "landscape_k_max": self.landscape_k_max,
            "landscape_n_grid": self.landscape_n_grid,
            "wasserstein_q": self.wasserstein_q,
        }


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

    _slug is not one-to-one ("a b" and "a-b" both give "a-b"), and a cell
    joins two slugs with "_" ("a_b" + "c" and "a" + "b_c" both give
    "a_b_c"), so without this check one cell's files overwrite another's.
    """
    named = [(f"model_{_slug(w)}.json", f"window {w!r}") for w in window_names]
    named += [
        (f"diagram_{_slug(w)}_{_slug(b)}.json", f"cell ({w!r}, {b!r})")
        for w in window_names
        for b in band_names
    ]
    claimed: dict[str, str] = {}
    for path, name in named:
        other = claimed.setdefault(path, name)
        if other != name:
            raise ValueError(f"{other} and {name} would both write {path}")


def _cell(
    model, labels: tuple[str, ...], band: FrequencyBand, cfg: PipelineConfig
) -> dict[str, Any]:
    """Network and diagram for one (window, band) cell."""
    net = pdc_band(model, band, cfg.sampling_rate_hz, cfg.n_grid, labels)
    diagram = persistence(rips_filtration(asym_distance(decompose(net)), cfg.max_dim))
    return {"network": net, "diagram": diagram}


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
    infinite distance is written "inf", as JSON has no infinity.
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
    listed = doc.get("artifacts") if isinstance(doc, dict) else None
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
    Names whose artifacts would share a file are rejected before any file
    is written. Files that a report.json already in out_dir lists, and that
    this run does not write, are removed before the new report is written,
    so out_dir never holds results of an earlier config that look current.
    """
    report = AnalysisReport(config)
    previous = _listed_artifacts(config.out_dir)
    series = load_series(config.input_path, config.sampling_rate_hz)

    windows = config.windows or (("full", 0.0, series.duration_sec),)
    window_names = [name for name, _, _ in windows]
    if len(set(window_names)) != len(window_names):
        raise ValueError("window names must be distinct")
    band_names = [band.name for band in config.bands]
    if len(set(band_names)) != len(band_names):
        raise ValueError("band names must be distinct")
    _check_artifact_names(window_names, band_names)
    os.makedirs(config.out_dir, exist_ok=True)

    # fit one model per window; a window failure poisons only its own cells
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
            models[name] = (fit_var(win, order), win.channel_labels)
        except (ValueError, FileNotFoundError) as exc:
            for band in config.bands:
                report.failures.append(
                    {"window": name, "band": band.name, "error": str(exc)}
                )

    results: dict[tuple[str, str], dict[str, Any]] = {}
    for w_name, _, _ in windows:
        if w_name not in models:
            continue
        model, labels = models[w_name]
        for band in config.bands:
            try:
                results[(w_name, band.name)] = _cell(model, labels, band, config)
            except ValueError as exc:
                report.failures.append(
                    {"window": w_name, "band": band.name, "error": str(exc)}
                )

    def artifact(name: str) -> str:
        """Path of a file in out_dir, listed in the report by its name alone."""
        report.artifacts.append(name)
        return os.path.join(config.out_dir, name)

    # deterministic artifact writing: iterate windows and bands in config order
    for w_name, _, _ in windows:
        if w_name not in models:
            continue
        model, _ = models[w_name]
        write_json(var_model_to_dict(model), artifact(f"model_{_slug(w_name)}.json"))

    for band in config.bands:
        # shared truncation across windows keeps landscapes comparable
        band_diagrams = [
            results[(w, band.name)]["diagram"]
            for w, _, _ in windows
            if (w, band.name) in results
        ]
        t_max = shared_t_max(*band_diagrams)
        for w_name, _, _ in windows:
            key = (w_name, band.name)
            if key not in results:
                continue
            cell = results[key]
            stem = f"{_slug(w_name)}_{_slug(band.name)}"
            cell_doc: dict[str, Any] = {"t_max": t_max, "total_persistence": {}}

            write_json(network_to_dict(cell["network"]), artifact(f"network_{stem}.json"))
            write_json(diagram_to_dict(cell["diagram"]), artifact(f"diagram_{stem}.json"))
            plot_diagram(
                cell["diagram"], artifact(f"diagram_{stem}.svg"), f"{w_name} / {band.name}"
            )

            landscapes = {}
            for dim in range(config.max_dim + 1):
                ls = landscape(
                    cell["diagram"],
                    dim,
                    config.landscape_k_max,
                    config.landscape_n_grid,
                    t_max,
                )
                landscapes[dim] = ls
                plot_landscape(
                    ls,
                    artifact(f"landscape_{stem}_dim{dim}.svg"),
                    f"{w_name} / {band.name} dim {dim}",
                )
                cell_doc["total_persistence"][str(dim)] = total_persistence(
                    cell["diagram"], dim
                )
            cell["landscapes"] = landscapes
            report.cells.setdefault(w_name, {})[band.name] = cell_doc

        # cross-window distances within this band
        present = [w for w, _, _ in windows if (w, band.name) in results]
        band_dist: dict[str, Any] = {}
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                wa, wb = present[i], present[j]
                cell_a, cell_b = results[(wa, band.name)], results[(wb, band.name)]
                try:
                    by_dim = {
                        str(dim): diagram_distances(
                            cell_a["diagram"],
                            cell_b["diagram"],
                            cell_a["landscapes"][dim],
                            cell_b["landscapes"][dim],
                            dim,
                            config.wasserstein_q,
                        )
                        for dim in range(config.max_dim + 1)
                    }
                except Exception as exc:  # one pair's failure must not end the run
                    report.failures.append(
                        {
                            "window": f"{wa}|{wb}",
                            "band": band.name,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    continue
                band_dist[f"{wa}|{wb}"] = by_dim
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
