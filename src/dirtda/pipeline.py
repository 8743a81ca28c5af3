"""Windowed multi-band analysis pipeline.

One VAR is fitted per time window; every (window, band) cell then yields a
directed network, its decomposition, a persistence diagram, and landscapes.
Cells run one after another in config order and are independent: a failing
cell is recorded and skipped without aborting the run. All artifacts are
written with stable ordering and fixed formatting, so a rerun on identical
input is byte-identical.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Any

from .decomp import asym_distance, decompose, decomposition_to_dict
from .homology import (
    PersistenceDiagram,
    diagram_to_dict,
    persistence,
    rips_filtration,
    total_persistence,
)
from .ingest import load_series, segment, standardize
from .jsonio import write_json
from .pdc import DEFAULT_BANDS, FrequencyBand, network_to_dict, pdc_band
from .plots import plot_diagram, plot_landscape
from .summaries import (
    DEFAULT_K_MAX,
    DEFAULT_N_GRID,
    bottleneck,
    landscape,
    landscape_distance,
    landscape_to_dict,
    shared_t_max,
    wasserstein,
)
from .var import OrderCriterion, fit_var, select_order, var_model_to_dict

__all__ = ["PipelineConfig", "AnalysisReport", "run_pipeline"]

# every key of the flat JSON config; anything else is rejected as a typo
CONFIG_KEYS = frozenset((
    "input", "fs_hz", "out_dir", "windows", "bands", "order", "select_k_max",
    "criterion", "n_grid", "max_dim", "standardize", "landscape_k_max",
    "landscape_n_grid", "wasserstein_q",
))


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
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        windows = tuple(
            (str(name), float(lohi[0]), float(lohi[1]))
            for name, lohi in sorted(doc.get("windows", {}).items())
        )
        if "bands" in doc:
            bands = tuple(
                FrequencyBand(str(name), float(lohi[0]), float(lohi[1]))
                for name, lohi in sorted(doc["bands"].items())
            )
        else:
            bands = DEFAULT_BANDS
        return PipelineConfig(
            input_path=str(doc["input"]),
            sampling_rate_hz=float(doc["fs_hz"]),
            out_dir=str(doc["out_dir"]),
            windows=windows,
            bands=bands,
            order=int(doc.get("order", 5)),
            select_k_max=(
                int(doc["select_k_max"]) if doc.get("select_k_max") is not None else None
            ),
            criterion=str(doc.get("criterion", "bic")),
            n_grid=int(doc.get("n_grid", 32)),
            max_dim=int(doc.get("max_dim", 2)),
            standardize=bool(doc.get("standardize", True)),
            landscape_k_max=int(doc.get("landscape_k_max", DEFAULT_K_MAX)),
            landscape_n_grid=int(doc.get("landscape_n_grid", DEFAULT_N_GRID)),
            wasserstein_q=float(doc.get("wasserstein_q", 1.0)),
        )

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


def _cell(
    model, labels: tuple[str, ...], band: FrequencyBand, cfg: PipelineConfig
) -> dict[str, Any]:
    """Network, decomposition, and diagram for one (window, band) cell."""
    net = pdc_band(model, band, cfg.sampling_rate_hz, cfg.n_grid, labels)
    dec = decompose(net)
    dist = asym_distance(dec)
    diagram = persistence(rips_filtration(dist, cfg.max_dim))
    return {"network": net, "decomposition": dec, "diagram": diagram}


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute the full analysis and write all artifacts under out_dir.

    Returns the report, which is also written as report.json. Per-cell
    failures are collected in report.failures rather than raised.
    """
    report = AnalysisReport(config)
    series = load_series(config.input_path, config.sampling_rate_hz)
    os.makedirs(config.out_dir, exist_ok=True)

    windows = config.windows or (("full", 0.0, series.duration_sec),)
    window_names = [name for name, _, _ in windows]
    if len(set(window_names)) != len(window_names):
        raise ValueError("window names must be distinct")
    band_names = [band.name for band in config.bands]
    if len(set(band_names)) != len(band_names):
        raise ValueError("band names must be distinct")

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

    # deterministic artifact writing: iterate windows and bands in config order
    for w_name, _, _ in windows:
        if w_name not in models:
            continue
        model, _ = models[w_name]
        model_path = os.path.join(config.out_dir, f"model_{_slug(w_name)}.json")
        write_json(var_model_to_dict(model), model_path)
        report.artifacts.append(model_path)

    for band in config.bands:
        # shared truncation across windows keeps landscapes comparable
        band_diagrams = [
            results[(w, band.name)]["diagram"]
            for w, _, _ in windows
            if (w, band.name) in results
        ]
        t_max = shared_t_max(*band_diagrams) if band_diagrams else 1.0
        for w_name, _, _ in windows:
            key = (w_name, band.name)
            if key not in results:
                continue
            cell = results[key]
            stem = f"{_slug(w_name)}_{_slug(band.name)}"
            cell_doc: dict[str, Any] = {"t_max": t_max, "total_persistence": {}}

            net_path = os.path.join(config.out_dir, f"network_{stem}.json")
            write_json(network_to_dict(cell["network"]), net_path)
            dec_path = os.path.join(config.out_dir, f"decomp_{stem}.json")
            write_json(decomposition_to_dict(cell["decomposition"]), dec_path)
            dia_path = os.path.join(config.out_dir, f"diagram_{stem}.json")
            write_json(diagram_to_dict(cell["diagram"]), dia_path)
            svg_path = os.path.join(config.out_dir, f"diagram_{stem}.svg")
            plot_diagram(cell["diagram"], svg_path, f"{w_name} / {band.name}")
            report.artifacts += [net_path, dec_path, dia_path, svg_path]

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
                ls_path = os.path.join(config.out_dir, f"landscape_{stem}_dim{dim}.json")
                write_json(landscape_to_dict(ls), ls_path)
                ls_svg = os.path.join(config.out_dir, f"landscape_{stem}_dim{dim}.svg")
                plot_landscape(ls, ls_svg, f"{w_name} / {band.name} dim {dim}")
                report.artifacts += [ls_path, ls_svg]
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
                dia_a: PersistenceDiagram = results[(wa, band.name)]["diagram"]
                dia_b: PersistenceDiagram = results[(wb, band.name)]["diagram"]
                by_dim = {}
                for dim in range(config.max_dim + 1):
                    ls_a = results[(wa, band.name)]["landscapes"][dim]
                    ls_b = results[(wb, band.name)]["landscapes"][dim]
                    was = wasserstein(dia_a, dia_b, dim, config.wasserstein_q)
                    bot = bottleneck(dia_a, dia_b, dim)
                    by_dim[str(dim)] = {
                        "bottleneck": bot if math.isfinite(bot) else "inf",
                        "wasserstein": was if math.isfinite(was) else "inf",
                        "landscape_l2": landscape_distance(ls_a, ls_b, 2),
                    }
                band_dist[f"{wa}|{wb}"] = by_dim
        if band_dist:
            report.distances[band.name] = band_dist

    report_path = os.path.join(config.out_dir, "report.json")
    write_json(report.to_dict(), report_path)
    report.artifacts.append(report_path)
    return report
