"""Command line interface.

Stage subcommands (simulate, fit, pdc, decompose, persist, landscape,
compare) each read and write the JSON formats owned by the corresponding
module, so the full pipeline can be reproduced one artifact at a time.
The run subcommand executes everything in one shot from a flat JSON
config; a flag overrides each config key but landscape_k_max,
landscape_n_grid and wasserstein_q, which have none.

Exit codes: 0 success, 1 hard error, 2 partial-cell failures in run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .decomp import (
    asym_distance,
    decompose,
    decomposition_from_dict,
    decomposition_to_dict,
)
from .homology import (
    load_diagram,
    persistence,
    rips_filtration,
    save_diagram,
)
from .ingest import load_series, save_series, segment, standardize
from .jsonio import read_json, write_json
from .pdc import DEFAULT_BANDS, FrequencyBand, network_from_dict, network_to_dict, pdc_band
from .pipeline import CONFIG_KEYS, PipelineConfig, diagram_distances, run_pipeline
from .plots import plot_diagram, plot_landscape
from .summaries import (
    DEFAULT_K_MAX,
    DEFAULT_N_GRID,
    landscape,
    landscape_to_dict,
    shared_t_max,
)
from .simulate import realize, system_one, system_two
from .var import (
    OrderCriterion,
    fit_var,
    select_order,
    var_model_from_dict,
    var_model_to_dict,
)

__all__ = ["main"]


def _parse_band(text: str) -> FrequencyBand:
    """Either a default band name (alpha) or name:low:high in Hz."""
    if ":" not in text:
        for band in DEFAULT_BANDS:
            if band.name == text:
                return band
        names = ", ".join(b.name for b in DEFAULT_BANDS)
        raise ValueError(f"unknown band {text!r}; known bands: {names}")
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected NAME:LOW:HIGH, got {text!r}")
    return FrequencyBand(parts[0], float(parts[1]), float(parts[2]))


def _parse_span(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected START:END in seconds, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_window(text: str) -> tuple[str, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected NAME:START:END in seconds, got {text!r}")
    return parts[0], float(parts[1]), float(parts[2])


def _windows_doc(specs: list[str]) -> dict[str, list[float]]:
    return {name: [lo, hi] for name, lo, hi in map(_parse_window, specs)}


def _bands_doc(specs: list[str]) -> dict[str, list[float]]:
    return {band.name: [band.low_hz, band.high_hz] for band in map(_parse_band, specs)}


# every run flag's dest is the config key it overrides; these two flags'
# values are converted to that key's JSON form, the others are taken as is
_RUN_OVERRIDES = {"windows": _windows_doc, "bands": _bands_doc}


def _load_window(args: argparse.Namespace):
    """Shared ingest path for fit: load, optional window cut, optional z-score."""
    series = load_series(args.input, args.fs)
    if args.window is not None:
        lo, hi = _parse_span(args.window)
        series = segment(series, lo, hi)
    if not args.no_standardize:
        series = standardize(series)
    return series


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = system_one() if args.system == 1 else system_two()
    series = realize(system, args.t, args.seed)
    save_series(series, args.out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    series = _load_window(args)
    if args.select_k_max is not None:
        order = select_order(series, args.select_k_max, OrderCriterion(args.criterion))
    else:
        order = args.order
    model = fit_var(series, order)
    write_json(var_model_to_dict(model), args.out)
    return 0


def _cmd_pdc(args: argparse.Namespace) -> int:
    model = var_model_from_dict(read_json(args.model))
    band = _parse_band(args.band)
    labels = tuple(args.labels.split(",")) if args.labels else None
    net = pdc_band(model, band, args.fs, args.n_grid, labels)
    write_json(network_to_dict(net), args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    net = network_from_dict(read_json(args.network))
    write_json(decomposition_to_dict(decompose(net)), args.out)
    return 0


def _cmd_persist(args: argparse.Namespace) -> int:
    dec = decomposition_from_dict(read_json(args.decomp))
    diagram = persistence(rips_filtration(asym_distance(dec), args.max_dim))
    save_diagram(diagram, args.out)
    if args.plot:
        plot_diagram(diagram, args.plot, "persistence diagram")
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.diagram)
    ls = landscape(diagram, args.dim, args.k_max, args.n_grid, args.t_max)
    write_json(landscape_to_dict(ls), args.out)
    if args.plot:
        plot_landscape(ls, args.plot, f"landscape dim {args.dim}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dia_a = load_diagram(args.a)
    dia_b = load_diagram(args.b)
    t_max = shared_t_max(dia_a, dia_b)
    ls_a = landscape(dia_a, args.dim, args.k_max, args.n_grid, t_max)
    ls_b = landscape(dia_b, args.dim, args.k_max, args.n_grid, t_max)
    doc = {"dim": args.dim, **diagram_distances(dia_a, dia_b, ls_a, ls_b, args.dim, args.q)}
    if args.out:
        write_json(doc, args.out)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    doc: dict[str, Any] = read_json(args.config) if args.config else {}
    # flags override config keys; absent flags leave the config untouched
    for key in sorted(CONFIG_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = _RUN_OVERRIDES[key](value) if key in _RUN_OVERRIDES else value

    report = run_pipeline(PipelineConfig.from_dict(doc))
    if not report.failures:
        return 0
    for failure in report.failures:
        print(
            f"cell failed window={failure['window']} band={failure['band']}: "
            f"{failure['error']}",
            file=sys.stderr,
        )
    return 2 if report.n_succeeded > 0 else 1


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--fs", type=float, required=True, help="sampling rate in Hz")
    parser.add_argument("--window", default=None, metavar="START:END",
                        help="restrict to a time window in seconds")
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip per-channel z-scoring")
    parser.add_argument("--order", type=int, default=5, help="VAR order K")
    parser.add_argument("--select-k-max", type=int, default=None, dest="select_k_max",
                        help="choose the order in 1..K_MAX by criterion instead")
    parser.add_argument("--criterion", choices=["aic", "bic"], default="bic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirtda",
        description="directed-network persistence analysis of multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a benchmark series as CSV")
    p.add_argument("--system", type=int, choices=[1, 2], required=True)
    p.add_argument("--t", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a VAR model to a CSV series")
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("pdc", help="band-averaged network from a fitted model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--band", required=True, metavar="NAME[:LOW:HIGH]",
                   help="default band name or NAME:LOW:HIGH in Hz")
    p.add_argument("--fs", type=float, required=True, help="sampling rate in Hz")
    p.add_argument("--n-grid", type=int, default=32, dest="n_grid")
    p.add_argument("--labels", default=None, help="comma-separated channel labels")
    p.add_argument("--out", required=True, help="network JSON path")
    p.set_defaults(func=_cmd_pdc)

    p = sub.add_parser("decompose", help="symmetric/anti-symmetric split of a network")
    p.add_argument("--network", required=True, help="network JSON path")
    p.add_argument("--out", required=True, help="decomposition JSON path")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("persist", help="persistence diagram of a decomposition")
    p.add_argument("--decomp", required=True, help="decomposition JSON path")
    p.add_argument("--max-dim", type=int, default=2, dest="max_dim", choices=[1, 2])
    p.add_argument("--out", required=True, help="diagram JSON path")
    p.add_argument("--plot", default=None, help="optional SVG path")
    p.set_defaults(func=_cmd_persist)

    p = sub.add_parser("landscape", help="persistence landscape of a diagram")
    p.add_argument("--diagram", required=True, help="diagram JSON path")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--n-grid", type=int, default=DEFAULT_N_GRID, dest="n_grid")
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--out", required=True, help="landscape JSON path")
    p.add_argument("--plot", default=None, help="optional SVG path")
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("compare", help="distances between two diagrams in one dimension")
    p.add_argument("--a", required=True, help="first diagram JSON path")
    p.add_argument("--b", required=True, help="second diagram JSON path")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0, help="Wasserstein exponent")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--n-grid", type=int, default=DEFAULT_N_GRID, dest="n_grid")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("run", help="full pipeline from a flat JSON config")
    p.add_argument("--config", default=None, help="flat JSON config path")
    p.add_argument("--input", default=None)
    p.add_argument("--fs", type=float, default=None, dest="fs_hz")
    p.add_argument("--out-dir", default=None, dest="out_dir")
    p.add_argument("--window", action="append", default=None, dest="windows",
                   metavar="NAME:START:END", help="repeatable; replaces config windows")
    p.add_argument("--band", action="append", default=None, dest="bands",
                   metavar="NAME[:LOW:HIGH]", help="repeatable; replaces config bands")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--select-k-max", type=int, default=None, dest="select_k_max")
    p.add_argument("--criterion", choices=["aic", "bic"], default=None)
    p.add_argument("--n-grid", type=int, default=None, dest="n_grid")
    p.add_argument("--max-dim", type=int, default=None, dest="max_dim", choices=[1, 2])
    p.add_argument("--no-standardize", action="store_false", default=None,
                   dest="standardize")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
