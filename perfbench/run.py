"""Benchmark of ``dirtda.run_pipeline``: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-d32 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload compare-d32 --trace 1
    python3 perfbench/run.py --workload paper-d5-long --smoke --seconds 1
    python3 perfbench/run.py --record-reference [--smoke]

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see README.md next to this file).

Inputs are generated from the seed under ``.perfbench_work/`` at the
repository root, outside every metric. The default-seed input, which every
run's warm-up reads, is kept there; another seed's input is removed when
its run ends. The program is run from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "artifact_mb": "MB",
    "ok_frac": "fraction",
}
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 900
ENV_KEYS = ("DIRTDA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup_seconds(n: int) -> list[float]:
    probe = os.path.join(HERE, "probe_setup.py")
    src = os.path.join(ROOT, "src")
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, probe, src],
            check=True,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_worker(spec: dict) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    with open(spec["result_path"], encoding="utf-8") as handle:
        return json.load(handle)


def reference_path(name: str, smoke: bool) -> str:
    sub = ("reference", "smoke") if smoke else ("reference",)
    return os.path.join(HERE, *sub, f"{name}.json")


def make_spec(args, name: str, mode: str) -> dict:
    table = workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS
    workload = table[name]
    base = os.path.join(ROOT, ".perfbench_work")
    inputs = os.path.join(base, "inputs")
    work_dir = os.path.join(base, f"{name}{'-smoke' if args.smoke else ''}-s{args.seed}-t{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    own = inputs if args.seed == workloads.DEFAULT_SEED else work_dir
    return {
        "root": ROOT,
        "mode": mode,
        "workload": name,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_csv": workloads.input_csv(workload, args.seed, own),
        "default_csv": workloads.input_csv(workload, workloads.DEFAULT_SEED, inputs),
        "reference_path": reference_path(name, args.smoke),
        "work_dir": work_dir,
        "result_path": os.path.join(work_dir, "result.json"),
    }


def record(args) -> int:
    args.seed = workloads.DEFAULT_SEED
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        result = run_worker(make_spec(args, name, "record"))
        print(f"{name}: recorded {result['attempted']} cells, {result['failed']} failed")
        if result["failed"]:
            return 1
    return 0


def print_layer_breakdown(metrics: dict, result: dict) -> None:
    base = metrics["trace.run_s"]
    cpu_total = sum(metrics[f"{layer}.cpu_s"] for layer in layers.LAYERS)
    print(f"traced run_s {base:.3f} s (untraced {result['untraced_run_s']:.3f} s), {result['n_spans']} spans")
    print("layer       busy_s  share_of_traced_run_s  cpu_s  share_of_layer_cpu")
    for layer in layers.LAYERS:
        busy, cpu = metrics[f"{layer}.busy_s"], metrics[f"{layer}.cpu_s"]
        print(
            f"{layer:<10} {busy:8.3f}  {busy / base:8.1%}  {cpu:8.3f}  "
            f"{cpu / cpu_total if cpu_total else 0.0:8.1%}"
        )
    pipe = metrics["pipeline.self_s"]
    print(f"{'pipeline':<10} {pipe:8.3f}  {pipe / base:8.1%}  (self time: no layer span open)")
    print(f"var.select_order_s {result['select_order_s']:.6f} (inside var.busy_s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="d = 5, short series")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dirtda", "__init__.py")):
        print(f"error: no dirtda sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record(args)
    if not args.workload:
        parser.error("--workload is required")

    print("machine " + json.dumps(machine(), sort_keys=True))
    spec = make_spec(args, args.workload, "measure")
    if not os.path.isfile(spec["reference_path"]):
        print(f"error: no reference at {spec['reference_path']}", file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_seconds(SETUP_PROBES)
    try:
        result = run_worker(spec)
    finally:
        if args.seed != workloads.DEFAULT_SEED:
            os.remove(spec["input_csv"])
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]

    if args.trace:
        print_layer_breakdown(metrics, result)
        units = {name: per_layer_unit(name) for name in layers.metric_names()}
    else:
        walls = result["walls"]
        print(
            f"run_s over {len(walls)} calls: median {statistics.median(walls):.3f} s, "
            f"min {min(walls):.3f}, max {max(walls):.3f}"
        )
        print(f"setup_s over {len(setup)} fresh interpreters: " + ", ".join(f"{t:.3f}" for t in setup))
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
    print(f"cells attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
