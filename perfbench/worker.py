"""Runs one workload in a process of its own and writes its measurements.

Started by ``run.py`` with a JSON spec as its only argument; writes a
JSON result to ``spec["result_path"]``. A process of its own keeps the
reported peak resident memory to what importing dirtda and running the
pipeline cost, without the input generation and set-up probes.

Phases:

1. warm-up, untimed: ``run_pipeline`` on a two-window, one-band subset of
   the default-seed input, checked against the recorded reference. This
   pays BLAS start-up and first-call costs before timing starts, and
   checks the program on every run whatever its seed;
2. untraced calls on the run's own input, timed, until the next call
   would overrun ``seconds`` (at least one call);
3. with tracing on, one more call with every layer function wrapped.

Every call's outputs are checked: against the reference when the run
uses the default seed, otherwise against the first timed call.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402


def _import_dirtda(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dirtda
    import dirtda.pipeline

    where = os.path.realpath(os.path.dirname(dirtda.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"dirtda imported from {where}, not from {src}")
    return dirtda, dirtda.pipeline


def _cells(config) -> list[str]:
    return [f"{w}|{b.name}" for w, _, _ in config.windows for b in config.bands]


def _tree_bytes(path: str) -> tuple[int, int]:
    """(all bytes, JSON bytes) of the files in path."""
    total = js = 0
    for entry in os.scandir(path):
        size = entry.stat().st_size
        total += size
        if entry.name.endswith(".json"):
            js += size
    return total, js


class Runner:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        table = workloads.SMOKE_WORKLOADS if spec["smoke"] else workloads.WORKLOADS
        self.workload = table[spec["workload"]]
        self.dirtda, self.pipeline = _import_dirtda(spec["root"])
        self.out_root = os.path.join(spec["work_dir"], "out")
        self.reference = (
            outputs.load_reference(spec["reference_path"]) if spec["mode"] != "record" else None
        )
        self.attempted = 0
        self.failed = 0
        self.n_calls = 0

    def call(self, config_doc: dict) -> dict:
        """One run_pipeline call into a fresh out_dir; timing and outputs."""
        self.n_calls += 1
        out_dir = os.path.join(self.out_root, f"call{self.n_calls}")
        shutil.rmtree(out_dir, ignore_errors=True)
        config_doc = dict(config_doc, out_dir=out_dir)
        config = self.dirtda.PipelineConfig.from_dict(config_doc)
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        report = self.dirtda.run_pipeline(config)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        got = outputs.collect(report, out_dir)
        total, js = _tree_bytes(out_dir)
        shutil.rmtree(out_dir)
        return {
            "wall": wall,
            "cpu": cpu,
            "outputs": got,
            "cells": _cells(config),
            "artifact_bytes": total,
            "json_bytes": js,
            "artifacts": len(report.artifacts),
        }

    def check(self, result: dict, want: dict, keys=outputs.DISTANCE_KEYS) -> None:
        bad = outputs.failed_cells(result["outputs"], want, result["cells"], keys)
        self.attempted += len(result["cells"])
        self.failed += len(bad)

    def warm_up(self) -> None:
        """Reference check on two windows and one band of the default input.

        Which windows and band is rotated by the seed, so runs with
        different seeds cover different cells. Landscape distances are
        not compared: they depend on every window of the band through
        the shared landscape range.
        """
        seed = self.spec["seed"]
        doc = self.workload.config(self.spec["default_csv"])
        config = self.dirtda.PipelineConfig.from_dict(dict(doc, out_dir=""))
        names = [w for w, _, _ in config.windows]
        band = config.bands[seed % len(config.bands)]
        picked = {names[seed % len(names)], names[(seed + 1) % len(names)]}
        doc["windows"] = {w: doc["windows"][w] for w in picked}
        doc["bands"] = {band.name: [band.low_hz, band.high_hz]}
        result = self.call(doc)
        self.check(result, self.reference, ("bottleneck", "wasserstein"))

    def timed(self) -> list[dict]:
        doc = self.workload.config(self.spec["input_csv"])
        seconds = self.spec["seconds"]
        calls: list[dict] = []
        start = time.perf_counter()
        while True:
            calls.append(self.call(doc))
            elapsed = time.perf_counter() - start
            typical = statistics.median(c["wall"] for c in calls)
            if elapsed + typical > seconds:
                break
        return calls

    def check_calls(self, calls: list[dict]) -> None:
        if self.spec["seed"] == workloads.DEFAULT_SEED:
            want = self.reference
        else:
            want = calls[0]["outputs"]
        for result in calls:
            self.check(result, want)

    def traced(self) -> tuple[dict, dict, layers.Tracer]:
        doc = self.workload.config(self.spec["input_csv"])
        plain = self.call(doc)
        with layers.Tracer(self.pipeline) as tracer:
            origin = time.perf_counter()
            traced = self.call(doc)
        tracer.write(os.path.join(self.spec["work_dir"], "spans.jsonl"), origin)
        return plain, traced, tracer


def main() -> int:
    spec = json.loads(sys.argv[1])
    runner = Runner(spec)
    result: dict = {}
    if spec["mode"] == "record":
        call = runner.call(runner.workload.config(spec["default_csv"]))
        outputs.save_reference(call["outputs"], spec["reference_path"])
        result = {"attempted": len(call["cells"]), "failed": len(call["outputs"]["failures"])}
    else:
        runner.warm_up()
        if spec["trace"]:
            plain, traced, tracer = runner.traced()
            runner.check_calls([plain, traced])
            metrics = layers.layer_metrics(tracer, traced["wall"])
            metrics["pipeline.artifacts"] = float(traced["artifacts"])
            metrics["pipeline.json_bytes"] = float(traced["json_bytes"])
            metrics["trace.run_s"] = traced["wall"]
            metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
            result["untraced_run_s"] = plain["wall"]
            result["select_order_s"] = layers.select_order_seconds(tracer)
            result["n_spans"] = len(tracer.spans)
        else:
            calls = runner.timed()
            runner.check_calls(calls)
            walls = [c["wall"] for c in calls]
            metrics = {
                "run_s": statistics.median(walls),
                "cpu_s": statistics.median(c["cpu"] for c in calls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "artifact_mb": statistics.median(c["artifact_bytes"] for c in calls) / 1e6,
            }
            result["walls"] = walls
        result.update(attempted=runner.attempted, failed=runner.failed, metrics=metrics)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
