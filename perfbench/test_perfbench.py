"""The benchmark's own tests: smoke runs of every workload, the reference
check, and the tracer's refusal to run when a traced function is gone.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--smoke",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    line = _smoke(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] > 0
    expected = run.END_TO_END_UNITS if trace == 0 else layers.metric_names()
    assert set(line["metrics"]) == set(expected)
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
        assert metric["unit"]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layers.metric_names()
    }


def test_perturbed_reference_raises_failed_frac(tmp_path):
    args = argparse.Namespace(smoke=True, seed=workloads.DEFAULT_SEED, seconds=0.0, trace=0)
    spec = run.make_spec(args, "grid-d32", "measure")
    reference = outputs.load_reference(spec["reference_path"])
    cell = sorted(reference["cells"])[0]
    dim = sorted(reference["cells"][cell])[0]
    reference["cells"][cell][dim][0][0] += 1e-6
    perturbed = tmp_path / "reference.json"
    outputs.save_reference(reference, str(perturbed))
    spec["reference_path"] = str(perturbed)
    spec["result_path"] = str(tmp_path / "result.json")

    result = run.run_worker(spec)

    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_failed_cells_flags_pair_count_and_distance():
    want = {
        "cells": {"a|b": {"0": [[0.0, "inf"]]}, "c|b": {"0": [[0.0, "inf"], [0.0, 0.5]]}},
        "distances": {"b": {"a|c": {"0": {"bottleneck": 0.25, "wasserstein": 0.5, "landscape_l2": 0.1}}}},
        "failures": [],
    }
    cells = ["a|b", "c|b"]
    assert outputs.failed_cells(want, want, cells) == set()

    fewer = json.loads(json.dumps(want))
    fewer["cells"]["c|b"]["0"].pop()
    assert outputs.failed_cells(fewer, want, cells) == {"c|b"}

    moved = json.loads(json.dumps(want))
    moved["distances"]["b"]["a|c"]["0"]["bottleneck"] += 1e-6
    assert outputs.failed_cells(moved, want, cells) == {"a|b", "c|b"}


def test_tracer_refuses_missing_function():
    import dirtda.pipeline

    fake = types.ModuleType("fake_pipeline")
    fake.__dict__.update(vars(dirtda.pipeline))
    del fake.persistence
    with pytest.raises(RuntimeError, match="homology.persistence"):
        layers.Tracer(fake)
