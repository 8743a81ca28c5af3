"""Cost of Rips persistence as the channel count grows.

Regenerates the homology baseline table of ROADMAP.md in one command:

    python3 scripts/homology_scaling.py

For every d in {16, 24, 32, 40, 48, 64} and max_dim in {1, 2} it draws a
random metric with a fixed seed (distances uniform on (0, 1)) and reports:

- the size of the full Rips complex up to dimension max_dim + 1, and the
  number of simplices kept under the enclosing radius;
- the median of 5 timed calls each of ``rips_filtration`` and
  ``persistence``, after one untimed warm-up call;
- the share of persistence pairs in dimensions 1..max_dim, zero-persistence
  pairs included, that are apparent pairs and need no reduction;
- peak resident memory growth of the cell over the process after import.

Each cell runs in a fresh interpreter of its own, one after another, so its
peak memory is its own. Output is a Markdown table on standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

DIMS = (16, 24, 32, 40, 48, 64)
MAX_DIMS = (1, 2)
RUNS = 5


def measure_cell(d: int, max_dim: int) -> dict:
    import numpy as np

    from dirtda import DistanceMatrix, persistence, rips_filtration
    from dirtda.homology import _apparent_pairs, _coboundaries, _facet_ranks

    rng = np.random.default_rng(1000 * d + max_dim)
    upper = np.triu(rng.uniform(0.0, 1.0, size=(d, d)), 1)
    dm = DistanceMatrix(upper + upper.T, tuple(f"c{i}" for i in range(d)))

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    persistence(rips_filtration(dm, max_dim))  # warm-up
    build, reduce = [], []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        filtration = rips_filtration(dm, max_dim)
        t1 = time.perf_counter()
        persistence(filtration)
        t2 = time.perf_counter()
        build.append(t1 - t0)
        reduce.append(t2 - t1)
    rss_growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before

    # at the enclosing radius the complex is a cone with no essential class
    # above dimension 0, so every k-simplex not paired one dimension lower
    # is paired one dimension higher: pairs_k = m_k - pairs_(k-1), pairs_0 = d - 1
    sizes = [len(v) for v in filtration.values]
    pairs, apparent, below = 0, 0, d - 1
    for k in range(1, max_dim + 1):
        below = sizes[k] - below
        pairs += below
        facets = _facet_ranks(filtration.vertices[k], filtration.vertices[k + 1], d)
        cobound, start = _coboundaries(facets, sizes[k])
        apparent += len(_apparent_pairs(facets, cobound, start)[0])
    return {
        "d": d,
        "max_dim": max_dim,
        "complex": sum(math.comb(d, k) for k in range(1, max_dim + 3)),
        "kept": sum(sizes),
        "build_s": statistics.median(build),
        "reduce_s": statistics.median(reduce),
        "apparent_share": apparent / pairs if pairs else 0.0,
        "rss_mb": rss_growth_kb / 1024,
    }


def run_cell(d: int, max_dim: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cell", str(d), str(max_dim)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _seconds(s: float) -> str:
    return f"{s * 1000:.1f} ms" if s < 1 else f"{s:.2f} s"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cell", nargs=2, type=int, metavar=("D", "MAX_DIM"),
                        help="measure one cell in this process and print it as JSON")
    args = parser.parse_args()
    if args.cell:
        print(json.dumps(measure_cell(*args.cell)))
        return

    print("| d | max_dim | simplices | kept | Rips build | persistence | apparent | peak RSS |")
    print("|---|---------|-----------|------|------------|-------------|----------|----------|")
    for max_dim in MAX_DIMS:
        for d in DIMS:
            row = run_cell(d, max_dim)
            print(
                f"| {d} | {max_dim} | {row['complex']:,} | {row['kept']:,} "
                f"| {_seconds(row['build_s'])} | {_seconds(row['reduce_s'])} "
                f"| {row['apparent_share']:.1%} | +{row['rss_mb']:.0f} MB |",
                flush=True,
            )


if __name__ == "__main__":
    main()
