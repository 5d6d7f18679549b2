"""Record the correctness reference of one workload for a range of seeds.

    python3 perfbench/record_reference.py --workload city-g8 --seeds 0-63

For every seed this stores the estimated cell of every query and, for
grid_search, the best triple and a SHA-256 of the full error surface
(every value by repr, so the comparison is bit for bit). Benchmark runs
compare against it. Record it again only in a change that is allowed to
change estimates, and say so.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import argparse  # noqa: E402
import shutil  # noqa: E402

import bench  # noqa: E402


def record(w: bench.Workload, seed: int) -> dict:
    workdir = bench.OUT_DIR / f"record-{w.name}-{seed}-{os.getpid()}"
    try:
        inputs = bench.make_inputs(w, seed, workdir)
        flow = bench.flow_once(w, inputs, workdir, bench.Tracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if flow.failures:
        raise RuntimeError(f"seed {seed}: {dict(flow.failures)}")
    return {
        "cells": flow.cells,
        "tune_best": list(flow.tuned.best),
        "tune_surface_sha256": bench.surface_digest(flow.tuned),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(bench.WORKLOADS))
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    w = bench.WORKLOADS[args.workload]
    prov = bench.provenance(w, lo, trace=False)
    seeds = {}
    for seed in range(lo, hi + 1):
        seeds[str(seed)] = record(w, seed)
        print(f"{w.name} seed {seed}: best {seeds[str(seed)]['tune_best']}", flush=True)
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    out = {
        "recorded_at": {k: prov[k] for k in ("git_sha", "src_sha256", "python", "numpy")},
        "seeds": seeds,
    }
    with open(bench.REFERENCE_DIR / f"{w.name}.json", "w", encoding="utf-8") as f:
        json.dump(out, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
