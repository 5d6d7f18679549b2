"""Tests of the benchmark itself: inputs, metric names, result shape.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import geopost.estimator
from spans import MissingTarget, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# No reference is recorded for this seed, so shrunken workloads are
# checked for shape and self-consistency only.
UNRECORDED_SEED = 10**6


def small(w: bench.Workload) -> bench.Workload:
    corpus = dict(w.corpus, posts_per_cell=max(3, w.corpus["posts_per_cell"] // 20))
    return dataclasses.replace(
        w, g=min(w.g, 16), corpus=corpus, n_queries=12, tune_holdout=20, min_rounds=2
    )


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_inputs_follow_the_seed(tmp_path, name):
    w = small(bench.WORKLOADS[name])

    def read(seed, sub):
        inputs = bench.make_inputs(w, seed, tmp_path / sub)
        return inputs.corpus_path.read_bytes(), b"".join(p.read_bytes() for p in inputs.shard_paths)

    assert read(5, "a") == read(5, "b")
    corpus, queries = read(6, "c")
    assert corpus != read(5, "a")[0] and queries != read(5, "a")[1]


def test_metric_names_and_units():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_on_every_workload(name, trace):
    record = bench.run_workload(small(bench.WORKLOADS[name]), UNRECORDED_SEED, 0.0, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert list(record["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = record["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


def test_wrapping_a_missing_function_fails_loudly(monkeypatch):
    with pytest.raises(MissingTarget):
        with Tracer().installed(table=(("estimator", "no_such_function", "x", None),)):
            pass
    monkeypatch.delattr(geopost.estimator, "smoothing_terms")
    with pytest.raises(MissingTarget):
        with Tracer().installed():
            pass


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("phase.outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    (outer,) = [s for s in tracer.spans if s[1] == "phase.outer"]
    inner = [s for s in tracer.spans if s[1] == "inner"]
    assert all(s[4] == outer[0] and s[5] == "phase.outer" for s in inner)
    selfs = tracer.self_times()
    children = sum(end - start for _, _, start, end, _, _ in inner)
    assert selfs[("phase.outer", "phase.outer")] == pytest.approx(outer[3] - outer[2] - children)
    assert selfs[("phase.outer", "phase.outer")] + selfs[("phase.outer", "inner")] == pytest.approx(
        outer[3] - outer[2]
    )


def test_without_the_program_it_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "bench.py", "spans.py"):
        shutil.copy(BENCH_DIR / name, tmp_path / "perfbench" / name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
