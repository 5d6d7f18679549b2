"""geopost benchmark: planted workloads timed end to end and per layer.

One workload runs per process, single-threaded, as a closed loop: each
query post is sent only after the previous one is answered. Every
workload goes through the same four phases, each through the public API:

    train     corpus JSONL -> saved model directory (what `geopost train`
              does; the write is timed apart)
    setup     load_model plus the first answered estimate (cold caches)
    estimate  batch passes over the query shards (what `geopost estimate`
              does after set-up) and per-post latency passes
    tune      grid_search over (g, alpha, d) on the hold-out split

Inputs come from ``generate_synthetic`` and the workload seed only. The
untraced run (``--trace 0``) reports the end-to-end metrics; the traced
run (``--trace 1``) repeats each phase once without and once with the
layer wrappers of ``spans.WRAPS`` and reports per-layer self times,
counts and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import geopost
from geopost import cli, estimator, evaluation, grid, pipeline, storage, tuning

from spans import WRAPS, MissingTarget, Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

# The README's example region: about 7.8 km north-south, 7.6 km east-west.
BOUNDS = grid.GeoBounds(40.70, -74.02, 40.77, -73.93)
# `geopost train` defaults: alpha 0.9, d = g, 200 induced stopwords.
TRAIN_ALPHA = 0.9
STOPWORDS_K = 200
# Queries re-estimated against the in-memory model to check the saved one.
STORAGE_CHECK_POSTS = 20
# The queries are split into this many files, each timed as its own batch
# pass and then as a latency pass: short units, each timed in every round.
SHARDS = 20
# Set-ups per round; set-up is short, so it is repeated more than the rest.
SETUPS_PER_ROUND = 2

# Host-speed calibration. On a shared host the CPU speed moves by 30-80%
# in regimes lasting from a fraction of a second to minutes, on every vCPU
# at once (the same 80 ms of estimates took 80 or 150 ms from one second
# to the next on the 2-vCPU machine the benchmark was written on). Each
# timed unit of work is bracketed by calibrations, and its wall time is
# scaled to the reference speed by the factor ``speed_factor`` returns.
# A calibration times two fixed loops, each the faster of two runs: a tight
# one (integer arithmetic, then string-keyed dict lookups over a table that
# stays in cache), and one shaped like an estimate over about 100,000
# table entries. Measured against geopost's own units, each loop alone
# over-corrected in some periods and under-corrected in others; the
# geometric mean of the two ratios left the least spread over ten runs of
# each workload. Neither loop runs geopost code, so a change to the program
# cannot move them. The references are the loops' times at the fast
# regime of that machine, so there a time reads as the unit's wall time at
# the host's full speed. Raw wall times are kept in the result file.
CALIBRATION_LOOPS = 20_000
REFERENCE_SPIN_S = 0.0020
_CAL_KEYS = [f"w{i}|w{i * 7919 % 2003}" for i in range(2000)]
_CAL_TABLE = {key: float(i) for i, key in enumerate(_CAL_KEYS)}
_CAL_PROBE = [_CAL_KEYS[i * 7919 % len(_CAL_KEYS)] for i in range(CALIBRATION_LOOPS)]

# The estimate-shaped loop: sums of bigram log-probabilities over 64
# per-cell count tables, a softmax, ring sums as small matrix products, and
# an argmax over a dict of cell scores.
REFERENCE_RICH_S = 0.0018
_RICH_RNG = random.Random(20141016)
_RICH_WORDS = [f"t{i}" for i in range(3000)]
_RICH_TABLES = [
    {
        (_RICH_RNG.choice(_RICH_WORDS), _RICH_RNG.choice(_RICH_WORDS)): _RICH_RNG.randint(1, 9)
        for _ in range(1600)
    }
    for _ in range(64)
]
_RICH_TOTALS = [float(sum(t.values())) for t in _RICH_TABLES]
_RICH_QUERIES = [
    [(_RICH_RNG.choice(_RICH_WORDS), _RICH_RNG.choice(_RICH_WORDS)) for _ in range(6)]
    for _ in range(15)
]
_RICH_RINGS = np.random.default_rng(20141016).integers(0, 2, (7, 64, 64)).astype(float)


@dataclass(frozen=True)
class Workload:
    """A planted corpus, its queries, and the grid_search run on it."""

    name: str
    why: str
    g: int  # planted grid, and the grid the model is trained on
    corpus: dict  # SyntheticSpec fields besides g and seed
    n_queries: int
    query_tokens: tuple[int, int]  # raw query length drawn from this range
    tune_g: tuple[int, ...]
    tune_holdout: Optional[int]  # hold-out posts given to grid_search; None: all
    tunes_per_round: int = 1
    min_rounds: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="city-g8",
            why="the paper's configuration (g=8, alpha=0.9, d=g) on a planted city corpus; "
            "per-pair LM scoring dominates estimate time",
            g=8,
            corpus=dict(
                vocab_per_cell=200, shared_vocab=500, posts_per_cell=300,
                leakage=0.2, neighbor_overlap=0.1,
            ),
            n_queries=1000,
            query_tokens=(1, 12),
            tune_g=(8,),
            tune_holdout=150,
            min_rounds=4,
        ),
        Workload(
            name="fine-g12",
            why="g=12 with one bigram per query: per-cell work (posterior dict, smoothing, "
            "ring set-up) and per-file storage dominate; the other side of every "
            "scoring-vs-smoothing change",
            g=12,
            corpus=dict(
                vocab_per_cell=20, shared_vocab=200, posts_per_cell=30,
                leakage=0.1, neighbor_overlap=0.1,
            ),
            n_queries=400,
            query_tokens=(2, 2),
            tune_g=(8,),
            tune_holdout=150,
            tunes_per_round=3,
            min_rounds=4,
        ),
        Workload(
            name="tune",
            why="grid_search over g in {4,8,12}, 10 alphas and d=1..g on a small corpus: "
            "the only bulk user of the tuner's posterior cache, distances and sweep",
            g=8,
            corpus=dict(
                vocab_per_cell=40, shared_vocab=150, posts_per_cell=60,
                leakage=0.1, neighbor_overlap=0.2,
            ),
            n_queries=500,
            query_tokens=(1, 12),
            tune_g=(4, 8, 12),
            tune_holdout=400,
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("estimate_posts_per_s", "posts/s"),
    ("estimate_p50_ms", "ms"),
    ("estimate_p99_ms", "ms"),
    ("tune_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_error_km", "km"),
    ("tune_best_error_km", "km"),
)

# Per-layer self times summed over the train, estimate and tune phases.
LAYER_TIMES = (
    ("cli.read_corpus_s", "cli.read_corpus"),
    ("pipeline.build_training_corpus_s", "pipeline.build_training_corpus"),
    ("pipeline.preprocess_s", "pipeline.preprocess"),
    ("estimator.build_ensemble_s", "estimator.build_ensemble"),
    ("lm.score_s", "lm.score"),
    ("estimator.smooth_s", "estimator.smooth"),
    ("estimator.estimate_self_s", "estimator.estimate"),
    ("estimator.csv_s", "estimator.csv"),
    ("storage.save_s", "storage.save"),
    ("tuning.build_s", "tuning.build"),
    ("tuning.smoothing_terms_s", "tuning.smoothing_terms"),
    ("grid.geo_distance_s", "grid.geo_distance"),
    ("tuning.sweep_self_s", "tuning.grid_search"),
    ("evaluation.error_report_s", "evaluation.error_report"),
)
LAYER_COUNTS = (
    "cli.posts_read",
    "pipeline.tokens_kept",
    "pipeline.misc_tokens",
    "pipeline.empty_posts",
    "lm.pair_lookups",
    "estimator.failed_posts",
    "grid.geo_distance_calls",
)
MEASURED_PHASES = ("phase.train", "phase.estimate", "phase.tune")

PER_LAYER_UNITS = {
    **{name: "s" for name, _ in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "storage.load_s": "s",
    "estimator.ring_setup_s": "s",
    "estimator.ring_setup_peak_mb": "MB",
    "storage.load_peak_mb": "MB",
    "storage.model_bytes": "bytes",
    "storage.model_files": "count",
    "lm.bigram_types": "count",
    "lm.ns_per_pair_lookup": "ns",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Inputs:
    seed: int
    corpus_path: Path
    shard_paths: tuple[Path, ...]


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's corpus and query files; same seed, same bytes.

    Queries are cut from test-split posts. A query shorter than its post
    is a prefix; a longer one continues with words of other test posts
    from the same planted cell, so long queries stay on topic.
    """
    spec = evaluation.SyntheticSpec(g=w.g, seed=seed, **w.corpus)
    posts = evaluation.generate_synthetic(spec, BOUNDS)
    _, _, test = evaluation.split(posts, evaluation.SplitSpec(seed=seed))
    part = grid.partition(BOUNDS, w.g)
    by_cell: dict = {}
    for p in test:
        by_cell.setdefault(part.cell_of(p.location), []).append(p)
    rng = random.Random(seed)
    queries = []
    for p in test[: w.n_queries]:
        length = rng.randint(*w.query_tokens)
        words = p.text.split()
        while len(words) < length:
            words += rng.choice(by_cell[part.cell_of(p.location)]).text.split()
        queries.append(pipeline.RawPost(f"{p.id}-q", " ".join(words[:length]), p.location))
    workdir.mkdir(parents=True, exist_ok=True)
    shards = tuple(workdir / f"queries-{k:02d}.jsonl" for k in range(SHARDS))
    inputs = Inputs(seed, workdir / "corpus.jsonl", shards)
    _write_jsonl(posts, inputs.corpus_path)
    n = len(queries)
    for k, path in enumerate(shards):
        _write_jsonl(queries[k * n // SHARDS : (k + 1) * n // SHARDS], path)
    return inputs


def read_queries(inputs: Inputs) -> list:
    return [p for path in inputs.shard_paths for p in cli.read_corpus(path)[0]]


def _write_jsonl(posts, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for p in posts:
            record = {"id": p.id, "text": p.text, "lat": p.location.lat, "lon": p.location.lon}
            f.write(json.dumps(record))
            f.write("\n")


# ---------------------------------------------------------------- phases


def reset_caches() -> None:
    """Empty every functools cache in geopost, as a fresh process has."""
    for module in (cli, estimator, evaluation, grid, pipeline, storage, tuning):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@contextmanager
def settled():
    """Collect garbage, then freeze what the benchmark already holds, so
    a collection inside the block walks only what the block allocated,
    as in a fresh `geopost` process."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def spin_s() -> float:
    """Wall time of one run of the tight calibration loop."""
    t0 = time.perf_counter()
    count = 0
    for i in range(CALIBRATION_LOOPS):
        count += i * i % 7
    total = 0.0
    for key in _CAL_PROBE:
        total += _CAL_TABLE[key]
    return time.perf_counter() - t0


def rich_s() -> float:
    """Wall time of one run of the estimate-shaped calibration."""
    t0 = time.perf_counter()
    for query in _RICH_QUERIES:
        scores = []
        for table, total in zip(_RICH_TABLES, _RICH_TOTALS):
            s = 0.0
            for bigram in query:
                s += math.log((table.get(bigram, 0) + 0.5) / total)
            scores.append(s)
        field_vec = np.exp(np.array(scores) - max(scores))
        field_vec /= field_vec.sum()
        acc = sum(ring @ field_vec for ring in _RICH_RINGS)
        cells = {i: float(x) for i, x in enumerate(0.1 * field_vec + 0.9 * acc)}
        max(cells, key=cells.get)
    return time.perf_counter() - t0


def calibrate() -> tuple[float, float]:
    """Each calibration loop's faster of two runs: an interrupt only adds time."""
    return min(spin_s(), spin_s()), min(rich_s(), rich_s())


def speed_factor(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Factor from a unit's wall time to its time at the reference speed,
    from the calibrations before and after it: the geometric mean over
    the two loops of reference time / mean measured time."""
    tight = REFERENCE_SPIN_S / ((before[0] + after[0]) / 2)
    rich = REFERENCE_RICH_S / ((before[1] + after[1]) / 2)
    return math.sqrt(tight * rich)


def pin_to_fastest_cpu() -> dict:
    """Keep this process on the fastest CPU it may use.

    The vCPUs of a shared host need not run at the same speed: on the
    2-vCPU machine the benchmark was written on, a fixed loop ran up to
    35% slower on one than on the other for minutes at a time, and an
    unpinned process moves between them, also in the middle of a timed
    unit. Each allowed CPU is timed a few times and the process stays on
    the fastest. Affinity is a property of this process only.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        return {"cpu": cpus[0] if cpus else None, "spin_s": {}}
    best = {cpu: float("inf") for cpu in cpus}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best[cpu], min(spin_s() for _ in range(8)))
    fastest = min(cpus, key=best.get)
    os.sched_setaffinity(0, {fastest})
    return {"cpu": fastest, "spin_s": best}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cell_index(est, g: int) -> int:
    return -1 if est is None else est.cell.row * g + est.cell.col


def surface_digest(result) -> str:
    lines = (f"{g} {a!r} {d} {result.surface[(g, a, d)]!r}" for g, a, d in sorted(result.surface))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Flow:
    """The phases of one run, what they produced, and what failed.

    ``round`` runs each phase once: train, setup, estimate, tune. A run
    repeats rounds, so the repeats of every phase are spread over the
    whole run rather than bunched in one stretch of it.
    """

    w: Workload
    inputs: Inputs
    workdir: Path
    tracer: Tracer
    failures: Counter = field(default_factory=Counter)
    attempted: int = 0
    rounds: int = 0
    extras: dict = field(default_factory=dict)
    # unit -> [(wall s, calibrations before, calibrations after)], per repeat
    units: dict = field(default_factory=lambda: defaultdict(list))
    # per round, per shard: (post latencies in s, calibrations before, after)
    latency_passes: list = field(default_factory=list)
    cells: Optional[list] = None
    tuned: Optional[tuning.TuneResult] = None

    def fail(self, what: str, n: int = 1) -> None:
        if n:
            self.failures[what] += n

    @contextmanager
    def timed(self, unit: str):
        """Time the block, calibrating the host's speed before and after."""
        before = calibrate()
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        self.units[unit].append((wall, before, calibrate()))

    def round(self, queries) -> None:
        trained = self.train()
        for _ in range(SETUPS_PER_ROUND):
            ens = None  # one loaded model at a time
            ens = self.setup(queries[0])
        if self.rounds == 0:
            # After set-up, so the ring matrices are already cached.
            self.record_model(trained, queries)
        del trained
        self.estimate(ens)
        del ens
        for _ in range(self.w.tunes_per_round):
            self.tune()
        self.rounds += 1

    def train(self):
        """Corpus file to a fresh model directory; returns the model.

        Each stage is timed on its own, so that each is a short unit.
        Writing the model directory is timed apart from ``train_s``: it is
        one file creation per cell file, whose cost on a shared disk
        follows other tenants' traffic (see README)."""
        model_dir = self.workdir / f"model-{self.rounds}"
        self.attempted += 1
        with settled():
            with self.timed("train.read"), self.tracer.span("phase.train"):
                posts, _ = cli.read_corpus(self.inputs.corpus_path)
                tr, ho, _ = evaluation.split(posts, evaluation.SplitSpec(seed=self.inputs.seed))
            with self.timed("train.corpus"), self.tracer.span("phase.train"):
                tok, arts = pipeline.build_training_corpus(tr, STOPWORDS_K)
            with self.timed("train.ensemble"), self.tracer.span("phase.train"):
                ens = estimator.build_ensemble(
                    tok,
                    grid.partition(BOUNDS, self.w.g),
                    estimator.SmoothingConfig(alpha=TRAIN_ALPHA),
                    arts,
                )
            with self.timed("save"), self.tracer.span("phase.train"):
                storage.save_model(ens, model_dir, seed=self.inputs.seed)
        self.model_dir, self.train_split, self.holdout = model_dir, tr, ho
        return ens

    def record_model(self, trained, queries) -> None:
        """Size of the saved model, and the in-memory model's estimates of
        a few queries, which the reloaded model must reproduce."""
        files = [p for p in self.model_dir.rglob("*") if p.is_file()]
        self.extras["storage.model_files"] = len(files)
        self.extras["storage.model_bytes"] = sum(p.stat().st_size for p in files)
        self.extras["lm.bigram_types"] = sum(
            m.counts.total_distinct_bigrams for m in trained.models.values()
        )
        with self.tracer.span("phase.check"):
            self.trained_cells = [
                cell_index(estimator.estimate(trained, trained.artifacts.preprocess(p)), self.w.g)
                for p in queries[:STORAGE_CHECK_POSTS]
            ]
        self.attempted += len(self.trained_cells)

    def setup(self, first_query):
        """load_model plus the first answered estimate, from cold caches."""
        reset_caches()
        self.attempted += 1
        with settled():
            with self.timed("setup"), self.tracer.span("phase.setup"):
                ens = storage.load_model(self.model_dir)
                t0 = time.perf_counter()
                first = estimator.estimate(ens, ens.artifacts.preprocess(first_query))
                cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        again = estimator.estimate(ens, ens.artifacts.preprocess(first_query))
        self.extras["estimator.ring_setup_s"] = cold - (time.perf_counter() - t0)
        if first.cell != again.cell:
            self.fail("first estimate differs between cold and warm caches")
        return ens

    def estimate(self, ens) -> None:
        """For each query shard, one batch pass then one latency pass."""
        passes, posts, estimates, latency_cells = [], [], [], []
        with settled():
            for k, path in enumerate(self.inputs.shard_paths):
                with self.timed(f"batch-{k}"), self.tracer.span("phase.estimate"):
                    shard, _ = cli.read_corpus(path)
                    tokenized = [ens.artifacts.preprocess(p) for p in shard]
                    shard_estimates = estimator.estimate_batch(ens, tokenized)
                    estimator.estimates_csv(tokenized, shard_estimates)
                raw = []
                before = calibrate()
                with self.tracer.span("phase.estimate"):
                    for p in shard:
                        t0 = time.perf_counter()
                        try:
                            est = estimator.estimate(ens, ens.artifacts.preprocess(p))
                        except Exception:
                            traceback.print_exc()
                            est = None
                        raw.append(time.perf_counter() - t0)
                        latency_cells.append(cell_index(est, self.w.g))
                passes.append((raw, before, calibrate()))
                posts += shard
                estimates += shard_estimates
        self.attempted += 2 * len(posts)
        self.latency_passes.append(passes)
        batch_cells = [cell_index(e, self.w.g) for e in estimates]
        if self.cells is None:
            self.cells = batch_cells
            self.fail("estimate returned None", batch_cells.count(-1))
            self.fail(
                "reloaded-model estimate differs from the trained model",
                mismatches(self.trained_cells, batch_cells[: len(self.trained_cells)]),
            )
            with self.tracer.span("phase.estimate"):
                self.mean_error_km, self.centre_error_km = error_against_truth(posts, estimates)
        self.fail("batch estimate differs from the first pass", mismatches(batch_cells, self.cells))
        self.fail("per-post estimate differs from estimate_batch", mismatches(latency_cells, self.cells))

    def tune(self) -> None:
        reset_caches()
        self.attempted += 1
        with settled(), self.timed("tune"), self.tracer.span("phase.tune"):
            result = tuning.grid_search(
                self.train_split,
                self.holdout[: self.w.tune_holdout],
                tuning.SearchSpace(g_values=self.w.tune_g),
                BOUNDS,
                STOPWORDS_K,
            )
        if self.tuned is None:
            self.tuned = result
        elif result.best != self.tuned.best or surface_digest(result) != surface_digest(self.tuned):
            self.fail("grid_search surface differs between repeats")

    def check_tuner_direct(self) -> None:
        """The cached surface at the best triple equals a from-scratch
        evaluation of that triple, as the acceptance test checks."""
        g, alpha, d = self.tuned.best
        holdout = self.holdout[: self.w.tune_holdout]
        self.attempted += 1
        with self.tracer.span("phase.check"):
            tok, arts = pipeline.build_training_corpus(self.train_split, STOPWORDS_K)
            ens = estimator.build_ensemble(
                tok, grid.partition(BOUNDS, g), estimator.SmoothingConfig(alpha, d), arts
            )
            errors = [
                evaluation.estimation_error_km(p.location, estimator.estimate(ens, arts.preprocess(p)))
                for p in holdout
            ]
        direct = sum(errors) / len(errors)
        if abs(direct - self.tuned.best_error_km) > 1e-12:
            self.fail("grid_search surface at the best triple differs from the direct path")

    def setup_memory(self, first_query) -> None:
        """Peak bytes allocated inside load_model, and the growth over the
        loaded model during the first estimate (the ring set-up)."""
        reset_caches()
        gc.collect()
        tracemalloc.start()
        try:
            ens = storage.load_model(self.model_dir)
            loaded, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            estimator.estimate(ens, ens.artifacts.preprocess(first_query))
            _, first_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.extras["storage.load_peak_mb"] = load_peak / 2**20
        self.extras["estimator.ring_setup_peak_mb"] = (first_peak - loaded) / 2**20


def error_against_truth(posts, estimates) -> tuple[float, float]:
    """Mean error of the estimates, and of always answering the region's
    centre, both against the planted truth coordinates."""
    per_post = [
        (p.id, evaluation.estimation_error_km(p.location, e))
        for p, e in zip(posts, estimates)
        if e is not None
    ]
    centre = grid.GeoPoint((BOUNDS.south + BOUNDS.north) / 2, (BOUNDS.west + BOUNDS.east) / 2)
    centre_error = sum(grid.geo_distance_km(p.location, centre) for p in posts) / len(posts)
    return evaluation.error_report(per_post).mean_error_km, centre_error


# ---------------------------------------------------------------- reference


def load_reference(workload: str, seed: int) -> Optional[dict]:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)["seeds"].get(str(seed))


def compare_reference(flow: Flow) -> None:
    ref = load_reference(flow.w.name, flow.inputs.seed)
    if ref is None:
        return
    flow.fail("estimated cell differs from the recorded reference", mismatches(flow.cells, ref["cells"]))
    tuned = flow.tuned
    if list(tuned.best) != ref["tune_best"] or surface_digest(tuned) != ref["tune_surface_sha256"]:
        flow.fail("grid_search best triple or error surface differs from the recorded reference")


# ---------------------------------------------------------------- runs


def timing_metrics(flow: Flow) -> dict:
    """The timing metrics at the reference host speed.

    Each unit's wall time is multiplied by its ``speed_factor``; each
    metric takes the median over the unit's repeats: of a train stage, a
    set-up, a query shard's batch pass, a post's latency, a grid_search."""

    def med(unit):
        return statistics.median(wall * speed_factor(b, a) for wall, b, a in flow.units[unit])

    batch_s = sum(med(f"batch-{k}") for k in range(SHARDS))
    rounds = [
        [x * speed_factor(b, a) for raw, b, a in passes for x in raw]
        for passes in flow.latency_passes
    ]
    samples = sorted(statistics.median(post) for post in zip(*rounds))
    return {
        "setup_s": med("setup"),
        "train_s": med("train.read") + med("train.corpus") + med("train.ensemble"),
        "estimate_posts_per_s": len(samples) / batch_s,
        "estimate_p50_ms": 1e3 * percentile(samples, 50),
        "estimate_p99_ms": 1e3 * percentile(samples, 99),
        "tune_s": med("tune"),
    }


def run_untraced(w: Workload, inputs: Inputs, workdir: Path, seconds: float):
    flow = Flow(w, inputs, workdir, Tracer())
    queries = read_queries(inputs)
    # A round starts only if it can end within --seconds at the pace of
    # the previous one, so a run ends near --seconds however long a round is.
    start = last = time.perf_counter()
    while flow.rounds < w.min_rounds or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        flow.round(queries)
    flow.check_tuner_direct()
    compare_reference(flow)

    metrics = timing_metrics(flow)
    metrics.update(
        peak_rss_mb=peak_rss_mb(),
        mean_error_km=flow.mean_error_km,
        tune_best_error_km=flow.tuned.best_error_km,
    )
    loops = [c for repeats in flow.units.values() for _, b, a in repeats for c in (b, a)]
    details = {
        "rounds": flow.rounds,
        "latency_samples": len(flow.cells),
        "queries": len(flow.cells),
        "centre_guess_error_km": flow.centre_error_km,
        "tune_best": list(flow.tuned.best),
        "calibration_s": {
            name: {
                "reference": ref,
                "min": min(c[i] for c in loops),
                "median": statistics.median(c[i] for c in loops),
                "max": max(c[i] for c in loops),
            }
            for i, (name, ref) in enumerate((("tight", REFERENCE_SPIN_S), ("rich", REFERENCE_RICH_S)))
        },
        "wall_s": {unit: [r[0] for r in repeats] for unit, repeats in flow.units.items()},
    }
    return flow, metrics, details


def flow_once(w: Workload, inputs: Inputs, workdir: Path, tracer: Tracer) -> Flow:
    """One round: the unit the traced run times with and without
    wrappers, and the pass that records the reference."""
    flow = Flow(w, inputs, workdir, tracer)
    queries = read_queries(inputs)
    flow.round(queries)
    flow.first_query = queries[0]
    return flow


def run_traced(w: Workload, inputs: Inputs, workdir: Path):
    plain = flow_once(w, inputs, workdir / "plain", Tracer())
    tracer = Tracer()
    with tracer.installed():
        flow = flow_once(w, inputs, workdir / "traced", tracer)
    flow.setup_memory(flow.first_query)
    flow.fail("traced estimate differs from the untraced run", mismatches(flow.cells, plain.cells))
    if surface_digest(flow.tuned) != surface_digest(plain.tuned):
        flow.fail("traced grid_search surface differs from the untraced run")
    compare_reference(flow)
    flow.attempted += plain.attempted
    flow.failures.update(plain.failures)

    recorded = {name for _, name, *_ in tracer.spans}
    never = sorted({name for _, _, name, _ in WRAPS} - recorded)
    if never:
        raise MissingTarget(f"wrapped functions never called: {', '.join(never)}")

    selfs = tracer.self_times()
    counts = tracer.counts

    def layer_sum(name, table):
        return sum(table.get((phase, name), 0) for phase in MEASURED_PHASES)

    metrics = {metric: layer_sum(span, selfs) for metric, span in LAYER_TIMES}
    metrics.update({name: layer_sum(name, counts) for name in LAYER_COUNTS})
    metrics["storage.load_s"] = selfs[("phase.setup", "storage.load")] / SETUPS_PER_ROUND
    for key in ("storage.load_peak_mb", "estimator.ring_setup_peak_mb", "estimator.ring_setup_s",
                "storage.model_files", "storage.model_bytes", "lm.bigram_types"):
        metrics[key] = flow.extras[key]
    metrics["lm.ns_per_pair_lookup"] = 1e9 * metrics["lm.score_s"] / max(metrics["lm.pair_lookups"], 1)

    # Overhead over the CPU-bound units (batch and latency passes,
    # grid_search) at the reference speed; train and setup move more with
    # disk and page faults than with tracing.
    def cpu_s(f: Flow) -> float:
        units = sum(
            wall * speed_factor(b, a)
            for unit, repeats in f.units.items()
            if unit.startswith(("batch-", "tune"))
            for wall, b, a in repeats
        )
        passes = sum(sum(raw) * speed_factor(b, a) for p in f.latency_passes for raw, b, a in p)
        return units + passes

    metrics["trace.overhead_pct"] = 100.0 * (cpu_s(flow) - cpu_s(plain)) / cpu_s(plain)
    traced = tracer.phase_walls()
    phases = [p for p in traced if p.startswith("phase.")]
    roots = sum(selfs.get((p, p), 0.0) for p in phases)
    metrics["trace.unattributed_pct"] = 100.0 * roots / sum(sum(traced[p]) for p in phases)
    details = {"breakdown": breakdown(tracer), "spans": len(tracer.spans)}
    return flow, tracer, metrics, details


def breakdown(tracer: Tracer) -> dict:
    """Per phase: wall time, and the self time of each span under it."""
    walls = {p: sum(v) for p, v in tracer.phase_walls().items() if p.startswith("phase.")}
    out = {phase: {"wall_s": wall, "self_s": {}} for phase, wall in walls.items()}
    for (phase, name), s in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        if phase in out:
            out[phase]["self_s"][name] = s
    return out


def mismatches(cells: list, expected: list) -> int:
    return sum(a != b for a, b in zip(cells, expected)) + abs(len(cells) - len(expected))


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# ---------------------------------------------------------------- output


def provenance(w: Workload, seed: int, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "geopost").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "geopost": geopost.__version__,
        "reference": load_reference(w.name, seed) is not None,
    }


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not itself a
    git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return the result record."""
    workdir = OUT_DIR / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = make_inputs(w, seed, workdir)
        if trace:
            flow, tracer, metrics, details = run_traced(w, inputs, workdir)
            units = PER_LAYER_UNITS
        else:
            flow, metrics, details = run_untraced(w, inputs, workdir, seconds)
            tracer, units = None, dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "provenance": provenance(w, seed, trace),
        "correct": not flow.failures,
        "attempted": flow.attempted,
        "failed": sum(flow.failures.values()),
        "failures": dict(flow.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
        "tracer": tracer,
    }


def print_result(record: dict) -> None:
    prov = record["provenance"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    if "breakdown" in record["details"]:
        for phase, b in record["details"]["breakdown"].items():
            print(f"  {phase}: wall {b['wall_s']:.3f} s, self time by span:")
            for name, s in b["self_s"].items():
                print(f"    {name:34s} {s:10.4f} s")
    else:
        d = record["details"]
        print(f"  rounds {d['rounds']}, latency samples {d['latency_samples']}, "
              f"queries {d['queries']}, centre-guess error {d['centre_guess_error_km']:.4f} km")
        for name, c in d["calibration_s"].items():
            print(f"  calibration loop {name}: {1e3 * c['min']:.2f} / {1e3 * c['median']:.2f} / "
                  f"{1e3 * c['max']:.2f} ms (min / median / max), reference {1e3 * c['reference']:.2f} ms")
        walls = d["wall_s"]
        for unit in [u for u in walls if not u.startswith("batch-")]:
            print(f"  {unit:14s} x{len(walls[unit]):<3d} median wall {statistics.median(walls[unit]):8.4f} s")
        batch = sum(statistics.median(walls[f"batch-{k}"]) for k in range(SHARDS))
        print(f"  {SHARDS} batch passes, sum of median walls {batch:.4f} s")
    ops = record["attempted"]
    print(f"  ops_failed_frac {record['failed'] / ops:.6g} ({record['failed']} of {ops})")
    for failure, n in record["failures"].items():
        print(f"  FAILED {n}x: {failure}")


def save_record(record: dict) -> None:
    prov = record["provenance"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{prov['workload']}-seed{prov['seed']}-trace{int(prov['trace'])}"
    if record["tracer"] is not None:
        record["tracer"].write(f"{stem}-spans.jsonl")
    saved = {k: v for k, v in record.items() if k != "tracer"}
    with open(f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(saved, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    pinned = pin_to_fastest_cpu()
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["provenance"]["pinned"] = pinned
    save_record(record)
    print_result(record)
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }
    print(json.dumps(summary))
    return 0
