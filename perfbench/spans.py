"""In-memory span recorder and the table of geopost functions it wraps.

A span is (id, name, start, end, parent id, root name). Spans are kept in
a list while the benchmark runs and written out when it ends. A span's
self time is its duration minus the durations of its direct children;
calls are synchronous and single-threaded, so children never overlap.

The benchmark opens one root span per phase (``phase.train`` and so on).
With wrappers installed, every call of a function in ``WRAPS`` adds a
child span, and the optional counter hook adds work counts derived from
the call's arguments and result.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


class MissingTarget(RuntimeError):
    """A function the traced run is told to wrap no longer exists, or was
    never called, so its per-layer metric would silently read zero."""


def _posts_read(args, result):
    return {"cli.posts_read": len(result[0])}


def _preprocess_counts(args, result):
    tokens = result.tokens
    return {
        "pipeline.tokens_kept": len(tokens),
        "pipeline.misc_tokens": tokens.count("<misc>"),
        "pipeline.empty_posts": int(not tokens),
    }


def _pair_lookups(args, result):
    ens, tokens = args[0], args[1]
    cells = sum(1 for p in ens.priors.values() if p > 0.0)
    return {"lm.pair_lookups": max(len(tokens) - 1, 0) * cells}


def _failed_posts(args, result):
    return {"estimator.failed_posts": sum(1 for e in result if e is None)}


def _one_call(args, result):
    return {"grid.geo_distance_calls": 1}


# (module under geopost, attribute, span name, counter hook). A name that a
# module imported with ``from .x import y`` is wrapped where it is looked
# up, which is why tuning appears several times.
WRAPS = (
    ("cli", "read_corpus", "cli.read_corpus", _posts_read),
    ("pipeline", "build_training_corpus", "pipeline.build_training_corpus", None),
    ("tuning", "build_training_corpus", "pipeline.build_training_corpus", None),
    ("pipeline", "preprocess", "pipeline.preprocess", _preprocess_counts),
    ("estimator", "build_ensemble", "estimator.build_ensemble", None),
    ("estimator", "cell_log_scores", "lm.score", _pair_lookups),
    ("estimator", "smoothing_terms", "estimator.smooth", None),
    ("estimator", "smooth_from_terms", "estimator.smooth", None),
    ("estimator", "estimate", "estimator.estimate", None),
    ("estimator", "estimate_batch", "estimator.estimate_batch", _failed_posts),
    ("estimator", "estimates_csv", "estimator.csv", None),
    ("storage", "save_model", "storage.save", None),
    ("storage", "load_model", "storage.load", None),
    ("tuning", "grid_search", "tuning.grid_search", None),
    ("tuning", "build_ensemble", "tuning.build", None),
    ("tuning", "smoothing_terms", "tuning.smoothing_terms", None),
    ("tuning", "geo_distance_km", "grid.geo_distance", _one_call),
    ("evaluation", "error_report", "evaluation.error_report", None),
)


class Tracer:
    """Records phase spans always, and layer spans while ``installed``."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        """Time the block as a span; ids are handed out when spans open,
        and spans are stored when they close."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        root = self._stack[0][1] if self._stack else name
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, root))

    def _wrap(self, fn, name, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                root = self._stack[0][1] if self._stack else name
                for key, n in counter(args, result).items():
                    self.counts[(root, key)] += n
            return result

        return traced

    @contextmanager
    def installed(self, table=WRAPS):
        """Wrap every function in ``table`` for the duration of the block.
        Raises MissingTarget before wrapping anything if one is gone."""
        targets = []
        for module_name, attr, name, counter in table:
            module = importlib.import_module(f"geopost.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise MissingTarget(
                    f"geopost.{module_name}.{attr} no longer exists; "
                    "update WRAPS in perfbench/spans.py"
                )
            targets.append((module, attr, fn, name, counter))
        try:
            for module, attr, fn, name, counter in targets:
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn, _, _ in targets:
                setattr(module, attr, fn)

    def self_times(self) -> dict[tuple[str, str], float]:
        """Total self time per (root phase, span name)."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, name, start, end, _, root in self.spans:
            out[(root, name)] += (end - start) - child_time[sid]
        return dict(out)

    def phase_walls(self) -> dict[str, list[float]]:
        """Durations of every root span, by name, in the order they ran."""
        walls: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, parent, _ in sorted(self.spans, key=lambda s: s[2]):
            if parent < 0:
                walls[name].append(end - start)
        return dict(walls)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, root in self.spans:
                f.write(json.dumps([sid, name, start, end, parent, root]))
                f.write("\n")
