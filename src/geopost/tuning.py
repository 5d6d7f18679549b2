"""Hyperparameter fitting by exhaustive grid search on hold-out error.

For each grid dimension g the per-cell models and per-post posterior
fields depend only on g, so they are computed once and cached; every
(alpha, d) combination then re-applies only the cheap geo-smoothing step.
The cached path reproduces from-scratch estimates bit for bit because
both go through the same smoothing arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .estimator import (
    SmoothingConfig,
    blend_smoothed,
    build_ensemble,
    posterior_vector,
    smoothing_terms,
)
from .grid import GeoBounds, geo_distance_km, partition
from .pipeline import RawPost, TokenizedPost, build_training_corpus

DEFAULT_G_VALUES = tuple(range(5, 16))
DEFAULT_ALPHA_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class SearchSpace:
    """Grid-search ranges: g values, alpha values, and d swept 1..g."""

    g_values: tuple[int, ...] = DEFAULT_G_VALUES
    alpha_values: tuple[float, ...] = DEFAULT_ALPHA_VALUES

    def __post_init__(self):
        if not self.g_values or not self.alpha_values:
            raise ValidationError("search space must be non-empty")
        if any(g < 1 for g in self.g_values):
            raise ValidationError("grid dimensions must be >= 1")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_values):
            raise ValidationError("alpha values must lie in [0, 1]")


@dataclass(frozen=True)
class TuneResult:
    """Best (g, alpha, d) triple and the full error surface behind it."""

    best: tuple[int, float, int]
    surface: dict[tuple[int, float, int], float] = field(compare=False)

    @property
    def best_error_km(self) -> float:
        return self.surface[self.best]


def _check_holdout(holdout: Sequence) -> None:
    """A hold-out corpus must be non-empty and every post located."""
    if not holdout:
        raise ValidationError("tuning needs a non-empty holdout corpus")
    for post in holdout:
        if post.location is None:
            raise ValidationError(f"holdout post {post.id!r} has no truth location")


def _holdout_cache(ens, part, holdout: Sequence[TokenizedPost]):
    """Per-post posterior vector, per-ring smoothing terms, and distances
    from the post's truth to every cell center (row-major)."""
    cached = []
    for post in holdout:
        vec = posterior_vector(ens, post.tokens)
        terms = smoothing_terms(part, vec)
        dists = [geo_distance_km(post.location, part.center_of(cell)) for cell in part.cells()]
        cached.append((vec, terms, dists))
    return cached


def _sweep_alpha_d(cached, alpha_values: Sequence[float], d_values: Sequence[int]):
    """Mean hold-out error for every (alpha, d), reusing cached posteriors.

    Neighbor contributions accumulate incrementally in d, in exactly the
    order smooth_from_terms uses, so scores match the direct path bit for
    bit; the argmax therefore picks the same cell.
    """
    results = {}
    accs = [np.zeros_like(vec) for vec, _, _ in cached]
    d_wanted = set(d_values)
    for d in range(1, max(d_values) + 1):
        for i, (_, terms, _) in enumerate(cached):
            if d - 1 < len(terms):
                accs[i] = accs[i] + terms[d - 1]
        if d not in d_wanted:
            continue
        for alpha in alpha_values:
            errors = []
            for (vec, _, dists), acc in zip(cached, accs):
                scores = blend_smoothed(vec, acc, alpha)
                errors.append(dists[int(np.argmax(scores))])
            results[(alpha, d)] = sum(errors) / len(errors)
    return results


def grid_search(
    train: Sequence[RawPost],
    holdout: Sequence[RawPost],
    space: SearchSpace,
    bounds: GeoBounds,
    stopword_count: int = 200,
) -> TuneResult:
    """Exhaustive search over (g, alpha, d) minimizing mean hold-out error.

    Pipeline artifacts are induced once from the training split; per-g
    ensembles and posteriors are cached and shared across (alpha, d).
    Ties resolve to the smaller g, then alpha, then d.
    """
    if not train:
        raise ValidationError("grid search needs a non-empty training corpus")
    _check_holdout(holdout)
    tokenized_train, artifacts = build_training_corpus(train, stopword_count)
    holdout_tok = [artifacts.preprocess(p) for p in holdout]

    surface: dict[tuple[int, float, int], float] = {}
    for g in sorted(space.g_values):
        part = partition(bounds, g)
        ens = build_ensemble(tokenized_train, part, SmoothingConfig(alpha=0.0, diameter=g), artifacts)
        cached = _holdout_cache(ens, part, holdout_tok)
        per_ad = _sweep_alpha_d(cached, sorted(space.alpha_values), range(1, g + 1))
        for (alpha, d), err in per_ad.items():
            surface[(g, alpha, d)] = err

    return TuneResult(best=select_best(surface), surface=surface)


def select_best(surface: dict[tuple[int, float, int], float]) -> tuple[int, float, int]:
    """Argmin over the surface; ties go to the smaller g, then alpha, then d."""
    if not surface:
        raise ValidationError("empty tuning surface")
    best = None
    best_err = None
    for key in sorted(surface):
        if best_err is None or surface[key] < best_err:
            best = key
            best_err = surface[key]
    return best


def write_surface_csv(result: TuneResult, path) -> None:
    """Export the search surface as (g, alpha, d, mean_error_km) rows."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("g", "alpha", "d", "mean_error_km"))
        for (g, alpha, d) in sorted(result.surface):
            writer.writerow((g, repr(alpha), d, repr(result.surface[(g, alpha, d)])))


def error_vs_d(
    ens, holdout: Sequence[TokenizedPost], alpha: float
) -> dict[int, float]:
    """Mean hold-out error for every smoothing diameter d = 1..g at a
    fixed alpha, reusing one posterior pass. Values for d >= g-1 are
    identical because larger rings are empty."""
    _check_holdout(holdout)
    g = ens.partition.g
    cached = _holdout_cache(ens, ens.partition, holdout)
    per_ad = _sweep_alpha_d(cached, [alpha], range(1, g + 1))
    return {d: err for (_, d), err in per_ad.items()}
