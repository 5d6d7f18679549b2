"""Hyperparameter fitting by exhaustive grid search on hold-out error.

The training corpus and its word ids are built once; for each grid
dimension g, ``build_ensemble`` only re-bins the posts and recounts
them. For each g the per-cell models, the hold-out posteriors
and their per-ring neighbor terms depend only on g, so they are computed
once, a block of posts at a time under the ``post_blocks`` rule that
``estimate_batch`` keeps: per block, a (posts, g**2) matrix and a (g-1,
posts, g**2) stack, by one ``posterior_matrix`` call and one
``smoothing_terms`` call whose rows equal the one-post
``posterior_vector`` and ``smoothing_terms`` bit for bit. Every d then
adds one ring slice to a running (posts, g**2) sum, and every alpha is
one blend plus one row-wise argmax over the block. Only the per-post
errors outlive a block. The sweep reproduces from-scratch estimates bit
for bit because it performs the same elementwise arithmetic in the same
order, and distances are taken only for the cells that win.
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
    post_blocks,
    posterior_matrix,
    smoothing_terms,
)
from .grid import GeoBounds, geo_distance_km, partition, positive_index
from .pipeline import RawPost, TokenizedPost, build_training_corpus

DEFAULT_G_VALUES = tuple(range(5, 16))
DEFAULT_ALPHA_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class SearchSpace:
    """Grid-search ranges: g values, alpha values, and d swept 1..g.
    Repeated values are dropped, keeping the first of each."""

    g_values: tuple[int, ...] = DEFAULT_G_VALUES
    alpha_values: tuple[float, ...] = DEFAULT_ALPHA_VALUES

    def __post_init__(self):
        if not self.g_values or not self.alpha_values:
            raise ValidationError("search space must be non-empty")
        # Checked before repeats are dropped: True == 1 would hide behind a 1.
        g_values = [positive_index("grid dimension", g) for g in self.g_values]
        # SmoothingConfig raises ValidationError for a bad alpha, and its
        # float is the one the direct path smooths with.
        alphas = (SmoothingConfig(alpha=alpha).alpha for alpha in self.alpha_values)
        object.__setattr__(self, "g_values", tuple(dict.fromkeys(g_values)))
        object.__setattr__(self, "alpha_values", tuple(dict.fromkeys(alphas)))


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


def _sweep_alpha_d(
    ens, holdout: Sequence[TokenizedPost], alpha_values: Sequence[float]
) -> dict[tuple[float, int], float]:
    """Mean hold-out error for every alpha and every d = 1..g, from one
    ``posterior_matrix`` call and one ``smoothing_terms`` call per block
    of ``post_blocks``.

    Within a block, ring terms accumulate into one (posts, g**2) matrix in
    increasing d, in exactly the order smooth_from_terms sums them, and
    every alpha is one 2-D blend plus a row-wise first-max argmax.
    Elementwise arithmetic and first-max ties give the same scores and
    cells as the direct path bit for bit. Distances from a post's truth
    to a cell center are computed only for cells that win some argmax,
    once per (post, cell). Each post's error goes into a (g, alphas,
    posts) table, and each mean is one ``sum`` over its row in post
    order, as a direct evaluation takes it: a total carried across blocks
    would round differently where ``sum`` of floats is compensated.
    """
    part, n = ens.partition, len(holdout)
    errors = np.empty((part.g, len(alpha_values), n))
    for block in post_blocks(part.g, n):
        posts = holdout[block]
        posteriors = posterior_matrix(ens, [post.tokens for post in posts])
        rings = smoothing_terms(part, posteriors)
        dists = np.full(posteriors.shape, np.nan)  # NaN: not computed yet
        rows = np.arange(len(posts))
        acc = np.zeros_like(posteriors)
        for d in range(1, part.g + 1):
            if d < part.g:
                acc = acc + rings[d - 1]
            for a, alpha in enumerate(alpha_values):
                winners = np.argmax(blend_smoothed(posteriors, acc, alpha), axis=1)
                for i in rows[np.isnan(dists[rows, winners])].tolist():
                    j = int(winners[i])
                    dists[i, j] = geo_distance_km(posts[i].location, part.center_at(j))
                errors[d - 1, a, block] = dists[rows, winners]
    # Row (d - 1) * len(alpha_values) + a of the reshaped table is (alpha, d).
    keys = [(alpha, d) for d in range(1, part.g + 1) for alpha in alpha_values]
    return {key: sum(row.tolist()) / n for key, row in zip(keys, errors.reshape(-1, n))}


def grid_search(
    train: Sequence[RawPost],
    holdout: Sequence[RawPost],
    space: SearchSpace,
    bounds: GeoBounds,
    stopword_count: int = 200,
) -> TuneResult:
    """Exhaustive search over (g, alpha, d) minimizing mean hold-out error.

    The training corpus and its pipeline artifacts are built once from
    the training split; per-g ensembles and posteriors are cached and
    shared across (alpha, d). ``stopword_count`` is checked as
    ``build_training_corpus`` checks it. Ties resolve to the smaller g,
    then alpha, then d.
    """
    _check_holdout(holdout)
    corpus, artifacts = build_training_corpus(train, stopword_count)
    holdout_tok = [artifacts.preprocess(p) for p in holdout]

    surface: dict[tuple[int, float, int], float] = {}
    for g in sorted(space.g_values):
        part = partition(bounds, g)
        ens = build_ensemble(corpus, part, SmoothingConfig(), artifacts)
        per_ad = _sweep_alpha_d(ens, holdout_tok, sorted(space.alpha_values))
        for (alpha, d), err in per_ad.items():
            surface[(g, alpha, d)] = err

    return TuneResult(best=select_best(surface), surface=surface)


def select_best(surface: dict[tuple[int, float, int], float]) -> tuple[int, float, int]:
    """Argmin over the surface; ties go to the smaller g, then alpha, then d."""
    if not surface:
        raise ValidationError("empty tuning surface")
    return min(sorted(surface), key=surface.__getitem__)


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
    SmoothingConfig(alpha=alpha)  # raises ValidationError for a bad alpha
    _check_holdout(holdout)
    per_ad = _sweep_alpha_d(ens, holdout, [alpha])
    return {d: err for (_, d), err in per_ad.items()}
