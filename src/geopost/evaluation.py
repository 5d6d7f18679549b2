"""Corpus splitting, error measurement, and synthetic corpora.

The synthetic generator plants one vocabulary per grid cell so estimator
behavior can be verified end to end without any real social-media data:
with zero leakage a post's words identify its cell exactly, and raising
leakage degrades recovery in a controlled way.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from math import floor, isfinite
from typing import Sequence

from .errors import ValidationError
from .estimator import Estimate, GeoEnsemble, estimate_all
from .grid import GeoBounds, GeoPoint, geo_distance_km, partition
from .pipeline import RawPost, TokenizedPost


@dataclass(frozen=True)
class SplitSpec:
    """Train and holdout fractions plus the shuffle seed; the test split
    is whatever remains."""

    train_frac: float = 0.70
    holdout_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name, frac in (("train_frac", self.train_frac), ("holdout_frac", self.holdout_frac)):
            if not (isfinite(frac) and frac >= 0):
                raise ValidationError(f"{name} must be a finite number >= 0, got {frac}")
        total = self.train_frac + self.holdout_frac
        if total > 1.0:
            raise ValidationError(f"train and holdout fractions must sum to at most 1, got {total}")


@dataclass(frozen=True)
class ErrorReport:
    """Per-post estimation errors plus aggregate statistics.

    ``histogram`` rows are (bin_left_km, count, fraction) over fixed-width
    bins starting at 0; ``cdf_points`` are (distance_km, cumulative
    fraction) at every distinct error value.
    """

    per_post: tuple[tuple[str, float], ...]
    mean_error_km: float
    bin_width_km: float
    histogram: tuple[tuple[float, int, float], ...]
    cdf_points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-vocabulary corpus.

    Each of the g*g cells gets ``vocab_per_cell`` words of its own plus
    access to a ``shared_vocab``-word common pool. Every token is drawn
    from a uniformly random *other* cell's vocabulary with probability
    ``leakage``; otherwise, with probability ``neighbor_overlap``, from a
    random adjacent cell's vocabulary (spatially correlated language), and
    from the cell's own pool the rest of the time.
    """

    g: int
    vocab_per_cell: int = 20
    shared_vocab: int = 0
    posts_per_cell: int = 100
    tokens_per_post: int = 6
    leakage: float = 0.0
    neighbor_overlap: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.g < 1:
            raise ValidationError(f"grid dimension must be >= 1, got {self.g}")
        for name, value in (
            ("vocab_per_cell", self.vocab_per_cell),
            ("posts_per_cell", self.posts_per_cell),
            ("tokens_per_post", self.tokens_per_post),
        ):
            if value < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        if self.shared_vocab < 0:
            raise ValidationError(f"shared_vocab must be >= 0, got {self.shared_vocab}")
        for name, value in (("leakage", self.leakage), ("neighbor_overlap", self.neighbor_overlap)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")


def split(corpus: Sequence[RawPost], spec: SplitSpec) -> tuple[list[RawPost], list[RawPost], list[RawPost]]:
    """Deterministic seeded shuffle, then contiguous cut at the fraction
    boundaries: floor for train, floor for holdout, remainder to test."""
    shuffled = list(corpus)
    random.Random(spec.seed).shuffle(shuffled)
    n = len(shuffled)
    n_train = floor(n * spec.train_frac)
    n_holdout = floor(n * spec.holdout_frac)
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_holdout],
        shuffled[n_train + n_holdout :],
    )


def estimation_error_km(truth: GeoPoint, est: Estimate) -> float:
    """Great-circle distance from the true coordinates to the estimated
    cell center."""
    return geo_distance_km(truth, est.point)


def error_report(
    per_post: Sequence[tuple[str, float]], bin_width_km: float = 0.25
) -> ErrorReport:
    """Aggregate per-post errors into mean, fixed-width histogram, and
    empirical CDF at every distinct error value."""
    if not per_post:
        raise ValidationError("cannot aggregate an empty error list")
    _check_bin_width(bin_width_km)
    errors = [e for _, e in per_post]
    mean = sum(errors) / len(errors)

    n_bins = int(max(errors) // bin_width_km) + 1
    counts = [0] * n_bins
    for e in errors:
        counts[int(e // bin_width_km)] += 1
    histogram = tuple(
        (i * bin_width_km, c, c / len(errors)) for i, c in enumerate(counts)
    )

    by_value = Counter(errors)
    cdf = []
    seen = 0
    for value in sorted(by_value):
        seen += by_value[value]
        cdf.append((value, seen / len(errors)))

    return ErrorReport(
        per_post=tuple(per_post),
        mean_error_km=mean,
        bin_width_km=bin_width_km,
        histogram=histogram,
        cdf_points=tuple(cdf),
    )


def _check_bin_width(bin_width_km: float) -> None:
    if not (isfinite(bin_width_km) and bin_width_km > 0):
        raise ValidationError(f"bin width must be a finite number > 0, got {bin_width_km}")


def evaluate(
    ens: GeoEnsemble, posts: Sequence[TokenizedPost], bin_width_km: float = 0.25
) -> ErrorReport:
    """Estimate every post, measure errors against truth, and aggregate.

    The bin width and every post's truth location are checked before
    anything is scored; the posts are then estimated a block at a time by
    ``estimate_all``, which raises EstimationError for a degenerate
    ensemble."""
    if not posts:
        raise ValidationError("cannot evaluate an empty test set")
    _check_bin_width(bin_width_km)
    for post in posts:
        if post.location is None:
            raise ValidationError(f"test post {post.id!r} has no truth location")
    per_post = [
        (post.id, estimation_error_km(post.location, est))
        for post, est in zip(posts, estimate_all(ens, posts))
    ]
    return error_report(per_post, bin_width_km)


def write_errors_csv(report: ErrorReport, path) -> None:
    _write_csv(path, ("post_id", "error_km"), ((pid, repr(err)) for pid, err in report.per_post))


def write_cdf_csv(report: ErrorReport, path) -> None:
    _write_csv(
        path,
        ("distance_km", "cum_fraction"),
        ((repr(d), repr(f)) for d, f in report.cdf_points),
    )


def write_density_csv(report: ErrorReport, path) -> None:
    _write_csv(
        path,
        ("bin_left_km", "count", "fraction"),
        ((repr(left), count, repr(frac)) for left, count, frac in report.histogram),
    )


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def generate_synthetic(spec: SyntheticSpec, bounds: GeoBounds) -> list[RawPost]:
    """Emit ``posts_per_cell`` posts per cell with locations uniform inside
    the cell and tokens drawn per ``spec.leakage`` and
    ``spec.neighbor_overlap``. Byte-identical output for given arguments."""
    part = partition(bounds, spec.g)
    rng = random.Random(spec.seed)
    cells = part.cells()
    vocab = {
        cell: [f"c{cell.row}x{cell.col}w{i}" for i in range(spec.vocab_per_cell)]
        for cell in cells
    }
    shared = [f"shared{i}" for i in range(spec.shared_vocab)]
    own_pool = {cell: vocab[cell] + shared for cell in cells}
    others = {cell: [c for c in cells if c != cell] for cell in cells}
    ring1 = {cell: sorted(part.ring_neighbors(cell, 1), key=lambda c: (c.row, c.col)) for cell in cells} if spec.g > 1 else {}

    posts = []
    for cell in cells:
        lat_lo, lat_hi, lon_lo, lon_hi = part.cell_rect(cell)
        for i in range(spec.posts_per_cell):
            point = GeoPoint(rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi))
            tokens = []
            for _ in range(spec.tokens_per_post):
                u = rng.random()
                v = rng.random()
                if u < spec.leakage and others[cell]:
                    tokens.append(rng.choice(vocab[rng.choice(others[cell])]))
                elif v < spec.neighbor_overlap and ring1.get(cell):
                    tokens.append(rng.choice(vocab[rng.choice(ring1[cell])]))
                else:
                    tokens.append(rng.choice(own_pool[cell]))
            posts.append(
                RawPost(
                    id=f"synth-r{cell.row}c{cell.col}-{i}",
                    text=" ".join(tokens),
                    location=point,
                )
            )
    return posts
