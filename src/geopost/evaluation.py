"""Corpus splitting, error measurement, and synthetic corpora.

The synthetic generator plants one vocabulary per grid cell so estimator
behavior can be verified end to end without any real social-media data:
with zero leakage a post's words identify its cell exactly, and raising
leakage degrades recovery in a controlled way.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import floor, inf
from typing import Sequence

from .errors import ValidationError
from .estimator import Estimate, GeoEnsemble, csv_text, estimate_batch
from .grid import (
    GeoBounds,
    GeoPoint,
    geo_distance_km,
    non_negative_index,
    partition,
    positive_index,
    real_number,
)
from .pipeline import RawCorpus, RawPost, TokenizedPost

# Width of an error histogram bin, unless the caller gives one.
DEFAULT_BIN_WIDTH_KM = 0.25
# Most bins an error histogram may have: 12 times the 80,061 that the
# default 0.25 km width gives for the largest great-circle error.
MAX_HISTOGRAM_BINS = 1_000_000


@dataclass(frozen=True)
class SplitSpec:
    """Train and holdout fractions plus the shuffle seed; the test split
    is whatever remains."""

    train_frac: float = 0.70
    holdout_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name, frac in (("train_frac", self.train_frac), ("holdout_frac", self.holdout_frac)):
            real_number(name, frac, lambda f: 0 <= f < inf, "be a finite number >= 0")
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
        object.__setattr__(self, "g", positive_index("grid dimension", self.g))
        for name in ("vocab_per_cell", "posts_per_cell", "tokens_per_post"):
            object.__setattr__(self, name, positive_index(name, getattr(self, name)))
        object.__setattr__(
            self, "shared_vocab", non_negative_index("shared_vocab", self.shared_vocab)
        )
        for name in ("leakage", "neighbor_overlap"):
            share = real_number(name, getattr(self, name), lambda p: 0 <= p <= 1, "lie in [0, 1]")
            object.__setattr__(self, name, share)


def split(
    corpus: Sequence[RawPost], spec: SplitSpec
) -> tuple[RawCorpus, RawCorpus, RawCorpus]:
    """Deterministic seeded shuffle, then contiguous cut at the fraction
    boundaries: floor for train, floor for holdout, remainder to test.

    The shuffle permutes post indices; ``random.shuffle``'s draws depend
    only on the length and the generator state, so the posts come out in
    the order that shuffling them as a list gives. ``corpus`` goes
    through ``RawCorpus.of``, and each part is a ``RawCorpus``."""
    corpus = RawCorpus.of(corpus)
    order = list(range(len(corpus)))
    random.Random(spec.seed).shuffle(order)
    n = len(order)
    n_train = floor(n * spec.train_frac)
    n_holdout = floor(n * spec.holdout_frac)
    return (
        corpus.take(order[:n_train]),
        corpus.take(order[n_train : n_train + n_holdout]),
        corpus.take(order[n_train + n_holdout :]),
    )


def estimation_error_km(truth: GeoPoint, est: Estimate) -> float:
    """Great-circle distance from the true coordinates to the estimated
    cell center."""
    return geo_distance_km(truth, est.point)


def error_report(
    per_post: Sequence[tuple[str, float]], bin_width_km: float = DEFAULT_BIN_WIDTH_KM
) -> ErrorReport:
    """Aggregate per-post errors into mean, fixed-width histogram, and
    empirical CDF at every distinct error value. A bin width that would
    give more than ``MAX_HISTOGRAM_BINS`` bins is a ValidationError."""
    if not per_post:
        raise ValidationError("cannot aggregate an empty error list")
    _check_bin_width(bin_width_km)
    errors = [e for _, e in per_post]
    mean = sum(errors) / len(errors)

    top_bin = max(errors) // bin_width_km
    if top_bin >= MAX_HISTOGRAM_BINS:
        raise ValidationError(
            f"bin width {bin_width_km} km would need more than {MAX_HISTOGRAM_BINS}"
            f" histogram bins for the largest error, {max(errors)} km"
        )
    counts = [0] * (int(top_bin) + 1)
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
    real_number("bin width", bin_width_km, lambda w: 0 < w < inf, "be a finite number > 0")


def check_truth_locations(posts: Sequence, role: str) -> None:
    """Every post of ``posts`` must have a truth location: the first that
    lacks one is named in a ValidationError, as a ``role`` post."""
    for post in posts:
        if post.location is None:
            raise ValidationError(f"{role} post {post.id!r} has no truth location")


def evaluate(
    ens: GeoEnsemble, posts: Sequence[TokenizedPost], bin_width_km: float = DEFAULT_BIN_WIDTH_KM
) -> ErrorReport:
    """Estimate every post, measure errors against truth, and aggregate.

    The bin width and every post's truth location are checked before
    anything is scored; the posts are then estimated a block at a time by
    ``estimate_batch``."""
    if not posts:
        raise ValidationError("cannot evaluate an empty test set")
    _check_bin_width(bin_width_km)
    check_truth_locations(posts, "test")
    per_post = [
        (post.id, estimation_error_km(post.location, est))
        for post, est in zip(posts, estimate_batch(ens, posts))
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
        f.write(csv_text(header, rows))


def generate_synthetic(spec: SyntheticSpec, bounds: GeoBounds) -> list[RawPost]:
    """Emit ``posts_per_cell`` posts per cell with locations uniform inside
    the cell and tokens drawn per ``spec.leakage`` and
    ``spec.neighbor_overlap``. Byte-identical output for given arguments.

    Cells are row-major indices. ``rng.choice(seq)`` is
    ``seq[rng.randrange(len(seq))]``, so an index drawn into the other
    cells, or into the cell's words then the shared ones, gives the posts
    that choosing from those lists would, and neither list is built."""
    part = partition(bounds, spec.g)
    rng = random.Random(spec.seed)
    cells = part.cells()
    n_cells, n_words = len(cells), spec.vocab_per_cell
    vocab = [[f"c{c.row}x{c.col}w{i}" for i in range(n_words)] for c in cells]
    shared = [f"shared{i}" for i in range(spec.shared_vocab)]
    ring1 = [sorted(c.row * spec.g + c.col for c in part.ring_neighbors(x, 1)) for x in cells]

    posts = []
    for index, cell in enumerate(cells):
        lat_lo, lat_hi, lon_lo, lon_hi = part.cell_rect(cell)
        for i in range(spec.posts_per_cell):
            point = GeoPoint(rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi))
            tokens = []
            for _ in range(spec.tokens_per_post):
                u, v = rng.random(), rng.random()
                if u < spec.leakage and n_cells > 1:
                    j = rng.randrange(n_cells - 1)
                    tokens.append(rng.choice(vocab[j + (j >= index)]))
                elif v < spec.neighbor_overlap and ring1[index]:
                    tokens.append(rng.choice(vocab[rng.choice(ring1[index])]))
                else:
                    j = rng.randrange(n_words + len(shared))
                    tokens.append(vocab[index][j] if j < n_words else shared[j - n_words])
            posts.append(RawPost(f"synth-r{cell.row}c{cell.col}-{i}", " ".join(tokens), point))
    return posts
