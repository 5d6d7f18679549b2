"""Bayesian cell selection over an ensemble of per-cell language models.

A query post is scored against every cell model, the scores are combined
with per-cell priors into a normalized posterior field, and the field is
geo-smoothed by blending each cell with ring-averaged neighbor values.
The estimate is the center of the cell with the highest smoothed score.

Inside, a post's scores, posterior and smoothed field are row-major
vectors of length g**2: one gather from the ensemble's compiled tables
scores every cell at once (``cell_log_scores``), and ``np.argmax`` picks
the cell. ``posterior_matrix`` scores a batch of posts into a (posts,
g**2) matrix whose rows equal the one-post vectors bit for bit.
``smoothing_terms`` maps a vector or such a matrix to its per-ring terms
in one broadcast matmul against the ring stack ``_ring_matrices(g)``.
``estimate`` runs this on one post's vector; ``estimate_batch`` and
``estimate_all`` run it on a block of posts at a time, as a (posts,
g**2) matrix, with the same bits. ``dict[CellId, float]`` appears only
in the API-edge wrappers ``posterior_field`` and ``geo_smooth``.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import inf
from typing import Optional, Sequence

import numpy as np

from .errors import EstimationError, ValidationError
from .grid import CellId, GeoPoint, GridPartition
from .lm import BaselineInterpolation, CellModels, EnsembleTables, count_tables
from .pipeline import PipelineArtifacts, TokenizedPost

logger = logging.getLogger(__name__)

# The batch path takes posts in blocks whose ring stack, (g-1) x posts x
# g**2 floats, has at most this many entries (8 MiB), unless one post
# alone has more.
_SMOOTH_BLOCK = 1 << 20


@dataclass(frozen=True)
class SmoothingConfig:
    """Geo-smoothing knobs: blend weight ``alpha`` and ring diameter ``d``.

    ``diameter=None`` means "use the grid dimension". Rings beyond g-1 are
    empty, so any diameter >= g-1 produces identical scores.
    """

    alpha: float = 0.9
    diameter: Optional[int] = None

    def __post_init__(self):
        if isinstance(self.alpha, bool) or not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.diameter is None:
            return
        if isinstance(self.diameter, bool) or not hasattr(self.diameter, "__index__"):
            raise ValidationError(f"diameter must be an integer, got {self.diameter!r}")
        if self.diameter < 1:
            raise ValidationError(f"diameter must be >= 1, got {self.diameter}")

    def diameter_for(self, g: int) -> int:
        return self.diameter if self.diameter is not None else g


@dataclass(frozen=True)
class PosteriorField:
    """Normalized per-cell probabilities that one post came from each cell."""

    values: dict[CellId, float]
    post_id: str


@dataclass(frozen=True)
class Estimate:
    """Chosen cell, its center point, and the scores that selected it."""

    cell: CellId
    point: GeoPoint
    smoothed_score: float
    posterior: float


@dataclass(frozen=True)
class GeoEnsemble:
    """Everything needed to answer queries: partition, the compiled
    per-cell models and training post counts, smoothing config, pipeline
    artifacts."""

    partition: GridPartition
    tables: EnsembleTables
    smoothing: SmoothingConfig
    artifacts: PipelineArtifacts
    baseline: Optional[BaselineInterpolation] = None

    @property
    def total_posts(self) -> int:
        return int(self.tables.post_counts.sum())

    @cached_property
    def priors(self) -> dict[CellId, float]:
        """Per-cell share of the training posts."""
        total = self.total_posts
        counts = self.tables.post_counts.tolist()
        return {cell: n / total for cell, n in zip(self.partition.cells(), counts)}

    @property
    def models(self) -> CellModels:
        """Per-cell reference models, rebuilt from the tables on lookup."""
        return CellModels(self.tables, self.partition.cells())

    def with_smoothing(self, smoothing: SmoothingConfig) -> "GeoEnsemble":
        return replace(self, smoothing=smoothing)

    def with_baseline(self, baseline: Optional[BaselineInterpolation]) -> "GeoEnsemble":
        return replace(self, baseline=baseline)


def build_ensemble(
    posts: Sequence[TokenizedPost],
    part: GridPartition,
    smoothing: SmoothingConfig,
    artifacts: PipelineArtifacts,
    baseline: Optional[BaselineInterpolation] = None,
) -> GeoEnsemble:
    """Assign posts to cells and count every cell's model into one set of
    compiled tables; priors are the per-cell share of training posts.
    Cells with no posts get prior 0 and empty counts; they can never be
    selected."""
    if not posts:
        raise ValidationError("cannot build an ensemble from an empty training set")
    cells = []
    for post in posts:
        if post.location is None:
            raise ValidationError(f"training post {post.id!r} has no location")
        cell = part.cell_of(post.location)
        cells.append(cell.row * part.g + cell.col)
    tables = count_tables([post.tokens for post in posts], cells, part.g * part.g)
    return GeoEnsemble(
        partition=part,
        tables=tables,
        smoothing=smoothing,
        artifacts=artifacts,
        baseline=baseline,
    )


def cell_log_scores(ens: GeoEnsemble, tokens: Sequence[str]) -> np.ndarray:
    """Unnormalized log posterior per cell in row-major order:
    log P(tokens | cell) + log prior. Zero-prior cells get -inf."""
    return ens.tables.log_likelihood(tokens, ens.baseline) + ens.tables.log_prior


def normalize_log_scores(scores: Sequence[float]) -> np.ndarray:
    """Max-shifted exponential normalization of log scores into a
    probability vector, or of each row of a 2-D array into one. A row of
    all -inf means a degenerate ensemble."""
    arr = np.asarray(scores, dtype=np.float64)
    # A 1-D input keeps a scalar maximum and sum: (1,) arrays and .any()
    # would add microseconds to every post ``estimate`` scores.
    rows = arr.ndim > 1
    m = arr.max(axis=-1, keepdims=rows)
    if (-inf in m) if rows else m == -inf:
        raise EstimationError("no cell has positive prior mass")
    q = np.exp(arr - m)
    return q / q.sum(axis=-1, keepdims=rows)


def posterior_vector(ens: GeoEnsemble, tokens: Sequence[str]) -> np.ndarray:
    """Row-major posterior over cells for one token sequence."""
    return normalize_log_scores(cell_log_scores(ens, tokens))


def posterior_matrix(ens: GeoEnsemble, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """(posts, g**2) matrix whose row i is ``posterior_vector(ens,
    token_lists[i])`` bit for bit, scored in one batched pass."""
    scores = ens.tables.log_likelihoods(token_lists, ens.baseline) + ens.tables.log_prior
    return normalize_log_scores(scores)


def posterior_field(ens: GeoEnsemble, post: TokenizedPost) -> PosteriorField:
    """Bayes posterior over cells for one preprocessed post.

    An empty token sequence contributes likelihood 1 everywhere, so the
    posterior reduces to the prior vector.
    """
    vec = posterior_vector(ens, post.tokens)
    values = {cell: float(p) for cell, p in zip(ens.partition.cells(), vec)}
    return PosteriorField(values=values, post_id=post.id)


@lru_cache(maxsize=16)
def _ring_matrices(g: int) -> np.ndarray:
    """Read-only (g-1, g**2, g**2) stack of 0/1 matrices: R[k-1] @ field
    sums each cell's ring-k neighbors, the cells at Chebyshev distance k."""
    row, col = np.divmod(np.arange(g * g), g)
    cheb = np.maximum(abs(row[:, None] - row), abs(col[:, None] - col))
    stack = (cheb == np.arange(1, g)[:, None, None]).astype(np.float64)
    stack.flags.writeable = False
    return stack


def smoothing_terms(part: GridPartition, fields: np.ndarray) -> np.ndarray:
    """Per-ring neighbor contributions of a (g**2,) field, or of each row
    of a (posts, g**2) matrix, as a (g-1, ...) stack: entry k-1 holds, for
    every cell, the sum of ring-k neighbor values divided by the full-ring
    size (2k+1)**2 - 1. Clipped rings keep the full denominator; missing
    cells simply contribute zero.

    The broadcast matmul runs one gemv per (ring, post), so a post's terms
    have the same bits alone or in a batch (a gemm such as ``R @ fields.T``
    would not), and dividing in place keeps one copy of a batch's stack."""
    g = part.g
    terms = np.matmul(_ring_matrices(g)[:, None], fields.reshape(-1, g * g, 1))
    terms = terms.reshape((g - 1,) + fields.shape)
    terms /= ((2 * np.arange(1.0, g) + 1) ** 2 - 1).reshape((g - 1,) + (1,) * fields.ndim)
    return terms


def blend_smoothed(field_vec: np.ndarray, neighbor_acc: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 - alpha) * field_vec + alpha * neighbor_acc


def smooth_from_terms(
    field_vec: np.ndarray, terms: np.ndarray, alpha: float, diameter: int
) -> np.ndarray:
    # Summing over axis 0 adds the rings one by one in increasing k.
    return blend_smoothed(field_vec, terms[:diameter].sum(axis=0), alpha)


def smooth_vector(
    part: GridPartition, field_vec: np.ndarray, alpha: float, diameter: int
) -> np.ndarray:
    return smooth_from_terms(field_vec, smoothing_terms(part, field_vec), alpha, diameter)


def geo_smooth(ens: GeoEnsemble, field: PosteriorField) -> dict[CellId, float]:
    """Blend each cell's posterior with ring-averaged neighbor posteriors:

        score = (1 - alpha) * P(cell) + alpha * sum_k ring_k_sum / ((2k+1)**2 - 1)

    Scores are consumed only through the argmax and are not renormalized.
    """
    cells = ens.partition.cells()
    vec = np.array([field.values[cell] for cell in cells], dtype=np.float64)
    smoothed = smooth_vector(
        ens.partition, vec, ens.smoothing.alpha, ens.smoothing.diameter_for(ens.partition.g)
    )
    return {cell: float(s) for cell, s in zip(cells, smoothed)}


def _pick_cells(part: GridPartition, posteriors: np.ndarray, scores: np.ndarray) -> list[Estimate]:
    """One Estimate per row of the (posts, g**2) smoothed ``scores``: the
    first row-major maximum, so ties go to the lowest row, then the lowest
    column, with its center and its row's posterior."""
    best = np.argmax(scores, axis=1).tolist()
    return [
        Estimate(CellId(*divmod(i, part.g)), part.center_at(i), float(row[i]), float(vec[i]))
        for i, row, vec in zip(best, scores, posteriors)
    ]


def estimate(ens: GeoEnsemble, post: TokenizedPost) -> Estimate:
    """Locate one post: argmax of the geo-smoothed posterior, ties broken
    by lowest row then lowest column."""
    part = ens.partition
    vec = posterior_vector(ens, post.tokens)
    scores = smooth_vector(part, vec, ens.smoothing.alpha, ens.smoothing.diameter_for(part.g))
    return _pick_cells(part, vec[None], scores[None])[0]


def _estimate_block(ens: GeoEnsemble, posts: Sequence[TokenizedPost]) -> list[Estimate]:
    """``estimate`` of each post, bit for bit, from one ``posterior_matrix``
    call, one ``smoothing_terms`` and one ``smooth_from_terms`` call on
    the (posts, g**2) matrix, and one row-wise argmax."""
    part = ens.partition
    vecs = posterior_matrix(ens, [post.tokens for post in posts])
    scores = smooth_from_terms(
        vecs, smoothing_terms(part, vecs), ens.smoothing.alpha, ens.smoothing.diameter_for(part.g)
    )
    return _pick_cells(part, vecs, scores)


def estimate_all(ens: GeoEnsemble, posts: Sequence[TokenizedPost]) -> list[Estimate]:
    """``estimate`` of every post, in order and bit for bit, computed in
    consecutive blocks of at least one post and at most ``_SMOOTH_BLOCK``
    ring-stack entries. Raises EstimationError for an ensemble with no
    prior mass."""
    g = ens.partition.g
    step = max(_SMOOTH_BLOCK // max((g - 1) * g * g, 1), 1)
    blocks = (posts[lo : lo + step] for lo in range(0, len(posts), step))
    return [est for block in blocks for est in _estimate_block(ens, block)]


def estimate_batch(ens: GeoEnsemble, posts: Sequence[TokenizedPost]) -> list[Optional[Estimate]]:
    """``estimate_all`` that does not raise. Log-likelihoods are floored,
    so only an ensemble with no prior mass fails, and then it fails every
    post: each yields None in its slot, with one warning per post."""
    try:
        return estimate_all(ens, posts)
    except EstimationError as exc:
        for post in posts:
            logger.warning("estimate failed for post %r: %s", post.id, exc)
        return [None] * len(posts)


ESTIMATES_CSV_FIELDS = (
    "post_id",
    "est_lat",
    "est_lon",
    "cell_row",
    "cell_col",
    "posterior",
    "smoothed_score",
)


def estimates_csv(posts: Sequence[TokenizedPost], estimates: Sequence[Optional[Estimate]]) -> str:
    """Render estimates as CSV text, one row per successful estimate.

    Floats are written with repr so identical estimates always produce
    byte-identical output.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ESTIMATES_CSV_FIELDS)
    for post, est in zip(posts, estimates):
        if est is None:
            continue
        writer.writerow(
            [
                post.id,
                repr(est.point.lat),
                repr(est.point.lon),
                est.cell.row,
                est.cell.col,
                repr(est.posterior),
                repr(est.smoothed_score),
            ]
        )
    return buf.getvalue()
