"""Bayesian cell selection over an ensemble of per-cell language models.

A query post is scored against every cell model, the scores are combined
with per-cell priors into a normalized posterior field, and the field is
geo-smoothed by blending each cell with ring-averaged neighbor values.
The estimate is the center of the cell with the highest smoothed score.

Inside, a post's scores, posterior and smoothed field are row-major
vectors of length g**2: one gather from the ensemble's compiled tables
scores every cell at once (``cell_log_scores``), and ``np.argmax`` picks
the cell. ``dict[CellId, float]`` appears only in the API-edge wrappers
``posterior_field`` and ``geo_smooth``.
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


@dataclass(frozen=True)
class SmoothingConfig:
    """Geo-smoothing knobs: blend weight ``alpha`` and ring diameter ``d``.

    ``diameter=None`` means "use the grid dimension". Rings beyond g-1 are
    empty, so any diameter >= g-1 produces identical scores.
    """

    alpha: float = 0.9
    diameter: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.diameter is not None and self.diameter < 1:
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
    probability vector. All -inf means a degenerate ensemble."""
    arr = np.asarray(scores, dtype=np.float64)
    m = arr.max()
    if m == -inf:
        raise EstimationError("no cell has positive prior mass")
    q = np.exp(arr - m)
    return q / q.sum()


def posterior_vector(ens: GeoEnsemble, tokens: Sequence[str]) -> np.ndarray:
    """Row-major posterior over cells for one token sequence."""
    return normalize_log_scores(cell_log_scores(ens, tokens))


def posterior_field(ens: GeoEnsemble, post: TokenizedPost) -> PosteriorField:
    """Bayes posterior over cells for one preprocessed post.

    An empty token sequence contributes likelihood 1 everywhere, so the
    posterior reduces to the prior vector.
    """
    vec = posterior_vector(ens, post.tokens)
    values = {cell: float(p) for cell, p in zip(ens.partition.cells(), vec)}
    return PosteriorField(values=values, post_id=post.id)


@lru_cache(maxsize=16)
def _ring_matrices(part: GridPartition) -> tuple[np.ndarray, ...]:
    """One 0/1 matrix per ring distance k = 1..g-1; M[k-1] @ field sums
    each cell's ring-k neighbors."""
    cells = part.cells()
    index = {cell: i for i, cell in enumerate(cells)}
    mats = []
    for k in range(1, part.g):
        m = np.zeros((len(cells), len(cells)))
        for cell in cells:
            for nb in part.ring_neighbors(cell, k):
                m[index[cell], index[nb]] = 1.0
        mats.append(m)
    return tuple(mats)


def smoothing_terms(part: GridPartition, field_vec: np.ndarray) -> list[np.ndarray]:
    """Per-ring neighbor contributions: the k-th entry holds, for every
    cell, the sum of ring-k neighbor values divided by the full-ring size
    (2k+1)**2 - 1. Clipped rings keep the full denominator; missing cells
    simply contribute zero."""
    terms = []
    for k, mat in enumerate(_ring_matrices(part), start=1):
        terms.append((mat @ field_vec) / ((2 * k + 1) ** 2 - 1))
    return terms


def blend_smoothed(field_vec: np.ndarray, neighbor_acc: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 - alpha) * field_vec + alpha * neighbor_acc


def smooth_from_terms(
    field_vec: np.ndarray, terms: Sequence[np.ndarray], alpha: float, diameter: int
) -> np.ndarray:
    acc = np.zeros_like(field_vec)
    for k in range(min(diameter, len(terms))):
        acc = acc + terms[k]
    return blend_smoothed(field_vec, acc, alpha)


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


def estimate(ens: GeoEnsemble, post: TokenizedPost) -> Estimate:
    """Locate one post: argmax of the geo-smoothed posterior, ties broken
    by lowest row then lowest column (``np.argmax`` takes the first
    row-major maximum)."""
    part = ens.partition
    vec = posterior_vector(ens, post.tokens)
    scores = smooth_vector(part, vec, ens.smoothing.alpha, ens.smoothing.diameter_for(part.g))
    i = int(np.argmax(scores))
    cell = CellId(*divmod(i, part.g))
    return Estimate(
        cell=cell,
        point=part.center_of(cell),
        smoothed_score=float(scores[i]),
        posterior=float(vec[i]),
    )


def estimate_batch(ens: GeoEnsemble, posts: Sequence[TokenizedPost]) -> list[Optional[Estimate]]:
    """Element-wise ``estimate`` over a batch, order-preserving.

    A post that fails yields None in its slot (logged) instead of aborting
    the rest; with probability floors in place this is defensive only.
    """
    out: list[Optional[Estimate]] = []
    for post in posts:
        try:
            out.append(estimate(ens, post))
        except EstimationError as exc:
            logger.warning("estimate failed for post %r: %s", post.id, exc)
            out.append(None)
    return out


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
