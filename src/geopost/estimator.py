"""Bayesian cell selection over an ensemble of per-cell language models.

``build_ensemble`` trains the ensemble from a columnar ``TrainingCorpus``:
one ``cells_of`` call bins every post, and ``count_tables`` counts the
word ids of each cell, so training on another grid re-bins and recounts
the same corpus.

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
``estimate`` runs this on one post's vector; ``estimate_batch`` runs it
on a block of posts at a time, as a (rows, g**2) matrix, with the same
bits. ``post_blocks`` cuts every batch pass, the tuner's too, into blocks
whose ring stack stays under ``_SMOOTH_BLOCK`` entries. The models score
consecutive token pairs only, so a post with fewer than two tokens has
likelihood 1 in every cell and its posterior is the prior, bit for bit.
Within a block, ``block_rows`` gives every post with a bigram a row of
its own and lets all the others share one prior row, so a batch pass
scores and smooths the prior at most once per block. ``estimate`` keeps
the full path even for such a post: it is the from-scratch reference
that the batch passes are tested against, and a cached prior estimate
there left the posts still scored to run with cold ring matrices, which
raised the one-post p99 latency.
``dict[CellId, float]`` appears only in the API-edge wrappers
``posterior_field`` and ``geo_smooth``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .grid import CellId, GeoPoint, GridPartition, positive_index, real_number
from .lm import BaselineInterpolation, CellModels, EnsembleTables, count_tables
from .pipeline import PipelineArtifacts, TokenizedPost, TrainingCorpus, vocab_agrees

# Every batch pass (``estimate_batch`` and the tuner's hold-out sweep)
# takes posts in blocks whose ring stack, (g-1) x posts x g**2 floats, has
# at most this many entries (8 MiB), unless one post alone has more; see
# ``post_blocks``.
_SMOOTH_BLOCK = 1 << 20

# The paper's blend weight, the smoothing weight unless the caller gives one.
DEFAULT_ALPHA = 0.9


@dataclass(frozen=True)
class SmoothingConfig:
    """Geo-smoothing knobs: blend weight ``alpha`` and ring diameter ``d``.

    ``diameter=None`` means every ring, as d = g does: rings beyond g-1
    are empty, so any diameter >= g-1 produces identical scores. A saved
    model keeps ``None`` as it is. A valid value is stored as a Python
    ``float`` alpha and ``int`` diameter, so a numpy scalar reaches the
    manifest and the surface CSV as the plain number.
    """

    alpha: float = DEFAULT_ALPHA
    diameter: Optional[int] = None

    def __post_init__(self):
        alpha = real_number("alpha", self.alpha, lambda a: 0 <= a <= 1, "lie in [0, 1]")
        object.__setattr__(self, "alpha", alpha)
        if self.diameter is None:
            return
        object.__setattr__(self, "diameter", positive_index("diameter", self.diameter))


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
    artifacts, and the language model: Kneser-Ney, or the interpolation
    baseline when ``baseline`` is set. Either way the same scorer runs, on
    ``scoring_tables``: ``tables``, or their baseline column set."""

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

    @cached_property
    def scoring_tables(self) -> EnsembleTables:
        """The tables this ensemble scores with: ``tables`` under
        Kneser-Ney, their interpolated column set under ``baseline``."""
        return self.tables if self.baseline is None else self.tables.interpolated(self.baseline)

    @property
    def models(self) -> CellModels:
        """Per-cell counts and discounts (``CellCounts``), rebuilt from the
        tables on lookup. Probabilities come from ``tables``; the per-cell
        reference model they are tested against is in ``tests/reference.py``."""
        return CellModels(self.tables, self.partition.cells())

    def with_smoothing(self, smoothing: SmoothingConfig) -> "GeoEnsemble":
        return replace(self, smoothing=smoothing)

    def with_baseline(self, baseline: Optional[BaselineInterpolation]) -> "GeoEnsemble":
        return replace(self, baseline=baseline)


def build_ensemble(
    corpus: TrainingCorpus,
    part: GridPartition,
    smoothing: SmoothingConfig,
    artifacts: PipelineArtifacts,
) -> GeoEnsemble:
    """Assign the training posts to cells and count every cell's model
    into one set of compiled tables; priors are the per-cell share of
    training posts. Only the binning depends on ``part``, so one corpus
    serves every grid. Cells with no posts get prior 0 and empty counts;
    they can never be selected. Scoring is Kneser-Ney;
    ``GeoEnsemble.with_baseline`` switches it to the interpolation
    baseline."""
    if not len(corpus):
        raise ValidationError("cannot build an ensemble from an empty training set")
    if not vocab_agrees(corpus.vocab, artifacts.vocab):
        raise ValidationError("the training corpus vocab differs from artifacts.vocab")
    unlocated = np.isnan(corpus.lats)
    n = int(np.argmax(unlocated)) if unlocated.any() else len(corpus)
    # The posts before the first unlocated one are binned first, so an
    # earlier out-of-region post is the one reported.
    cells = part.cells_of(corpus.lats[:n], corpus.lons[:n])
    if n < len(corpus):
        raise ValidationError(f"training post {corpus.ids[n]!r} has no location")
    tables = count_tables(corpus.vocab, corpus.token_ids, corpus.lens, cells, part.g * part.g)
    return GeoEnsemble(
        partition=part,
        tables=tables,
        smoothing=smoothing,
        artifacts=artifacts,
    )


def cell_log_scores(ens: GeoEnsemble, tokens: Sequence[str]) -> np.ndarray:
    """Unnormalized log posterior per cell in row-major order:
    log P(tokens | cell) + log prior. Zero-prior cells get -inf."""
    scores = ens.scoring_tables.log_likelihood(tokens)
    scores += ens.scoring_tables.log_prior
    return scores


def normalize_log_scores(scores: Sequence[float]) -> np.ndarray:
    """Max-shifted exponential normalization of log scores into a
    probability vector, or of each row of a 2-D array into one. Every
    ensemble has a cell with positive prior, so no row is all -inf."""
    arr = np.asarray(scores, dtype=np.float64)
    # A 1-D input keeps a scalar maximum and sum: (1,) arrays would add
    # microseconds to every post ``estimate`` scores.
    rows = arr.ndim > 1
    q = arr - arr.max(axis=-1, keepdims=rows)
    np.exp(q, out=q)
    q /= q.sum(axis=-1, keepdims=rows)
    return q


def posterior_vector(ens: GeoEnsemble, tokens: Sequence[str]) -> np.ndarray:
    """Row-major posterior over cells for one token sequence."""
    return normalize_log_scores(cell_log_scores(ens, tokens))


def posterior_matrix(ens: GeoEnsemble, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """(posts, g**2) matrix whose row i is ``posterior_vector(ens,
    token_lists[i])`` bit for bit, scored in one batched pass."""
    scores = ens.scoring_tables.log_likelihoods(token_lists) + ens.scoring_tables.log_prior
    return normalize_log_scores(scores)


def posterior_field(ens: GeoEnsemble, post: TokenizedPost) -> PosteriorField:
    """Bayes posterior over cells for one preprocessed post.

    An empty token sequence contributes likelihood 1 everywhere, so the
    posterior reduces to the prior vector.
    """
    vec = posterior_vector(ens, post.tokens)
    values = {cell: float(p) for cell, p in zip(ens.partition.cells(), vec)}
    return PosteriorField(values=values, post_id=post.id)


# Every caller works at one g at a time: ``estimate``, ``estimate_batch``
# and ``evaluate`` at the model's g, ``grid_search`` at each g in turn.
# So only the last g's stack is kept, with its sizes for a vector and for
# a matrix of fields: a stack takes (g-1) * g**4 * 8 bytes, and the stacks
# of g = 16, 20, 24, 28 and 32 would keep 464 MiB.
@lru_cache(maxsize=1)
def _ring_matrices(g: int) -> np.ndarray:
    """Read-only (g-1, g**2, g**2) stack of 0/1 matrices: R[k-1] @ field
    sums each cell's ring-k neighbors, the cells at Chebyshev distance k."""
    row, col = np.divmod(np.arange(g * g), g)
    cheb = np.maximum(abs(row[:, None] - row), abs(col[:, None] - col))
    stack = (cheb == np.arange(1, g)[:, None, None]).astype(np.float64)
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=2)
def _ring_sizes(g: int, ndim: int) -> np.ndarray:
    """Read-only full-ring sizes (2k+1)**2 - 1, k = 1..g-1, shaped to
    divide a (g-1, ...) stack of terms of ``ndim``-dimensional fields."""
    sizes = ((2 * np.arange(1.0, g) + 1) ** 2 - 1).reshape((g - 1,) + (1,) * ndim)
    sizes.flags.writeable = False
    return sizes


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
    terms /= _ring_sizes(g, fields.ndim)
    return terms


def blend_smoothed(field_vec: np.ndarray, neighbor_acc: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 - alpha) * field_vec + alpha * neighbor_acc


def smooth_from_terms(
    field_vec: np.ndarray, terms: np.ndarray, alpha: float, diameter: Optional[int]
) -> np.ndarray:
    # Summing over axis 0 adds the rings one by one in increasing k; a
    # diameter of None slices every ring.
    return blend_smoothed(field_vec, terms[:diameter].sum(axis=0), alpha)


def smooth_vector(
    part: GridPartition, field_vec: np.ndarray, alpha: float, diameter: Optional[int]
) -> np.ndarray:
    return smooth_from_terms(field_vec, smoothing_terms(part, field_vec), alpha, diameter)


def geo_smooth(ens: GeoEnsemble, field: PosteriorField) -> dict[CellId, float]:
    """Blend each cell's posterior with ring-averaged neighbor posteriors:

        score = (1 - alpha) * P(cell) + alpha * sum_k ring_k_sum / ((2k+1)**2 - 1)

    Scores are consumed only through the argmax and are not renormalized.
    """
    cells = ens.partition.cells()
    vec = np.array([field.values[cell] for cell in cells], dtype=np.float64)
    smoothed = smooth_vector(ens.partition, vec, ens.smoothing.alpha, ens.smoothing.diameter)
    return {cell: float(s) for cell, s in zip(cells, smoothed)}


def _estimate_at(part: GridPartition, i: int, scores: np.ndarray, vec: np.ndarray) -> Estimate:
    """The Estimate for row-major cell i: its center, its smoothed score in
    ``scores`` and its posterior in ``vec``."""
    return Estimate(CellId(*divmod(i, part.g)), part.center_at(i), float(scores[i]), float(vec[i]))


def _pick_cells(part: GridPartition, posteriors: np.ndarray, scores: np.ndarray) -> list[Estimate]:
    """One Estimate per row of the (posts, g**2) smoothed ``scores``: the
    first row-major maximum, so ties go to the lowest row, then the lowest
    column, with its center and its row's posterior."""
    best = np.argmax(scores, axis=1).tolist()
    return [_estimate_at(part, i, row, vec) for i, row, vec in zip(best, scores, posteriors)]


def estimate(ens: GeoEnsemble, post: TokenizedPost) -> Estimate:
    """Locate one post: argmax of the geo-smoothed posterior, ties broken
    by lowest row then lowest column, as ``_pick_cells`` breaks them."""
    part = ens.partition
    vec = posterior_vector(ens, post.tokens)
    scores = smooth_vector(part, vec, ens.smoothing.alpha, ens.smoothing.diameter)
    return _estimate_at(part, int(scores.argmax()), scores, vec)


def post_blocks(g: int, n: int) -> list[slice]:
    """Consecutive slices over n posts, each of at least one post and of at
    most ``_SMOOTH_BLOCK`` ring-stack entries, (g-1) x posts x g**2: the
    block rule of every batch pass, ``estimate_batch`` and the tuner's.
    A block is scored as the rows of ``block_rows``, never more than its
    posts, so the bound holds for its ring stack too."""
    step = max(_SMOOTH_BLOCK // max((g - 1) * g * g, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def block_rows(token_lists: Sequence[Sequence[str]]) -> tuple[list, list[int]]:
    """The token sequences to score for a block of posts, and the row of
    each post among them. Every post with a bigram has a row of its own,
    in post order; the posts with fewer than two tokens share one last
    row, the empty sequence, whose posterior is the prior, as theirs is."""
    rows, row_of_post = [], []
    for tokens in token_lists:
        if len(tokens) > 1:
            row_of_post.append(len(rows))
            rows.append(tokens)
        else:
            row_of_post.append(-1)  # the shared row, appended last
    if len(rows) < len(row_of_post):
        rows.append(())
    return rows, row_of_post


def estimate_batch(ens: GeoEnsemble, posts: Sequence[TokenizedPost]) -> list[Estimate]:
    """``estimate`` of every post, in order and bit for bit: per block of
    ``post_blocks``, one ``posterior_matrix`` call on the ``block_rows``,
    one ``smoothing_terms`` and one ``smooth_from_terms`` call on the
    (rows, g**2) matrix, and one row-wise argmax; each post takes its
    row's estimate, so the posts without a bigram share one."""
    part, alpha, diameter = ens.partition, ens.smoothing.alpha, ens.smoothing.diameter
    estimates = []
    for block in post_blocks(part.g, len(posts)):
        rows, row_of_post = block_rows([post.tokens for post in posts[block]])
        vecs = posterior_matrix(ens, rows)
        scores = smooth_from_terms(vecs, smoothing_terms(part, vecs), alpha, diameter)
        picks = _pick_cells(part, vecs, scores)
        estimates += [picks[r] for r in row_of_post]
    return estimates


ESTIMATES_CSV_FIELDS = (
    "post_id",
    "est_lat",
    "est_lon",
    "cell_row",
    "cell_col",
    "posterior",
    "smoothed_score",
)


def estimates_csv(posts: Sequence[TokenizedPost], estimates: Sequence[Estimate]) -> str:
    """Render estimates as CSV text, one row per post.

    Floats are written with repr so identical estimates always produce
    byte-identical output.
    """
    return csv_text(
        ESTIMATES_CSV_FIELDS,
        (
            (post.id, repr(est.point.lat), repr(est.point.lon), est.cell.row, est.cell.col,
             repr(est.posterior), repr(est.smoothed_score))
            for post, est in zip(posts, estimates)
        ),
    )


def csv_text(header: Sequence, rows) -> str:
    """``header`` and then ``rows`` as CSV text: comma-separated, ``\\n``
    line ends and the csv module's minimal quoting, which quotes a field
    that holds a comma, a double quote, a ``\\n`` or a ``\\r``. Every CSV
    file that geopost writes is made here."""
    lines = []
    # Minimal quoting quotes the delimiter, the quote and the characters of
    # the line terminator, so each row is made with a \r\n end and then cut
    # to \n: under a \n terminator a \r is written bare, and a CSV reader
    # takes it for the end of a row.
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])
