"""Step-by-step definitions used as test oracles: scalar binning for
``GridPartition.cells_of``, a shuffle of the post list for ``split``, the
training pipeline for ``build_training_corpus`` and ``preprocess``,
string-keyed counting for ``lm.count_tables``, and the per-cell language
model for the compiled ``EnsembleTables``.

Each pipeline step recounts from scratch and sorts by its own key, so
these share no code with the single-pass pipeline they check.
``CellLanguageModel`` counts one cell into dict-of-dict tables with
``train_cell`` and answers each query from them one word at a time; the
tables compute the same floats in the same order, so their scores match
it bit for bit.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from math import floor, log
from typing import Iterable, Optional, Sequence

import numpy as np

from geopost import (
    MISC,
    BaselineInterpolation,
    CellId,
    CountTables,
    Discounts,
    GeopostError,
    GeoPoint,
    GridPartition,
    OutOfRegionError,
    TokenizedPost,
    ValidationError,
    compute_discounts,
)
from geopost.lm import MIN_PROB, EnsembleTables, _pair_starts, compile_tables


def cell_of(part: GridPartition, p: GeoPoint) -> CellId:
    """Map an in-bounds point to the unique cell covering it, one point
    at a time with ``math.floor``.

    Cell (r, c) covers the half-open band [south + r*dlat, south +
    (r+1)*dlat) and likewise for longitude, so a point on an interior
    boundary resolves to the higher index. The outermost north/east
    edges close the last row/column.
    """
    if not part.bounds.contains(p):
        raise OutOfRegionError(f"point ({p.lat}, {p.lon}) outside region {part.bounds}")
    row = min(floor((p.lat - part.bounds.south) / part.dlat), part.g - 1)
    col = min(floor((p.lon - part.bounds.west) / part.dlon), part.g - 1)
    return CellId(row, col)


def split(corpus: Sequence, spec) -> list[list]:
    """The seeded split as a shuffle of the posts themselves, then the
    contiguous cuts: floor for train, floor for holdout, the rest to test."""
    shuffled = list(corpus)
    random.Random(spec.seed).shuffle(shuffled)
    n = len(shuffled)
    n_train = floor(n * spec.train_frac)
    n_holdout = floor(n * spec.holdout_frac)
    return [
        shuffled[:n_train],
        shuffled[n_train : n_train + n_holdout],
        shuffled[n_train + n_holdout :],
    ]


def induce_stopwords(corpus: Iterable[Sequence[str]], k: int) -> list[str]:
    """The k most frequent tokens across ``corpus`` (cleaned token
    sequences), ties broken lexicographically ascending. Returns the whole
    vocabulary when k exceeds it."""
    if k < 0:
        raise ValidationError(f"stopword count must be >= 0, got {k}")
    counts = Counter(t for tokens in corpus for t in tokens)
    return sorted(counts, key=lambda t: (-counts[t], t))[:k]


def remove_stopwords(tokens: Sequence[str], stopwords: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in stopwords]


def fold_hapax(corpus: Sequence[TokenizedPost]) -> tuple[list[TokenizedPost], frozenset[str]]:
    """Replace every token whose total corpus count is 1 with ``<misc>``.

    Returns the folded corpus and the set of folded surface forms. Expects
    stopwords to have been removed already.
    """
    counts: Counter[str] = Counter()
    for post in corpus:
        counts.update(post.tokens)
    hapax = frozenset(tok for tok, n in counts.items() if n == 1)
    folded = [
        TokenizedPost(
            id=post.id,
            tokens=tuple(MISC if t in hapax else t for t in post.tokens),
            location=post.location,
        )
        for post in corpus
    ]
    return folded, hapax


def count_tables(
    token_lists: Sequence[Sequence[str]], cells: Sequence[int], n_cells: int
) -> EnsembleTables:
    """Count the posts ``token_lists`` (post i in row-major cell
    ``cells[i]``) straight into tables indexed by the training tokens."""
    words = sorted(set().union(*token_lists))
    index = {t: i for i, t in enumerate(words)}
    lens = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    tokens = chain.from_iterable(token_lists)
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, int(lens.sum()))
    cells = np.asarray(cells, dtype=np.int64)
    token_cell = np.repeat(cells, lens)
    left = _pair_starts(lens)
    pair_keys = (ids[left] * (len(words) + 1) + ids[left + 1]) * n_cells + token_cell[left]
    return compile_tables(
        words,
        np.bincount(cells, minlength=n_cells),
        *np.unique(ids * n_cells + token_cell, return_counts=True),
        *np.unique(pair_keys, return_counts=True),
    )


class UndefinedContextError(GeopostError):
    """A language-model context word was never observed in training."""


def discount_for_count(discounts: Discounts, count: int) -> float:
    """The tier discount D(c) of a bigram seen ``count`` times."""
    if count >= 3:
        return discounts.d3
    if count == 2:
        return discounts.d2
    if count == 1:
        return discounts.d1
    return 0.0


class CellLanguageModel:
    """Trained counts, discounts, and probability queries for one cell.

    Immutable after construction; every query method is pure.
    """

    def __init__(self, cell: CellId, counts: CountTables, discounts: Discounts, post_count: int):
        self.cell = cell
        self.counts = counts
        self.discounts = discounts
        self.post_count = post_count

    def continuation_prob(self, w: str) -> float:
        """Fraction of distinct bigram types that ``w`` completes."""
        total = self.counts.total_distinct_bigrams
        if total == 0:
            return 0.0
        return self.counts.distinct_left.get(w, 0) / total

    def backoff_mass(self, v: str) -> float:
        """Probability mass freed by discounting every bigram with left
        context ``v``: d1*|once| + d2*|twice| + d3*|three or more|, over
        c(v). The tier-count form keeps the result independent of table
        iteration order, so trained and reloaded models agree exactly."""
        cv = self.counts.unigram.get(v, 0)
        if cv == 0:
            raise UndefinedContextError(f"context {v!r} unseen in training")
        tiers = [0, 0, 0]
        for count in self.counts.bigram.get(v, {}).values():
            tiers[min(count, 3) - 1] += 1
        d = self.discounts
        return (d.d1 * tiers[0] + d.d2 * tiers[1] + d.d3 * tiers[2]) / cv

    def pair_term(self, v: str, w: str) -> float:
        """The discounted count of (v, w) over c(v), max(c(v, w) -
        D(c(v, w)), 0) / c(v): the first term of P(w | v) for a context
        seen in training."""
        cvw = self.counts.bigram.get(v, {}).get(w, 0)
        return max(cvw - discount_for_count(self.discounts, cvw), 0.0) / self.counts.unigram[v]

    def _bigram_prob_raw(self, v: str, w: str) -> float:
        # Unfloored value; the sum of this over the vocabulary is exactly 1
        # for any context that is never sequence-final.
        pc = self.continuation_prob(w)
        if self.counts.unigram.get(v, 0) == 0:
            return pc
        return self.pair_term(v, w) + self.backoff_mass(v) * pc

    def bigram_prob(self, v: str, w: str) -> float:
        """Smoothed probability of seeing ``w`` after ``v``, floored at
        MIN_PROB so callers can take logs unconditionally."""
        return max(self._bigram_prob_raw(v, w), MIN_PROB)

    def unigram_prob(self, w: str) -> float:
        """c(w) / N, the maximum-likelihood unigram; 0 in a cell without
        tokens."""
        total = self.counts.total_tokens
        if total == 0:
            return 0.0
        return self.counts.unigram.get(w, 0) / total

    def _baseline_prob_raw(self, v: str, w: str, interp: BaselineInterpolation) -> float:
        # Unfloored value of baseline_bigram_prob.
        p_uni = self.unigram_prob(w)
        cv = self.counts.unigram.get(v, 0)
        if cv == 0:
            return p_uni
        p_bi = self.counts.bigram.get(v, {}).get(w, 0) / cv
        return interp.lambda1 * p_bi + interp.lambda2 * p_uni

    def baseline_bigram_prob(self, v: str, w: str, interp: BaselineInterpolation) -> float:
        """Plain interpolation of the MLE bigram with the unigram that
        completes it. An unseen context falls back to the unigram estimate
        alone so the result stays a probability."""
        return max(self._baseline_prob_raw(v, w, interp), MIN_PROB)

    def sequence_log_prob(
        self, tokens: Sequence[str], baseline: Optional[BaselineInterpolation] = None
    ) -> float:
        """Log-probability of a token sequence as the product of its
        consecutive-pair probabilities. Fewer than two tokens is an empty
        product, so the result is 0 (log 1)."""
        lp = 0.0
        for v, w in zip(tokens, tokens[1:]):
            if baseline is not None:
                lp += log(self.baseline_bigram_prob(v, w, baseline))
            else:
                lp += log(self.bigram_prob(v, w))
        return lp


def train_cell(posts: Sequence, cell: CellId) -> CellLanguageModel:
    """Build count tables and discounts from the posts assigned to one cell.

    ``posts`` are TokenizedPost instances (only ``.tokens`` is read). An
    empty post list yields a valid model with empty tables.
    """
    tables = CountTables()
    for post in posts:
        toks = post.tokens
        for t in toks:
            tables.unigram[t] = tables.unigram.get(t, 0) + 1
            tables.total_tokens += 1
        for v, w in zip(toks, toks[1:]):
            row = tables.bigram.setdefault(v, {})
            if w not in row:
                row[w] = 0
                tables.distinct_left[w] = tables.distinct_left.get(w, 0) + 1
                tables.total_distinct_bigrams += 1
            row[w] += 1
    return CellLanguageModel(
        cell=cell,
        counts=tables,
        discounts=compute_discounts(*_counts_of_counts(tables)),
        post_count=len(posts),
    )


def _counts_of_counts(tables: CountTables) -> tuple[int, int, int, int]:
    n = [0, 0, 0, 0]
    for row in tables.bigram.values():
        for count in row.values():
            if count <= 4:
                n[count - 1] += 1
    return n[0], n[1], n[2], n[3]
