"""Per-cell bigram language models with Modified Kneser-Ney smoothing.

Counts are collected from consecutive token pairs within each post; no
boundary markers are inserted and pairs never cross posts. Smoothing
subtracts a tiered discount (d1 for bigrams seen once, d2 for twice, d3
for three or more times) and redistributes the freed mass through the
continuation probability of the completing word. A simple
unigram-interpolated estimate is available as a baseline.

An ensemble keeps the models of all its cells in one ``EnsembleTables``:
flat arrays over a global word index, with the back-off weight of every
(context, cell) and the discounted numerator of every seen (pair, cell)
stored rather than recomputed per lookup (the ARPA/KenLM layout). Scoring
a post then gathers its pairs into one (pairs, cells) block.
``CellLanguageModel`` and ``train_cell`` are the per-cell reference the
tables are tested against, and ``EnsembleTables.cell_model`` rebuilds one
cell's model from the tables on demand.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from math import inf, log
from typing import Optional, Sequence

import numpy as np

from .errors import UndefinedContextError, ValidationError
from .grid import CellId

# Floor applied to every returned probability so log-space scoring never
# sees zero. Far below anything a trained model can produce.
MIN_PROB = 1e-12

# Conventional absolute-discount default used when a discount formula has
# a zero denominator.
FALLBACK_DISCOUNT = 0.75


@dataclass
class CountTables:
    """Raw evidence for one cell.

    ``bigram`` maps left word -> {right word -> count}. ``distinct_left``
    maps a word to the number of distinct bigram types it completes;
    ``total_distinct_bigrams`` is the number of distinct (v, w) pairs.
    """

    unigram: dict[str, int] = field(default_factory=dict)
    bigram: dict[str, dict[str, int]] = field(default_factory=dict)
    distinct_left: dict[str, int] = field(default_factory=dict)
    total_tokens: int = 0
    total_distinct_bigrams: int = 0


@dataclass(frozen=True)
class Discounts:
    """Tiered discounts with the counts-of-counts they came from.

    n_i is the number of distinct bigrams occurring exactly i times.
    """

    d1: float
    d2: float
    d3: float
    n1: int = 0
    n2: int = 0
    n3: int = 0
    n4: int = 0

    def for_count(self, count: int) -> float:
        if count >= 3:
            return self.d3
        if count == 2:
            return self.d2
        if count == 1:
            return self.d1
        return 0.0


@dataclass(frozen=True)
class BaselineInterpolation:
    """Weights for the plain bigram/unigram interpolation baseline."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not 0.0 <= self.lambda1 <= 1.0 or not 0.0 <= self.lambda2 <= 1.0:
            raise ValidationError("interpolation weights must lie in [0, 1]")
        if abs(self.lambda1 + self.lambda2 - 1.0) > 1e-9:
            raise ValidationError("interpolation weights must sum to 1")


def compute_discounts(n1: int, n2: int, n3: int, n4: int) -> Discounts:
    """Closed-form discounts from counts-of-counts.

    d1 = 1 - 2*n2/(n1 + 2*n2), d2 = 2 - 3*n3*n1/(n2*(n1 + 2*n2)),
    d3 = 3 - 4*n4*n1/(n3*(n1 + 2*n2)); each clamped to [0, i]. A zero
    denominator makes that discount fall back to 0.75.
    """
    base = n1 + 2 * n2
    if base > 0:
        d1 = min(max(1.0 - 2.0 * n2 / base, 0.0), 1.0)
    else:
        d1 = FALLBACK_DISCOUNT
    if n2 * base > 0:
        d2 = min(max(2.0 - 3.0 * n3 * n1 / (n2 * base), 0.0), 2.0)
    else:
        d2 = FALLBACK_DISCOUNT
    if n3 * base > 0:
        d3 = min(max(3.0 - 4.0 * n4 * n1 / (n3 * base), 0.0), 3.0)
    else:
        d3 = FALLBACK_DISCOUNT
    return Discounts(d1, d2, d3, n1, n2, n3, n4)


class CellLanguageModel:
    """Trained counts, discounts, and probability queries for one cell.

    Immutable after construction; every query method is pure.
    """

    def __init__(self, cell: CellId, counts: CountTables, discounts: Discounts, post_count: int):
        self.cell = cell
        self.counts = counts
        self.discounts = discounts
        self.post_count = post_count

    @property
    def vocab(self) -> set[str]:
        return set(self.counts.unigram)

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

    def _bigram_prob_raw(self, v: str, w: str) -> float:
        # Unfloored value; the sum of this over the vocabulary is exactly 1
        # for any context that is never sequence-final.
        cv = self.counts.unigram.get(v, 0)
        pc = self.continuation_prob(w)
        if cv == 0:
            return pc
        cvw = self.counts.bigram.get(v, {}).get(w, 0)
        discounted = max(cvw - self.discounts.for_count(cvw), 0.0) / cv
        return discounted + self.backoff_mass(v) * pc

    def bigram_prob(self, v: str, w: str) -> float:
        """Smoothed probability of seeing ``w`` after ``v``, floored at
        MIN_PROB so callers can take logs unconditionally."""
        return max(self._bigram_prob_raw(v, w), MIN_PROB)

    def baseline_bigram_prob(self, v: str, w: str, interp: BaselineInterpolation) -> float:
        """Plain interpolation of the MLE bigram with the unigram that
        completes it. An unseen context falls back to the unigram estimate
        alone so the result stays a probability."""
        total = self.counts.total_tokens
        if total == 0:
            return MIN_PROB
        p_uni = self.counts.unigram.get(w, 0) / total
        cv = self.counts.unigram.get(v, 0)
        if cv == 0:
            return max(p_uni, MIN_PROB)
        p_bi = self.counts.bigram.get(v, {}).get(w, 0) / cv
        return max(interp.lambda1 * p_bi + interp.lambda2 * p_uni, MIN_PROB)

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


@dataclass(frozen=True, eq=False)
class EnsembleTables:
    """The count-derived tables of every cell of an ensemble.

    Words are numbered in sorted order; id ``len(vocab)`` stands for any
    word outside the vocabulary and has no entries. Cells are numbered
    row-major. ``word_ptr[t]:word_ptr[t + 1]`` spans the entries of word t,
    one per cell it occurs in (ascending cell), holding c(t), the back-off
    weight gamma(t) of t as a context, and its continuation probability
    p_cont(t) as a completion. The pair arrays hold every seen (v, w) of
    every cell, sorted by ``v * (len(vocab) + 1) + w`` and then cell, with
    c(v, w) and the discounted numerator max(c(v, w) - D(c(v, w)), 0).
    """

    vocab: tuple[str, ...]
    index: dict[str, int]
    word_ptr: np.ndarray
    word_cell: np.ndarray
    word_count: np.ndarray
    word_gamma: np.ndarray
    word_pcont: np.ndarray
    pair_key: np.ndarray
    pair_cell: np.ndarray
    pair_count: np.ndarray
    pair_num: np.ndarray
    post_counts: np.ndarray
    total_tokens: np.ndarray
    log_prior: np.ndarray
    discounts: tuple[Discounts, ...]

    def log_likelihood(
        self, tokens: Sequence[str], baseline: Optional[BaselineInterpolation] = None
    ) -> np.ndarray:
        """``sequence_log_prob`` of ``tokens`` under every cell's model at
        once, in row-major cell order. The floats and the order they are
        combined in are the reference's, so the results agree bit for bit."""
        n_cells = len(self.post_counts)
        if len(tokens) < 2:
            return np.zeros(n_cells)
        unknown = len(self.vocab)
        get = self.index.get
        ids = np.array([get(t, unknown) for t in tokens], dtype=np.int64)
        rows, ent = _spans(self.word_ptr[ids], self.word_ptr[ids + 1])
        cols = self.word_cell[ent]
        count = np.zeros((len(ids), n_cells))
        count[rows, cols] = self.word_count[ent]
        seen = count[:-1] > 0
        cv = np.where(seen, count[:-1], 1.0)

        keys = ids[:-1] * (unknown + 1) + ids[1:]
        pair_rows, pair_ent = _spans(
            np.searchsorted(self.pair_key, keys, "left"),
            np.searchsorted(self.pair_key, keys, "right"),
        )
        pair_cols = self.pair_cell[pair_ent]
        pair = np.zeros_like(cv)
        if baseline is None:
            pair[pair_rows, pair_cols] = self.pair_num[pair_ent]
            gamma = np.zeros_like(count)
            gamma[rows, cols] = self.word_gamma[ent]
            pcont = np.zeros_like(count)
            pcont[rows, cols] = self.word_pcont[ent]
            p = np.where(seen, pair / cv + gamma[:-1] * pcont[1:], pcont[1:])
        else:
            pair[pair_rows, pair_cols] = self.pair_count[pair_ent]
            p_uni = count[1:] / np.maximum(self.total_tokens, 1)
            p = np.where(seen, baseline.lambda1 * (pair / cv) + baseline.lambda2 * p_uni, p_uni)
        p = np.maximum(p, MIN_PROB)
        # math.log, not np.log: numpy's SIMD log can differ from libm in the
        # last place, and the reference sums math.log values. Reducing over
        # axis 0 adds the pair rows one after another, as the reference does.
        logs = np.fromiter(map(log, p.ravel().tolist()), np.float64, p.size)
        return logs.reshape(p.shape).sum(axis=0)

    def cell_model(self, i: int, cell: CellId) -> CellLanguageModel:
        """The reference model of cell i, rebuilt from the tables."""
        vocab = self.vocab
        ent = np.flatnonzero(self.word_cell == i)
        words = np.searchsorted(self.word_ptr, ent, "right") - 1
        counts = CountTables(
            unigram={vocab[t]: n for t, n in zip(words.tolist(), self.word_count[ent].tolist())},
            total_tokens=int(self.total_tokens[i]),
        )
        ent = np.flatnonzero(self.pair_cell == i)
        v, w = np.divmod(self.pair_key[ent], len(vocab) + 1)
        for a, b, n in zip(v.tolist(), w.tolist(), self.pair_count[ent].tolist()):
            counts.bigram.setdefault(vocab[a], {})[vocab[b]] = n
            counts.distinct_left[vocab[b]] = counts.distinct_left.get(vocab[b], 0) + 1
        counts.total_distinct_bigrams = len(ent)
        return CellLanguageModel(cell, counts, self.discounts[i], int(self.post_counts[i]))


class CellModels(Mapping):
    """Read-only ``{cell: CellLanguageModel}`` view of an ensemble's
    tables; each model is rebuilt when it is looked up."""

    def __init__(self, tables: EnsembleTables, cells: Sequence[CellId]):
        self._tables = tables
        self._index = {cell: i for i, cell in enumerate(cells)}

    def __getitem__(self, cell: CellId) -> CellLanguageModel:
        return self._tables.cell_model(self._index[cell], cell)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, entry) of every entry in the ranges lo[row]:hi[row]."""
    lens = hi - lo
    rows = np.repeat(np.arange(len(lo)), lens)
    ent = np.arange(lens.sum()) + np.repeat(lo - np.cumsum(lens) + lens, lens)
    return rows, ent


def _entry_of(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in the sorted ``keys``; all must be there."""
    pos = np.searchsorted(keys, queries)
    if np.any(pos == len(keys)) or np.any(keys[np.minimum(pos, len(keys) - 1)] != queries):
        raise ValueError("a bigram token is missing from its cell's unigram counts")
    return pos


def _backoff_weights(word_keys, word_cell, word_count, contexts, tier, tier_discount):
    """gamma(v) = (d1 * |once| + d2 * |twice| + d3 * |three or more|) / c(v)
    for every word entry, from the word-table key (v, cell) of every pair."""
    entry = _entry_of(word_keys, contexts)
    t1, t2, t3 = (np.bincount(entry[tier == k], minlength=len(word_keys)) for k in (1, 2, 3))
    d1, d2, d3 = (tier_discount[word_cell, k] for k in (1, 2, 3))
    return (d1 * t1 + d2 * t2 + d3 * t3) / word_count


def _continuation_probs(word_keys, word_cell, completions, distinct):
    """p_cont(w): the share of a cell's distinct bigrams that w completes,
    from the word-table key (w, cell) of every pair; 0 in a cell without
    bigrams."""
    entry = _entry_of(word_keys, completions)
    return np.bincount(entry, minlength=len(word_keys)) / np.maximum(distinct[word_cell], 1)


def count_tables(
    token_lists: Sequence[Sequence[str]], cells: Sequence[int], n_cells: int
) -> EnsembleTables:
    """Count the posts ``token_lists`` (post i in row-major cell
    ``cells[i]``) straight into tables indexed by the training tokens."""
    words = sorted(set().union(*token_lists))
    index = {t: i for i, t in enumerate(words)}
    lens = np.array([len(toks) for toks in token_lists], dtype=np.int64)
    ids = np.array([index[t] for toks in token_lists for t in toks], dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    token_cell = np.repeat(cells, lens)
    # A token starts a pair unless it ends its post.
    starts = np.ones(len(ids), dtype=bool)
    starts[np.cumsum(lens)[lens > 0] - 1] = False
    left = np.flatnonzero(starts)
    pair_keys = (ids[left] * (len(words) + 1) + ids[left + 1]) * n_cells + token_cell[left]
    return compile_tables(
        index,
        np.bincount(cells, minlength=n_cells),
        *np.unique(ids * n_cells + token_cell, return_counts=True),
        *np.unique(pair_keys, return_counts=True),
    )


def compile_tables(
    index: dict[str, int],
    post_counts: Sequence[int],
    word_keys: np.ndarray,
    word_count: np.ndarray,
    pair_keys: np.ndarray,
    pair_count: np.ndarray,
) -> EnsembleTables:
    """Derive discounts, back-off weights and continuation probabilities
    from integer counts >= 1.

    ``index`` numbers the sorted vocabulary 0, 1, ..., and the cells of
    ``post_counts`` are numbered 0, 1, ... too. Word entries are keyed
    ``word * n_cells + cell`` and pair entries ``(v * (len(index) + 1) + w)
    * n_cells + cell``, each in increasing key order. Raises ValueError if
    a key repeats or is out of order, or if a pair's v or w has no word
    entry in the pair's cell. Every formula mirrors ``CellLanguageModel``
    operation for operation.
    """
    if np.any(np.diff(word_keys) <= 0):
        raise ValueError("unigram rows repeat or are out of order")
    if np.any(np.diff(pair_keys) <= 0):
        raise ValueError("bigram rows repeat or are out of order")
    vocab = tuple(index)
    n_words = len(vocab) + 1
    post_counts = np.asarray(post_counts, dtype=np.int64)
    n_cells = len(post_counts)
    word, word_cell = np.divmod(word_keys, n_cells)
    pair_key, pair_cell = np.divmod(pair_keys, n_cells)

    counts_of_counts = (
        np.bincount(pair_cell[pair_count == k], minlength=n_cells).tolist() for k in (1, 2, 3, 4)
    )
    discounts = tuple(compute_discounts(*n) for n in zip(*counts_of_counts))
    tier_discount = np.array([[0.0, d.d1, d.d2, d.d3] for d in discounts]).reshape(n_cells, 4)
    tier = np.minimum(pair_count, 3)
    pair_num = np.maximum(pair_count - tier_discount[pair_cell, tier], 0.0)
    # Each pair's context (v, cell) and completion (w, cell) as word keys.
    word_gamma = _backoff_weights(
        word_keys, word_cell, word_count, pair_key // n_words * n_cells + pair_cell, tier,
        tier_discount,
    )
    distinct = np.bincount(pair_cell, minlength=n_cells)
    word_pcont = _continuation_probs(
        word_keys, word_cell, pair_key % n_words * n_cells + pair_cell, distinct
    )

    total = int(post_counts.sum())
    return EnsembleTables(
        vocab=vocab,
        index=index,
        word_ptr=np.concatenate(([0], np.cumsum(np.bincount(word, minlength=n_words)))),
        word_cell=word_cell,
        word_count=word_count,
        word_gamma=word_gamma,
        word_pcont=word_pcont,
        pair_key=pair_key,
        pair_cell=pair_cell,
        pair_count=pair_count,
        pair_num=pair_num,
        post_counts=post_counts,
        total_tokens=np.bincount(word_cell, word_count, n_cells).astype(np.int64),
        log_prior=np.array([log(n / total) if n > 0 else -inf for n in post_counts.tolist()]),
        discounts=discounts,
    )
