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
stored rather than recomputed per lookup (the ARPA/KenLM layout). One
core turns the (v, w) word ids of a set of pairs into a (pairs, cells)
block of log-probabilities. ``log_likelihood`` scores one post as its
block summed over the pair rows; ``log_likelihoods`` scores a batch of
posts a bounded block at a time and sums each post's rows in the same
order, so its rows equal the one-post results bit for bit.
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
_LOG_MIN_PROB = log(MIN_PROB)

# Most (pair, cell) entries ``log_likelihoods`` holds at once, for a bounded
# peak memory whatever the number of posts scored.
_BLOCK = 1 << 15

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
    """Weights for the plain bigram/unigram interpolation baseline: the
    bigram weight ``lambda1`` and the unigram weight 1 - ``lambda1``."""

    lambda1: float

    def __post_init__(self):
        if isinstance(self.lambda1, bool) or not 0.0 <= self.lambda1 <= 1.0:
            raise ValidationError("interpolation weight lambda1 must lie in [0, 1]")

    @property
    def lambda2(self) -> float:
        return 1.0 - self.lambda1


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
        once, in row-major cell order: the post's block of pair logs summed
        over axis 0, which adds the pair rows one after another, as the
        reference does. The floats and the order they are combined in are
        the reference's, so with two or more cells the results agree bit
        for bit."""
        if len(tokens) < 2:
            return np.zeros(len(self.post_counts))
        ids = self._ids(tokens)
        return self._pair_logs(ids[:-1], ids[1:], baseline).sum(axis=0)

    def log_likelihoods(
        self,
        token_lists: Sequence[Sequence[str]],
        baseline: Optional[BaselineInterpolation] = None,
    ) -> np.ndarray:
        """``log_likelihood`` of every post of ``token_lists`` as the rows
        of one (posts, cells) array. The pair logs are built for a block of
        posts at a time, with at most ``_BLOCK`` (pair, cell) entries per
        block unless one post alone has more, and each post's rows are
        added in the order ``log_likelihood`` adds them, so the rows agree
        bit for bit. (With a single cell, numpy's ``sum(axis=0)`` adds long
        columns pairwise, so there they can differ in the last place; every
        posterior is 1 then anyway.)"""
        n_cells = len(self.post_counts)
        out = np.zeros((len(token_lists), n_cells))
        ids = self._ids([t for tokens in token_lists for t in tokens])
        lens = np.array([len(tokens) for tokens in token_lists], dtype=np.int64)
        n_pairs = np.maximum(lens - 1, 0)
        left = _pair_starts(lens)
        v, w = ids[left], ids[left + 1]
        pair_end = np.cumsum(n_pairs)
        first = pair_end - n_pairs
        per_block = max(_BLOCK // n_cells, 1)
        lo = 0
        while lo < len(token_lists):
            hi = max(int(np.searchsorted(pair_end, first[lo] + per_block, "right")), lo + 1)
            r0, r1 = first[lo], pair_end[hi - 1]
            if r1 > r0:
                logs = self._pair_logs(v[r0:r1], w[r0:r1], baseline)
                out[lo:hi] = _row_sums(logs, first[lo:hi] - r0, n_pairs[lo:hi])
            lo = hi
        return out

    def _ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Word id of every token; ``len(vocab)`` outside the vocabulary."""
        unknown = len(self.vocab)
        get = self.index.get
        return np.fromiter((get(t, unknown) for t in tokens), np.int64, len(tokens))

    def _by_cell(self, ids: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
        """For each word-table column, a (len(ids), cells) array holding the
        column's entry of word ids[i] in cell j at [i, j], and 0 where the
        word has no entry."""
        rows, ent = _spans(self.word_ptr[ids], self.word_ptr[ids + 1])
        cols = self.word_cell[ent]
        out = []
        for column in columns:
            dense = np.zeros((len(ids), len(self.post_counts)))
            dense[rows, cols] = column[ent]
            out.append(dense)
        return out

    def _pair_logs(
        self, v: np.ndarray, w: np.ndarray, baseline: Optional[BaselineInterpolation]
    ) -> np.ndarray:
        """log max(P(w[i] | v[i]), MIN_PROB) in every cell, as a (pairs,
        cells) array: the one scoring core behind ``log_likelihood`` and
        ``log_likelihoods``."""
        keys = v * (len(self.vocab) + 1) + w
        pair_rows, pair_ent = _spans(
            np.searchsorted(self.pair_key, keys, "left"),
            np.searchsorted(self.pair_key, keys, "right"),
        )
        pair_cols = self.pair_cell[pair_ent]
        pair = np.zeros((len(keys), len(self.post_counts)))
        # One lookup for both words of every pair: rows :n are the v's, n: the w's.
        n, ids = len(keys), np.concatenate((v, w))
        if baseline is None:
            count, gamma, pcont = self._by_cell(
                ids, self.word_count, self.word_gamma, self.word_pcont
            )
            count, gamma, pcont = count[:n], gamma[:n], pcont[n:]
            pair[pair_rows, pair_cols] = self.pair_num[pair_ent]
            seen = count > 0
            p = np.where(seen, pair / np.where(seen, count, 1.0) + gamma * pcont, pcont)
        else:
            (count,) = self._by_cell(ids, self.word_count)
            count, count_w = count[:n], count[n:]
            pair[pair_rows, pair_cols] = self.pair_count[pair_ent]
            seen = count > 0
            p_uni = count_w / np.maximum(self.total_tokens, 1)
            p_bi = pair / np.where(seen, count, 1.0)
            p = np.where(seen, baseline.lambda1 * p_bi + baseline.lambda2 * p_uni, p_uni)
        # Floored entries (a quarter of the lookups on a planted corpus, and
        # every lookup of a cell without posts) all get log(MIN_PROB); only
        # the others pay for a log. math.log, not np.log: numpy's SIMD log
        # can differ from libm in the last place, and the reference sums
        # math.log values.
        logs = np.full(p.shape, _LOG_MIN_PROB)
        live = p > MIN_PROB
        values = p[live]
        logs[live] = np.fromiter(map(log, values.tolist()), np.float64, len(values))
        return logs

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

    def count_arrays(self) -> dict[str, np.ndarray]:
        """The keyed integer counts: ``compile_tables(self.vocab,
        **self.count_arrays())`` rebuilds these tables exactly."""
        n_cells = len(self.post_counts)
        words = np.repeat(np.arange(len(self.vocab)), np.diff(self.word_ptr)[:-1])
        return {
            "post_counts": self.post_counts,
            "word_keys": words * n_cells + self.word_cell,
            "word_count": self.word_count,
            "pair_keys": self.pair_key * n_cells + self.pair_cell,
            "pair_count": self.pair_count,
        }


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


def _pair_starts(lens: np.ndarray) -> np.ndarray:
    """Position of the first token of every pair in the posts of lengths
    ``lens`` laid end to end: a token starts a pair unless it ends its post."""
    starts = np.ones(int(lens.sum()), dtype=bool)
    starts[np.cumsum(lens)[lens > 0] - 1] = False
    return np.flatnonzero(starts)


def _row_sums(logs: np.ndarray, first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per post i, the sum of the rows ``logs[first[i] : first[i] + lens[i]]``,
    added in order k = 0, 1, ... exactly as ``sum(axis=0)`` adds the rows of
    one post's block (``np.add.reduceat`` does not: it can differ in the
    last place)."""
    out = np.zeros((len(first), logs.shape[1]))
    for k in range(int(lens.max(initial=0))):
        live = np.flatnonzero(lens > k)
        out[live] += logs[first[live] + k]
    return out


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
    left = _pair_starts(lens)
    pair_keys = (ids[left] * (len(words) + 1) + ids[left + 1]) * n_cells + token_cell[left]
    return compile_tables(
        words,
        np.bincount(cells, minlength=n_cells),
        *np.unique(ids * n_cells + token_cell, return_counts=True),
        *np.unique(pair_keys, return_counts=True),
    )


def compile_tables(
    vocab: Sequence[str],
    post_counts: Sequence[int],
    word_keys: np.ndarray,
    word_count: np.ndarray,
    pair_keys: np.ndarray,
    pair_count: np.ndarray,
) -> EnsembleTables:
    """Derive discounts, back-off weights and continuation probabilities
    from integer counts; ``EnsembleTables.count_arrays`` is the inverse.
    This module alone knows how the counts are keyed.

    ``vocab`` is the sorted vocabulary (the caller checks its order),
    numbered 0, 1, ..., and the cells of ``post_counts`` are numbered 0,
    1, ... too. Word entries are keyed ``word * n_cells + cell`` and pair
    entries ``(v * (len(vocab) + 1) + w) * n_cells + cell``, each in
    increasing key order, and each key is decoded once. Raises ValueError
    if a post count is below 0 or another count below 1, if a key repeats
    or is out of order, if a key names a word id outside the vocabulary,
    if a pair's v or w has no word entry in the pair's cell, or if a
    vocabulary word has no entry at all. Every formula mirrors
    ``CellLanguageModel`` operation for operation.
    """
    post_counts = np.asarray(post_counts, dtype=np.int64)
    if post_counts.min(initial=0) < 0:
        raise ValueError(f"post_counts must be >= 0, found {post_counts.min()}")
    for name, counts in (("word_count", word_count), ("pair_count", pair_count)):
        if counts.min(initial=1) < 1:
            raise ValueError(f"{name} must be >= 1, found {counts.min()}")
    if np.any(np.diff(word_keys) <= 0):
        raise ValueError("unigram rows repeat or are out of order")
    if np.any(np.diff(pair_keys) <= 0):
        raise ValueError("bigram rows repeat or are out of order")
    vocab = tuple(vocab)
    n_words = len(vocab) + 1
    n_cells = len(post_counts)
    word, word_cell = np.divmod(word_keys, n_cells)
    pair_key, pair_cell = np.divmod(pair_keys, n_cells)
    v, w = np.divmod(pair_key, n_words)
    # The keys increase, so word and v do too; w is below n_words.
    if (len(word) and (word[0] < 0 or word[-1] >= len(vocab))) or (
        len(v) and (v[0] < 0 or v[-1] >= len(vocab) or w.max() >= len(vocab))
    ):
        raise ValueError("a key names a word id outside the vocabulary")

    counts_of_counts = (
        np.bincount(pair_cell[pair_count == k], minlength=n_cells).tolist() for k in (1, 2, 3, 4)
    )
    discounts = tuple(compute_discounts(*n) for n in zip(*counts_of_counts))
    tier_discount = np.array([[0.0, d.d1, d.d2, d.d3] for d in discounts]).reshape(n_cells, 4)
    tier = np.minimum(pair_count, 3)
    pair_num = np.maximum(pair_count - tier_discount[pair_cell, tier], 0.0)
    # Each pair's context (v, cell) and completion (w, cell) as word keys.
    word_gamma = _backoff_weights(
        word_keys, word_cell, word_count, v * n_cells + pair_cell, tier, tier_discount
    )
    distinct = np.bincount(pair_cell, minlength=n_cells)
    word_pcont = _continuation_probs(word_keys, word_cell, w * n_cells + pair_cell, distinct)
    entries = np.bincount(word, minlength=n_words)
    if np.count_nonzero(entries) != len(vocab):
        raise ValueError("the vocabulary lists tokens that word_keys never counts")

    total = int(post_counts.sum())
    return EnsembleTables(
        vocab=vocab,
        index=dict(zip(vocab, range(len(vocab)))),
        word_ptr=np.concatenate(([0], np.cumsum(entries))),
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
