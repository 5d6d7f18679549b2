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
block of log-probabilities. It looks up the word-table entries of v and
w in one pass and fills each column only for the half that uses it
(c(v) and gamma(v), p_cont(w)); a floored probability takes a constant
log, and a block with more than ``_DISTINCT_MIN`` live entries takes
one ``math.log`` per distinct value. ``log_likelihood`` scores one post
as its block summed over the pair rows in order; ``log_likelihoods``
scores a batch in fixed-size blocks of pairs, which may split a post,
and scatter-adds each block's rows into the rows of their posts with
``np.add.at``. That adds a post's rows in order too, so the batch rows
equal the one-post results bit for bit.
Training counts word ids, not strings: ``count_tables`` takes the sorted
vocabulary, the posts' word ids laid end to end and the posts' cells,
keys every (word, cell) and (pair, cell) by integer arithmetic, and
counts each kind of key with one ``np.unique``.
The tables are tested against a per-cell reference model,
``CellLanguageModel`` in ``tests/reference.py``, which computes the same
floats in the same order. ``EnsembleTables.cell_model`` rebuilds one
cell's counts and discounts from the tables on demand.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from math import inf, log
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .grid import CellId

# Floor applied to every returned probability so log-space scoring never
# sees zero. Far below anything a trained model can produce.
MIN_PROB = 1e-12
_LOG_MIN_PROB = log(MIN_PROB)

# Most (pair, cell) entries ``log_likelihoods`` holds at once, for a bounded
# peak memory whatever the number of posts scored or their lengths: a block
# is max(_BLOCK // cells, 1) pairs, wherever the posts begin and end.
_BLOCK = 1 << 15

# ``_floored_logs`` logs only the distinct values of a block with more live
# (pair, cell) entries than this. On runs of live entries cut from the
# city-g8 benchmark's batch blocks, np.unique plus one log per distinct
# value broke even with one log per entry at about 512 entries (93 us
# each), saved 22% at 1,024 and 60% at 8,192; at 128 it cost 1.8 times
# as much. Twice the break-even keeps the step where it clearly pays, and
# keeps one-post scoring at g = 8 (at most 704 entries for 12 tokens) on
# the plain path.
_DISTINCT_MIN = 1024

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


@dataclass(frozen=True)
class CellCounts:
    """One cell's counts, discounts and training post count, rebuilt from
    an ensemble's tables; probabilities come from the tables themselves."""

    cell: CellId
    counts: CountTables
    discounts: Discounts
    post_count: int


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
        once, in row-major cell order: the post's block of pair logs with
        its rows added one after another, as the reference adds them. The
        floats and the order they are combined in are the reference's, so
        the results agree bit for bit."""
        if len(tokens) < 2:
            return np.zeros(len(self.post_counts))
        ids = self._ids(tokens)
        logs = self._pair_logs(ids[:-1], ids[1:], baseline)
        # sum(axis=0) adds rows in order, but a single column pairwise; the
        # running sum is in order always, and costs more.
        return logs.sum(axis=0) if logs.shape[1] > 1 else np.add.accumulate(logs)[-1]

    def log_likelihoods(
        self,
        token_lists: Sequence[Sequence[str]],
        baseline: Optional[BaselineInterpolation] = None,
    ) -> np.ndarray:
        """``log_likelihood`` of every post of ``token_lists`` as the rows
        of one (posts, cells) array. The batch's pairs are scored in blocks
        of ``max(_BLOCK // cells, 1)`` pairs, regardless of where posts
        begin and end, and ``np.add.at`` adds each block's rows into the
        rows of their posts. It adds repeated indices in index order, the
        order ``log_likelihood`` adds a post's rows in, so the rows agree
        bit for bit."""
        n_cells = len(self.post_counts)
        out = np.zeros((len(token_lists), n_cells))
        ids = self._ids([t for tokens in token_lists for t in tokens])
        lens = np.array([len(tokens) for tokens in token_lists], dtype=np.int64)
        left = _pair_starts(lens)
        v, w = ids[left], ids[left + 1]
        post_of_pair = np.repeat(np.arange(len(token_lists)), np.maximum(lens - 1, 0))
        per_block = max(_BLOCK // n_cells, 1)
        for lo in range(0, len(left), per_block):
            block = slice(lo, lo + per_block)
            np.add.at(out, post_of_pair[block], self._pair_logs(v[block], w[block], baseline))
        return out

    def _ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Word id of every token; ``len(vocab)`` outside the vocabulary."""
        unknown = len(self.vocab)
        get = self.index.get
        return np.fromiter((get(t, unknown) for t in tokens), np.int64, len(tokens))

    def _by_cell(
        self,
        v: np.ndarray,
        w: np.ndarray,
        v_columns: Sequence[np.ndarray],
        w_columns: Sequence[np.ndarray],
    ) -> list[np.ndarray]:
        """A (len(v), cells) array for each column of ``v_columns``, holding
        its entry of word v[i] in cell j at [i, j], then one for each column
        of ``w_columns``, the same for w[i]; 0 where the word has no entry.
        One span lookup covers v and w; each column fills only its half."""
        n, n_cells = len(v), len(self.post_counts)
        ids = np.concatenate((v, w))
        rows, ent = _spans(self.word_ptr[ids], self.word_ptr[ids + 1])
        flat = rows * n_cells + self.word_cell[ent]
        # rows ascend, so the v entries come first.
        half = int(np.searchsorted(rows, n))
        out = []
        for columns, at, src in (
            (v_columns, flat[:half], ent[:half]),
            (w_columns, flat[half:] - n * n_cells, ent[half:]),
        ):
            for column in columns:
                dense = np.zeros((n, n_cells))
                dense.put(at, column[src])
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
        if baseline is None:
            count, gamma, pcont = self._by_cell(
                v, w, (self.word_count, self.word_gamma), (self.word_pcont,)
            )
            pair[pair_rows, pair_cols] = self.pair_num[pair_ent]
            seen = count > 0
            p = np.where(seen, pair / np.where(seen, count, 1.0) + gamma * pcont, pcont)
        else:
            count, count_w = self._by_cell(v, w, (self.word_count,), (self.word_count,))
            pair[pair_rows, pair_cols] = self.pair_count[pair_ent]
            seen = count > 0
            p_uni = count_w / np.maximum(self.total_tokens, 1)
            p_bi = pair / np.where(seen, count, 1.0)
            p = np.where(seen, baseline.lambda1 * p_bi + baseline.lambda2 * p_uni, p_uni)
        return _floored_logs(p)

    def cell_model(self, i: int, cell: CellId) -> CellCounts:
        """The counts and discounts of cell i, rebuilt from the tables."""
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
        return CellCounts(cell, counts, self.discounts[i], int(self.post_counts[i]))

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
    """Read-only ``{cell: CellCounts}`` view of an ensemble's tables;
    each cell's counts are rebuilt when it is looked up."""

    def __init__(self, tables: EnsembleTables, cells: Sequence[CellId]):
        self._tables = tables
        self._index = {cell: i for i, cell in enumerate(cells)}

    def __getitem__(self, cell: CellId) -> CellCounts:
        return self._tables.cell_model(self._index[cell], cell)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, entry) of every entry in the ranges lo[row]:hi[row]."""
    lens = hi - lo
    rows = np.repeat(np.arange(len(lo)), lens)
    ent = np.arange(len(rows)) + np.repeat(lo - np.cumsum(lens) + lens, lens)
    return rows, ent


def _floored_logs(p: np.ndarray) -> np.ndarray:
    """log max(p, MIN_PROB) of every entry of ``p``.

    Floored entries (64.5% of the lookups on the city-g8 benchmark queries,
    and every lookup of a cell without posts) all get log(MIN_PROB); only
    the others pay for a log. math.log, not np.log: numpy's SIMD log can
    differ from libm in the last place, and the reference sums math.log
    values. A large block repeats its values (15,810 distinct of 96,206
    live entries in the 20 blocks of the city-g8 queries), so there each
    distinct value is logged once; equal inputs give equal logs, the same
    bits."""
    logs = np.full(p.shape, _LOG_MIN_PROB)
    live = p > MIN_PROB
    values, back = p[live], None
    if len(values) > _DISTINCT_MIN:
        values, back = np.unique(values, return_inverse=True)
    values = np.fromiter(map(log, values.tolist()), np.float64, len(values))
    logs[live] = values if back is None else values[back]
    return logs


def _pair_starts(lens: np.ndarray) -> np.ndarray:
    """Position of the first token of every pair in the posts of lengths
    ``lens`` laid end to end: a token starts a pair unless it ends its post."""
    starts = np.ones(int(lens.sum()), dtype=bool)
    starts[np.cumsum(lens)[lens > 0] - 1] = False
    return np.flatnonzero(starts)


def _word_entries(word_keys: np.ndarray, n_keys: int, *queries: np.ndarray) -> list[np.ndarray]:
    """The position in ``word_keys`` of every key of each query array, all
    of which must be there. Keys and queries lie in [0, ``n_keys``).

    The positions are read from a dense table of ``n_keys`` slots, one per
    word key, built for this call. Its dtype is the narrowest unsigned one
    that holds ``len(word_keys)``, which a slot without an entry holds as a
    sentinel. The positions keep that dtype, so they are indices only: cast
    them before any arithmetic."""
    n = len(word_keys)
    dtype = np.min_scalar_type(n)
    slot = np.full(n_keys, n, dtype=dtype)
    slot[word_keys] = np.arange(n, dtype=dtype)
    entries = [slot[q] for q in queries]
    if any(np.any(entry == n) for entry in entries):
        raise ValueError("a bigram token is missing from its cell's unigram counts")
    return entries


def _backoff_weights(entry, word_cell, word_count, tier, tier_discount):
    """gamma(v) = (d1 * |once| + d2 * |twice| + d3 * |three or more|) / c(v)
    for every word entry, from the context word entry of every pair."""
    t1, t2, t3 = (np.bincount(entry[tier == k], minlength=len(word_count)) for k in (1, 2, 3))
    d1, d2, d3 = (tier_discount[word_cell, k] for k in (1, 2, 3))
    return (d1 * t1 + d2 * t2 + d3 * t3) / word_count


def _continuation_probs(entry, word_cell, distinct):
    """p_cont(w): the share of a cell's distinct bigrams that w completes,
    from the completion word entry of every pair; 0 in a cell without
    bigrams."""
    return np.bincount(entry, minlength=len(word_cell)) / np.maximum(distinct[word_cell], 1)


def count_tables(
    vocab: Sequence[str], token_ids: np.ndarray, lens: np.ndarray, cells: np.ndarray, n_cells: int
) -> EnsembleTables:
    """Count posts straight into tables: post i holds the ``lens[i]`` word
    ids that follow the earlier posts' in ``token_ids``, ids into the
    sorted ``vocab``, and lies in row-major cell ``cells[i]``."""
    ids = np.asarray(token_ids, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    token_cell = np.repeat(cells, lens)
    left = _pair_starts(lens)
    pair_keys = (ids[left] * (len(vocab) + 1) + ids[left + 1]) * n_cells + token_cell[left]
    return compile_tables(
        vocab,
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
    if a post count is below 0 or another count below 1, if the post
    counts are all zero (no cell could have a prior), if a key repeats
    or is out of order, if a key names a word id outside the vocabulary,
    if a pair's v or w has no word entry in the pair's cell, or if a
    vocabulary word has no entry at all. Every formula mirrors the
    reference ``CellLanguageModel`` of ``tests/reference.py`` operation for
    operation.

    The word entry of each pair's context (v, cell) and completion
    (w, cell) is read from a dense table with one slot per word key,
    ``len(vocab) * n_cells`` slots in all, in linear passes and without
    a search. The table lives only during the call. It takes at most 2
    bytes a slot while there are fewer than 65,536 word entries, 4 above:
    V * g**2 slots, 1.4 MB for the 10,667 words and 64 cells of the
    city-g8 benchmark model, about 90 MB at V = 100,000 and g = 15.
    """
    post_counts = np.asarray(post_counts, dtype=np.int64)
    if post_counts.min(initial=0) < 0:
        raise ValueError(f"post_counts must be >= 0, found {post_counts.min()}")
    if not post_counts.any():
        raise ValueError("post_counts are all zero: no training posts")
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
    # The word entry of each pair's context (v, cell) and completion
    # (w, cell). Every key is in range by now, so every slot index is too.
    context, completion = _word_entries(
        word_keys, len(vocab) * n_cells, v * n_cells + pair_cell, w * n_cells + pair_cell
    )
    word_gamma = _backoff_weights(context, word_cell, word_count, tier, tier_discount)
    distinct = np.bincount(pair_cell, minlength=n_cells)
    word_pcont = _continuation_probs(completion, word_cell, distinct)
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
