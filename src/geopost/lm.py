"""Per-cell bigram language models with Modified Kneser-Ney smoothing.

Counts are collected from consecutive token pairs within each post; no
boundary markers are inserted and pairs never cross posts. Smoothing
subtracts a tiered discount (d1 for bigrams seen once, d2 for twice, d3
for three or more times) and redistributes the freed mass through the
continuation probability of the completing word. A plain bigram/unigram
interpolation, with fixed weights, is the baseline.

An ensemble keeps the models of all its cells in one ``EnsembleTables``:
flat arrays over a global word index, with the back-off weight of every
(context, cell), the continuation probability of every (word, cell) and
its log, and the pair term (discounted numerator over c(v)) of every seen
(pair, cell) stored rather than recomputed per lookup (the ARPA/KenLM
layout). Both models have the shape P = pair term + gamma(v) * p_cont(w)
where v has an entry, and p_cont(w) elsewhere, so the baseline is a
second set of those columns, ``EnsembleTables.interpolated``: pair term
lambda1 * c(v, w) / c(v), gamma = lambda2 and p_cont = c(w) / N. One
core, ``_pair_logs``, turns the (v, w) word ids of a set of pairs into a
(pairs, cells) block of log-probabilities under either set. One span pass
finds every table entry it needs: the word entries of v (for gamma(v)),
of w (for p_cont(w) and its log) and the pair entries of (v, w). Where v
has no entry in a cell the reference's value is p_cont(w), so its stored
log is put there and nothing is computed. Only the entries of v gather
the pair term and p_cont(w) from dense layers and take a log: a floored
probability a constant one, and a vector with more than
``_DISTINCT_MIN`` live entries one ``math.log`` per distinct value.
``log_likelihood`` scores one post as its block summed over the pair
rows in order; ``log_likelihoods`` scores a batch in fixed-size blocks of
pairs, which may split a post, and scatter-adds each block's rows into
the rows of their posts with ``np.add.at``. That adds a post's rows in
order too, so the batch rows equal the one-post results bit for bit. A
post of any length takes the same numpy calls; only its ``math.log``
calls grow with it, one per (pair, cell) whose context is seen there.
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
from dataclasses import dataclass, field, replace
from itertools import repeat
from math import inf, log
from typing import Sequence

import numpy as np

from .grid import CellId, real_number

# Floor applied to every returned probability so log-space scoring never
# sees zero. Far below anything a trained model can produce.
MIN_PROB = 1e-12
_LOG_MIN_PROB = log(MIN_PROB)

# Most (pair, cell) entries ``log_likelihoods`` holds at once, for a bounded
# peak memory whatever the number of posts scored or their lengths: a block
# is max(_BLOCK // cells, 1) pairs, wherever the posts begin and end.
_BLOCK = 1 << 15

# ``_floored_logs`` logs only the distinct values of a vector with more
# live entries than this. On runs of live entries cut from what the
# Kneser-Ney core passes it in the city-g8 benchmark's batch blocks (the
# entries of seen contexts), np.unique plus one log per distinct value
# broke even with one log per entry at about 512 entries (56-76 us each),
# saved 17-18% at 1,024 and 38-41% at 2,048; at 128 it cost 1.7-1.9 times
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
        lambda1 = real_number("interpolation weight lambda1", self.lambda1, lambda x: 0 <= x <= 1,
                              "lie in [0, 1]")
        object.__setattr__(self, "lambda1", lambda1)

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
    p_cont(t) as a completion: an index into ``pcont``, which holds the
    p_cont of each distinct (completion count, cell) once, and
    ``log_pcont``, which holds log max(p_cont, MIN_PROB) of each. The pair
    arrays hold every seen (v, w) of every cell, sorted by ``v *
    (len(vocab) + 1) + w`` and then cell, with c(v, w) and the pair term
    max(c(v, w) - D(c(v, w)), 0) / c(v).

    These are the Kneser-Ney columns. ``interpolated`` returns the
    baseline's in place of ``word_gamma``, ``word_pcont_id``, ``pcont``,
    ``log_pcont`` and ``pair_term``. The scorer reads those five, the word
    and pair spans and cells, and no count.
    """

    vocab: tuple[str, ...]
    index: dict[str, int]
    word_ptr: np.ndarray
    word_cell: np.ndarray
    word_count: np.ndarray
    word_gamma: np.ndarray
    word_pcont_id: np.ndarray
    pcont: np.ndarray
    log_pcont: np.ndarray
    pair_key: np.ndarray
    pair_cell: np.ndarray
    pair_count: np.ndarray
    pair_term: np.ndarray
    post_counts: np.ndarray
    log_prior: np.ndarray
    discounts: tuple[Discounts, ...]

    def log_likelihood(self, tokens: Sequence[str]) -> np.ndarray:
        """``sequence_log_prob`` of ``tokens`` under every cell's model at
        once, in row-major cell order: the post's block of pair logs with
        its rows added one after another, as the reference adds them. The
        floats and the order they are combined in are the reference's, so
        the results agree bit for bit."""
        if len(tokens) < 2:
            return np.zeros(len(self.post_counts))
        ids = self._ids(tokens)
        logs = self._pair_logs(ids[:-1], ids[1:])
        # sum(axis=0) adds rows in order, but a single column pairwise; the
        # running sum is in order always, and costs more.
        return logs.sum(axis=0) if logs.shape[1] > 1 else np.add.accumulate(logs)[-1]

    def log_likelihoods(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
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
            np.add.at(out, post_of_pair[block], self._pair_logs(v[block], w[block]))
        return out

    def _ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Word id of every token; ``len(vocab)`` outside the vocabulary."""
        unknown = repeat(len(self.vocab), len(tokens))
        return np.fromiter(map(self.index.get, tokens, unknown), np.int64, len(tokens))

    def _entries(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The table entries of the pairs (v[i], w[i]) and where they go in
        a (3, len(v), cells) array: the word entries of v[i] in layer 0, of
        w[i] in layer 1 and the pair entries of (v[i], w[i]) in layer 2,
        the entry of cell j at [layer, i, j]. Returns the flat positions,
        the entries, and where the runs of v's and of w's entries end; the
        pair entries come last.

        One span pass looks every layer up. Its rows are the layers' rows
        laid end to end, so an entry's flat position is its row times
        cells plus its cell. The pairs' ranges come from binary searches of
        the sorted pair keys."""
        n = len(v)
        keys = v * (len(self.vocab) + 1)
        keys += w
        ids = np.concatenate((v, w))
        ptr = self.word_ptr
        # ptr[1:][t] is ptr[t + 1], without an addition.
        at, ent, ends = _spans(
            np.concatenate((ptr[ids], self.pair_key.searchsorted(keys))),
            np.concatenate((ptr[1:][ids], self.pair_key.searchsorted(keys, "right"))),
            len(self.post_counts),
        )
        v_end, w_end, _ = ends[n - 1 :: n].tolist() if n else (0, 0, 0)
        at[:w_end] += self.word_cell[ent[:w_end]]
        at[w_end:] += self.pair_cell[ent[w_end:]]
        return at, ent, v_end, w_end

    def _pair_logs(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """log max(P(w[i] | v[i]), MIN_PROB) in every cell, as a (pairs,
        cells) array: the one scoring core behind ``log_likelihood`` and
        ``log_likelihoods``, for either column set.

        P = pair term + gamma(v) * p_cont(w) where c(v) > 0, and p_cont(w)
        where c(v) = 0. Kneser-Ney's pair term is the discounted numerator
        over c(v); ``interpolated`` gives the baseline's. The tables store
        log max(p_cont(w), MIN_PROB), so where v has no entry the log is
        read, not taken: the logs start at log(MIN_PROB), the floor of a w
        without an entry too, and take the stored log of every entry of w.
        The pair term and p_cont go into dense layers, zero where they have
        no entry, and the entries of v alone gather them: pair term +
        gamma(v) * p_cont(w), 0 + gamma(v) * p_cont(w) for an unseen pair,
        is the reference's sum, and only these values pass through
        ``_floored_logs``."""
        at, ent, v_end, w_end = self._entries(v, w)
        layers = np.zeros((3, len(v), len(self.post_counts)))
        logs, pcont, term = layers
        logs.fill(_LOG_MIN_PROB)
        w_at, pid = at[v_end:w_end], self.word_pcont_id[ent[v_end:w_end]]
        # take, not [pid]: numpy's fancy indexing is slow on narrow indices.
        layers.put(w_at, self.pcont.take(pid))
        layers.put(at[w_end:], self.pair_term[ent[w_end:]])
        # One layer down, w's positions are the same (i, j) of the logs.
        w_at -= logs.size
        logs.put(w_at, self.log_pcont.take(pid))
        v_at = at[:v_end]
        p = self.word_gamma[ent[:v_end]]
        p *= pcont.take(v_at)
        p += term.take(v_at)
        logs.put(v_at, _floored_logs(p))
        return logs

    def interpolated(self, baseline: BaselineInterpolation) -> "EnsembleTables":
        """These tables with the columns of the interpolation baseline,
        P = lambda1 * c(v, w) / c(v) + lambda2 * c(w) / N where c(v) > 0,
        and c(w) / N elsewhere, N the cell's token count (at least 1), in
        place of Kneser-Ney's: the pair term lambda1 * (c(v, w) / c(v)),
        gamma = lambda2 and p_cont = c(w) / N. Every division is the
        reference's, and ``_pair_logs`` adds its two products in the other
        order, which gives the same bits; where v has no entry it reads the
        stored log of c(w) / N, the value the reference logs there. c(v)
        is the word entry of (v, cell), found by ``_word_entries`` as
        ``compile_tables`` finds it."""
        n_cells = len(self.post_counts)
        v = self.pair_key // (len(self.vocab) + 1)
        word_keys = self.count_arrays()["word_keys"]
        (context,) = _word_entries(word_keys, len(self.vocab) * n_cells, v * n_cells + self.pair_cell)
        tokens = np.bincount(self.word_cell, self.word_count, n_cells)
        return replace(
            self,
            word_gamma=np.full(len(self.word_count), baseline.lambda2),
            pair_term=baseline.lambda1 * (self.pair_count / self.word_count.take(context)),
            **_continuation_probs(self.word_count, self.word_cell, tokens),
        )

    def cell_model(self, i: int, cell: CellId) -> CellCounts:
        """The counts and discounts of cell i, rebuilt from the tables."""
        vocab = self.vocab
        ent = np.flatnonzero(self.word_cell == i)
        words = np.searchsorted(self.word_ptr, ent, "right") - 1
        counts = CountTables(
            unigram={vocab[t]: n for t, n in zip(words.tolist(), self.word_count[ent].tolist())},
            total_tokens=int(self.word_count[ent].sum()),
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


def _spans(
    lo: np.ndarray, hi: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every entry in the ranges lo[row]:hi[row], in range order: row *
    ``n_cells``, and the entry. Also the running count of entries at the
    end of each range."""
    lens = hi - lo
    ends = lens.cumsum()
    ent = (lo - ends + lens).repeat(lens)
    ent += np.arange(len(ent))
    at = np.arange(0, len(lo) * n_cells, n_cells).repeat(lens)
    return at, ent, ends


def _floored_logs(p: np.ndarray) -> np.ndarray:
    """log max(p, MIN_PROB) of every entry of ``p``.

    Floored entries all get log(MIN_PROB); only the others pay for a log.
    On the city-g8 benchmark queries the Kneser-Ney core passes the 111,469
    entries of seen contexts, and 66.3% of them are floored (no pair, and
    gamma(v) or p_cont(w) is 0). math.log, not np.log: numpy's SIMD log
    can differ from libm in the last place, and the reference sums
    math.log values. A large vector repeats its values (12,789 distinct of
    37,559 live entries in the 20 blocks of the city-g8 queries), so there
    each distinct value is logged once; equal inputs give equal logs, the
    same bits."""
    logs = np.empty(p.shape)
    logs.fill(_LOG_MIN_PROB)
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


def _continuation_probs(k, word_cell, distinct):
    """k / max(distinct[cell], 1) for every word entry of count ``k`` in
    ``cell``, as the three ``EnsembleTables`` columns that hold p_cont:
    ``word_pcont_id``, the index of each entry's value among the distinct
    values, ``pcont``, the values, and ``log_pcont``, log max(value,
    MIN_PROB) of each. Kneser-Ney's
    p_cont(w) passes the bigrams each entry completes and the cells'
    distinct bigrams; the baseline's c(w) / N passes the word counts and
    the cells' token counts.

    The entries of one cell with the same k share one value, so the
    distinct values are those of the integer keys k * cells + cell, each
    divided out and logged with math.log once. The key table has (max(k)
    + 1) * cells slots: k <= V for Kneser-Ney, as a word completes at most
    one bigram per context, like the word slot table of ``compile_tables``,
    and k <= N for the baseline. The index takes the narrowest unsigned
    dtype that holds it."""
    n_cells = len(distinct)
    key = k * n_cells
    key += word_cell
    seen = np.zeros(key.max(initial=0) + 1, dtype=bool)
    seen[key] = True
    keys = np.flatnonzero(seen)
    k, cell = np.divmod(keys, n_cells)
    values = k / np.maximum(distinct[cell], 1)
    rank = np.zeros(len(seen), dtype=np.min_scalar_type(len(keys)))
    rank[keys] = np.arange(len(keys))
    logs = np.maximum(values, MIN_PROB).tolist()
    log_pcont = np.fromiter(map(log, logs), np.float64, len(logs))
    return {"word_pcont_id": rank[key], "pcont": values, "log_pcont": log_pcont}


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
    # The discounted numerator c(v, w)', divided by c(v) below.
    pair_term = np.maximum(pair_count - tier_discount[pair_cell, tier], 0.0)
    # The word entry of each pair's context (v, cell) and completion
    # (w, cell). Every key is in range by now, so every slot index is too.
    context, completion = _word_entries(
        word_keys, len(vocab) * n_cells, v * n_cells + pair_cell, w * n_cells + pair_cell
    )
    word_gamma = _backoff_weights(context, word_cell, word_count, tier, tier_discount)
    pair_term /= word_count.take(context)  # take: see _pair_logs
    completes = np.bincount(completion, minlength=len(word_count))
    pcont = _continuation_probs(completes, word_cell, np.bincount(pair_cell, minlength=n_cells))
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
        pair_key=pair_key,
        pair_cell=pair_cell,
        pair_count=pair_count,
        pair_term=pair_term,
        post_counts=post_counts,
        log_prior=np.array([log(n / total) if n > 0 else -inf for n in post_counts.tolist()]),
        discounts=discounts,
        **pcont,
    )
