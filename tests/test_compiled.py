"""The compiled ensemble tables against the per-cell reference model,
``CellLanguageModel`` in ``tests/reference.py``, and the batched scorer
against the one-post path.

Scores must agree bit for bit, not to a tolerance: the tables compute the
same floats in the same order as the reference model, and a batch adds
each post's pair logs in the order one post's scoring adds them.
"""

import dataclasses
import hashlib
import tracemalloc
from math import inf, log
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopost import (
    BaselineInterpolation,
    GeoBounds,
    PipelineArtifacts,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    TokenizedPost,
    build_ensemble,
    build_training_corpus,
    estimate,
    generate_synthetic,
    geo_smooth,
    partition,
    posterior_field,
    split,
)
from geopost import lm
from geopost.estimator import cell_log_scores, posterior_matrix, posterior_vector
from helpers import (
    PINNED_BOUNDS,
    PINNED_SPECS,
    as_corpus,
    as_tokenized,
    assert_same_tables,
    decode,
)
from reference import train_cell

BOUNDS = GeoBounds(0.0, 0.0, 4.0, 4.0)
WORDS = ("a", "b", "c", "d", "e")
UNSEEN = "zz"  # never in a training post, so outside the vocabulary


def _ensemble(g, cell_posts, alpha=0.9, baseline=None):
    """Ensemble over {cell: [token list, ...]}, each post at its cell's
    center, plus the training posts grouped by cell."""
    part = partition(BOUNDS, g)
    by_cell = {cell: [] for cell in part.cells()}
    posts = []
    for cell, token_lists in cell_posts:
        for toks in token_lists:
            post = TokenizedPost(f"p{len(posts)}", tuple(toks), part.center_of(cell))
            posts.append(post)
            by_cell[cell].append(post)
    vocab = frozenset(t for post in posts for t in post.tokens)
    artifacts = PipelineArtifacts(frozenset(), vocab)
    ens = build_ensemble(as_corpus(posts), part, SmoothingConfig(alpha=alpha), artifacts)
    return ens.with_baseline(baseline), by_cell


def _reference_scores(ens, by_cell, tokens):
    """Row-major sum of reference pair log-probabilities plus log prior."""
    scores = []
    for cell in ens.partition.cells():
        prior = ens.priors[cell]
        if prior > 0.0:
            model = train_cell(by_cell[cell], cell)
            scores.append(model.sequence_log_prob(tokens, ens.baseline) + log(prior))
        else:
            scores.append(-inf)
    return scores


@st.composite
def ensembles(draw):
    g = draw(st.integers(1, 3))
    cells = partition(BOUNDS, g).cells()
    token_lists = st.lists(st.lists(st.sampled_from(WORDS), max_size=5), min_size=1, max_size=4)
    cell_posts = draw(
        st.lists(st.tuples(st.sampled_from(cells), token_lists), min_size=1, max_size=6)
    )
    baseline = draw(st.sampled_from((None, 0.0, 0.3, 1.0)))
    if baseline is not None:
        baseline = BaselineInterpolation(baseline)
    alpha = draw(st.sampled_from((0.0, 0.5, 0.9)))
    return _ensemble(g, cell_posts, alpha, baseline)


queries = st.lists(st.sampled_from(WORDS + (UNSEEN,)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(ensembles(), st.lists(queries, min_size=1, max_size=4))
def test_scores_equal_reference_bit_for_bit(built, token_lists):
    ens, by_cell = built
    for tokens in token_lists:
        assert cell_log_scores(ens, tokens).tolist() == _reference_scores(ens, by_cell, tokens)


@settings(max_examples=100, deadline=None)
@given(ensembles(), queries)
def test_estimate_matches_dict_path(built, tokens):
    ens, _ = built
    post = TokenizedPost("q", tuple(tokens))
    field = posterior_field(ens, post)
    scores = geo_smooth(ens, field)
    best = None
    for cell in ens.partition.cells():  # first strict maximum, row-major
        if best is None or scores[cell] > scores[best]:
            best = cell
    est = estimate(ens, post)
    assert est.cell == best
    assert est.smoothed_score == scores[best]
    assert est.posterior == field.values[best]


def _assert_view_matches_tables(ens):
    """The per-cell view covers every cell in row-major order, and its
    distinct bigrams add up to the pair entries of the tables."""
    g = ens.partition.g
    models = ens.models
    assert len(models) == g * g
    assert list(models) == ens.partition.cells()
    total = sum(m.counts.total_distinct_bigrams for m in models.values())
    assert total == len(ens.tables.pair_key)


@settings(max_examples=100, deadline=None)
@given(ensembles())
def test_model_view_equals_train_cell(built):
    ens, by_cell = built
    for cell in ens.partition.cells():
        got, want = ens.models[cell], train_cell(by_cell[cell], cell)
        assert got.counts == want.counts
        assert got.discounts == want.discounts
        assert got.post_count == want.post_count
        assert got.cell == cell
    _assert_view_matches_tables(ens)


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_count_arrays_compile_back_to_the_tables(built):
    tables = built[0].tables
    assert_same_tables(lm.compile_tables(tables.vocab, **tables.count_arrays()), tables)


def test_tables_past_65536_word_entries_equal_reference():
    # 256 cells of 300 words each: the word entries outgrow 16-bit
    # indices, so a lookup that wraps or truncates them shows here.
    g, n_words, per_cell = 16, 400, 300
    rng = np.random.default_rng(5)
    words = [f"w{i:03d}" for i in range(n_words)]
    token_lists, cells = [], []
    for cell in range(g * g):
        own = rng.choice(n_words, per_cell, replace=False)
        # Every word of the cell once, then 900 draws from 20 of them, so
        # pairs fall in every count tier.
        ids = np.concatenate((own, rng.choice(own[:20], 900)))
        for post in np.split(ids, 120):
            token_lists.append([words[i] for i in post])
            cells.append(cell)
    corpus = as_corpus(as_tokenized(token_lists))
    tables = lm.count_tables(corpus.vocab, corpus.token_ids, corpus.lens, cells, g * g)
    assert len(tables.word_cell) == g * g * per_cell > 65_536
    part = partition(BOUNDS, g)
    for i in (0, 1, 137, g * g - 1):
        posts = [
            TokenizedPost(f"p{k}", tuple(t)) for k, t in enumerate(token_lists) if cells[k] == i
        ]
        model = train_cell(posts, part.cells()[i])
        ent = np.flatnonzero(tables.word_cell == i)
        cell_words = [tables.vocab[t] for t in np.searchsorted(tables.word_ptr, ent, "right") - 1]
        assert tables.word_gamma[ent].tolist() == [model.backoff_mass(t) for t in cell_words]
        pcont = tables.pcont[tables.word_pcont_id[ent]]
        assert pcont.tolist() == [model.continuation_prob(t) for t in cell_words]


def _assert_derived_columns_equal_reference(tables, models):
    """p_cont, log max(p_cont, MIN_PROB) and the pair term of every entry of
    ``tables`` are the reference's floats, compared as ``float.hex``:
    ``models`` holds the reference model of each row-major cell."""
    vocab = tables.vocab
    words = np.repeat(np.arange(len(vocab)), np.diff(tables.word_ptr)[:-1])
    pid = tables.word_pcont_id
    assert pid.dtype == np.min_scalar_type(len(tables.pcont))
    got = [
        (p.hex(), lp.hex())
        for p, lp in zip(tables.pcont[pid].tolist(), tables.log_pcont[pid].tolist())
    ]
    want = []
    for t, cell in zip(words.tolist(), tables.word_cell.tolist()):
        p = models[cell].continuation_prob(vocab[t])
        want.append((p.hex(), log(max(p, lm.MIN_PROB)).hex()))
    assert got == want
    v, w = np.divmod(tables.pair_key, len(vocab) + 1)
    want = [
        models[cell].pair_term(vocab[a], vocab[b]).hex()
        for a, b, cell in zip(v.tolist(), w.tolist(), tables.pair_cell.tolist())
    ]
    assert [x.hex() for x in tables.pair_term.tolist()] == want


def _assert_interpolated_columns_equal_reference(tables, models, baseline):
    """The columns of ``tables.interpolated(baseline)`` are the reference's
    floats, compared as ``float.hex``: gamma = lambda2, p_cont = c(w) / N
    and its log max(p, MIN_PROB), and the pair term lambda1 * (c(v, w) /
    c(v)). ``models`` holds the reference model of each row-major cell."""
    interp = tables.interpolated(baseline)
    vocab = tables.vocab
    assert interp.word_count is tables.word_count and interp.pair_key is tables.pair_key
    assert {x.hex() for x in interp.word_gamma.tolist()} <= {baseline.lambda2.hex()}
    assert len(interp.word_gamma) == len(tables.word_cell)
    pid = interp.word_pcont_id
    assert pid.dtype == np.min_scalar_type(len(interp.pcont))
    got = [
        (p.hex(), lp.hex())
        for p, lp in zip(interp.pcont[pid].tolist(), interp.log_pcont[pid].tolist())
    ]
    words = np.repeat(np.arange(len(vocab)), np.diff(tables.word_ptr)[:-1])
    want = []
    for t, cell in zip(words.tolist(), tables.word_cell.tolist()):
        p = models[cell].unigram_prob(vocab[t])
        want.append((p.hex(), log(max(p, lm.MIN_PROB)).hex()))
    assert got == want
    v, w = np.divmod(tables.pair_key, len(vocab) + 1)
    want = []
    for a, b, cell in zip(v.tolist(), w.tolist(), tables.pair_cell.tolist()):
        counts = models[cell].counts
        p_bi = counts.bigram[vocab[a]][vocab[b]] / counts.unigram[vocab[a]]
        want.append((baseline.lambda1 * p_bi).hex())
    assert [x.hex() for x in interp.pair_term.tolist()] == want


@settings(max_examples=100, deadline=None)
@given(ensembles(), st.sampled_from((0.0, 0.3, 0.7, 1.0)))
def test_interpolated_columns_equal_reference(built, lambda1):
    ens, by_cell = built
    models = [train_cell(by_cell[cell], cell) for cell in ens.partition.cells()]
    baseline = BaselineInterpolation(lambda1)
    _assert_interpolated_columns_equal_reference(ens.tables, models, baseline)


def test_interpolated_columns_equal_reference_in_edge_cells():
    # Cell 0 has sequence-final-only contexts (c(v) > 0 and no bigram of
    # v), cell 2 posts but no bigram, and cell 8 no token at all.
    cells = partition(BOUNDS, 3).cells()
    ens, by_cell = next(_core_ensembles())
    t, models = ens.tables, [train_cell(by_cell[cell], cell) for cell in cells]
    assert _by_word_cell(t, "b", t.word_gamma)[0] == 0.0
    assert models[2].counts.unigram and not models[2].counts.bigram
    assert ens.priors[cells[8]] == 0.0 and not models[8].counts.total_tokens
    for lambda1 in (0.0, 0.6, 1.0):
        baseline = BaselineInterpolation(lambda1)
        _assert_interpolated_columns_equal_reference(t, models, baseline)


@settings(max_examples=100, deadline=None)
@given(ensembles())
def test_derived_columns_equal_reference(built):
    ens, by_cell = built
    models = [train_cell(by_cell[cell], cell) for cell in ens.partition.cells()]
    _assert_derived_columns_equal_reference(ens.tables, models)


def test_derived_columns_equal_reference_in_edge_cells():
    # Cell 0 has sequence-final-only contexts, cell 2 posts but no bigram,
    # so p_cont is 0 and its log the floor, and cell 8 no post at all.
    cells = partition(BOUNDS, 3).cells()
    for ens, by_cell in _core_ensembles():
        t, models = ens.tables, [train_cell(by_cell[cell], cell) for cell in cells]
        assert _by_word_cell(t, "b", t.word_gamma)[0] == 0.0
        assert models[2].counts.unigram and not models[2].counts.bigram
        assert set(_by_word_cell(t, "e", t.word_pcont_id)) >= {2, 3}
        assert ens.priors[cells[8]] == 0.0
        _assert_derived_columns_equal_reference(t, models)


def _counted():
    """The count arrays of a 2 x 2 ensemble over the words a, b, c, d,
    where d occurs only in a one-token post of cell 2."""
    cells = partition(BOUNDS, 2).cells()
    cell_posts = [(cells[0], [["a", "b"], ["a", "b", "c"]]), (cells[1], [["b", "a"]]),
                  (cells[2], [["d"]])]
    tables = _ensemble(2, cell_posts)[0].tables
    arrays = {name: a.copy() for name, a in tables.count_arrays().items()}
    # word * 4 + cell, and (v * 5 + w) * 4 + cell with V = 4.
    assert arrays["word_keys"].tolist() == [0, 1, 4, 5, 8, 14]
    assert arrays["pair_keys"].tolist() == [4, 21, 28]
    return tables.vocab, arrays


def _set(name, index, value):
    def edit(arrays):
        arrays[name][index] = value

    return edit


def _drop_word_entry(index):
    def edit(arrays):
        for name in ("word_keys", "word_count"):
            arrays[name] = np.delete(arrays[name], index)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("post_counts", 0, -1), "post_counts must be >= 0, found -1"),
        (_set("post_counts", slice(None), 0), "post_counts are all zero: no training posts"),
        (_set("word_count", 0, 0), "word_count must be >= 1, found 0"),
        (_set("pair_count", 2, 0), "pair_count must be >= 1, found 0"),
        (_set("word_keys", 5, 4 * 4 + 2), "a key names a word id outside the vocabulary"),
        (_set("word_keys", 0, -1), "a key names a word id outside the vocabulary"),
        (_set("pair_keys", 2, (4 * 5 + 0) * 4), "a key names a word id outside the vocabulary"),
        (_set("pair_keys", 0, (0 * 5 + 4) * 4), "a key names a word id outside the vocabulary"),
        (_drop_word_entry(5), "the vocabulary lists tokens that word_keys never counts"),
        (_set("word_keys", 0, 2), "unigram rows repeat or are out of order"),
        (_set("pair_keys", 1, 4), "bigram rows repeat or are out of order"),
        (_drop_word_entry(3), "a bigram token is missing from its cell's unigram counts"),
        # (a, cell 1) completes the pair (b, a) of cell 1.
        (_drop_word_entry(1), "a bigram token is missing from its cell's unigram counts"),
    ],
    ids=[
        "negative-post-count", "all-zero-post-counts", "zero-word-count", "zero-pair-count",
        "word-outside", "negative-word-key", "v-outside", "w-outside", "uncounted-word",
        "unigrams-out-of-order", "bigram-repeated", "context-missing-from-cell",
        "completion-missing-from-cell",
    ],
)
def test_compile_tables_refuses_broken_counts(edit, message):
    vocab, arrays = _counted()
    lm.compile_tables(vocab, **arrays)
    edit(arrays)
    with pytest.raises(ValueError) as err:
        lm.compile_tables(vocab, **arrays)
    assert str(err.value) == message


def test_edge_cases_equal_reference_bit_for_bit():
    # Cell 0: "b" and "c" end every post, so they are contexts with
    # c(v) > 0 and no bigram row. Cell 1 never sees "d". Cell 2 holds only
    # empty and 1-token posts, cell 3 a single bigram type, and the other
    # cells nothing at all.
    cells = partition(BOUNDS, 3).cells()
    cell_posts = [
        (cells[0], [["a", "b"], ["a", "c"], ["d", "a", "b"]]),
        (cells[1], [["a", "b", "c", "a"], ["c", "c"]]),
        (cells[2], [[], ["e"], ["a"]]),
        (cells[3], [["a", "e"], ["a", "e"]]),
    ]
    queries = [[], ["a"], [UNSEEN], ["b", "a"], ["c", "d"], ["a", UNSEEN, "b"], ["e", "a", "e"]]
    for baseline in (None, BaselineInterpolation(0.6)):
        ens, by_cell = _ensemble(3, cell_posts, baseline=baseline)
        assert ens.priors[cells[8]] == 0.0
        for tokens in queries:
            assert cell_log_scores(ens, tokens).tolist() == _reference_scores(ens, by_cell, tokens)


def _planted():
    """A planted g = 4 ensemble, its training posts by cell, and queries
    built from its test posts."""
    spec = SyntheticSpec(
        g=4, vocab_per_cell=30, shared_vocab=60, posts_per_cell=60, leakage=0.3, seed=7
    )
    tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
    corpus, arts = build_training_corpus(tr, stopword_count=5)
    part = partition(BOUNDS, 4)
    ens = build_ensemble(corpus, part, SmoothingConfig(), arts)
    by_cell = {cell: [] for cell in part.cells()}
    for post in decode(corpus):
        by_cell[part.cell_of(post.location)].append(post)
    queries = [arts.preprocess(p).tokens for p in te]
    return ens, by_cell, [q + q[::-1] for q in queries]


def test_planted_model_view_covers_the_tables():
    _assert_view_matches_tables(_planted()[0])


def test_planted_corpus_equals_reference_bit_for_bit():
    # Thousands of distinct probabilities: enough to expose a log or a sum
    # that differs from the reference in the last place.
    ens, by_cell, queries = _planted()
    for baseline in (None, BaselineInterpolation(0.7)):
        scored = ens.with_baseline(baseline)
        for tokens in queries:
            assert cell_log_scores(scored, tokens).tolist() == _reference_scores(
                scored, by_cell, tokens
            )


def _assert_rows_equal_posterior_vector(ens, token_lists):
    got = posterior_matrix(ens, token_lists)
    want = np.array([posterior_vector(ens, tokens) for tokens in token_lists])
    want = want.reshape(len(token_lists), ens.partition.g ** 2)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


MISC = "<misc>"
batch_posts = st.lists(st.sampled_from(WORDS + (UNSEEN, MISC)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(ensembles(), st.lists(batch_posts, max_size=12), st.sampled_from((1, 7, 40, lm._BLOCK)))
def test_posterior_matrix_rows_equal_posterior_vector(built, token_lists, block):
    # Small blocks put block boundaries between and inside the posts'
    # pair rows, so a post's rows can be added over several blocks.
    ens, _ = built
    with mock.patch.object(lm, "_BLOCK", block):
        _assert_rows_equal_posterior_vector(ens, token_lists)


def test_posterior_matrix_edge_cases_across_blocks():
    # Cell 0 ends every post with "b" or "c", so they are sequence-final-only
    # contexts there; cells 4..8 have no posts. The batch mixes empty,
    # 1-token, out-of-vocabulary and all-<misc> posts, and is long enough
    # to take several blocks of the default size.
    cells = partition(BOUNDS, 3).cells()
    cell_posts = [
        (cells[0], [["a", "b"], ["a", "c"], ["d", "a", "b"], [MISC, "b"]]),
        (cells[1], [["a", "b", "c", "a"], ["c", "c"], [MISC, MISC, "a"]]),
        (cells[2], [[], ["e"], ["a"]]),
        (cells[3], [["a", "e"], ["a", "e", MISC]]),
    ]
    posts = [[], ["a"], [UNSEEN], [MISC, MISC, MISC], ["b", "a"], ["c", "d"],
             ["a", UNSEEN, "b"], ["e", "a", "e", "b", "c", "d", "a", "b"]]
    batch = posts * 700
    n_pairs = sum(max(len(tokens) - 1, 0) for tokens in batch)
    assert n_pairs * len(cells) > 2 * lm._BLOCK
    for baseline in (None, BaselineInterpolation(0.6)):
        ens, _ = _ensemble(3, cell_posts, baseline=baseline)
        assert ens.priors[cells[8]] == 0.0
        _assert_rows_equal_posterior_vector(ens, batch)


def _random_ensembles(g):
    """KN and baseline ensembles at g over random posts in most cells."""
    rng = np.random.default_rng(g)
    cells = partition(BOUNDS, g).cells()
    cell_posts = [
        (cell, [rng.choice(WORDS, size=rng.integers(0, 7)).tolist() for _ in range(4)])
        for cell in cells[: max(len(cells) - 2, 1)]
    ]
    for baseline in (None, BaselineInterpolation(0.6)):
        yield _ensemble(g, cell_posts, baseline=baseline)[0]


SPLIT_POSTS = [list("abcdeabcdeabc"), [], ["a"], ["b", UNSEEN, "c"], list("edcbaedc"), ["c", "c"]]


@pytest.mark.parametrize("g", (1, 2, 8))
def test_posts_split_across_blocks_equal_one_post_scores(g):
    # Blocks of 1-3 pairs cut the 13-token post, and most others, into
    # pieces that land in several blocks.
    for ens in _random_ensembles(g):
        tables, n_cells = ens.scoring_tables, g * g
        for per_block in (1, 2, 3):
            with mock.patch.object(lm, "_BLOCK", per_block * n_cells):
                for batch in (SPLIT_POSTS[:1], SPLIT_POSTS * 3):
                    got = tables.log_likelihoods(batch)
                    want = np.array([tables.log_likelihood(t) for t in batch])
                    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("block", (1, 7, 5 * 64, lm._BLOCK))
def test_no_block_exceeds_its_pair_count(block):
    # One post has more pairs than a block of the default size holds, so
    # the bound must hold inside a post as well as between posts.
    tables = next(_random_ensembles(8)).scoring_tables
    per_block = max(block // 64, 1)
    long_post = list(WORDS * 260)
    assert len(long_post) - 1 > lm._BLOCK // 64
    batch = SPLIT_POSTS + [long_post] + SPLIT_POSTS
    core = lm.EnsembleTables._pair_logs
    with mock.patch.object(lm, "_BLOCK", block), mock.patch.object(
        lm.EnsembleTables, "_pair_logs", autospec=True, side_effect=core
    ) as spy:
        got = tables.log_likelihoods(batch)
    sizes = [len(call.args[1]) for call in spy.call_args_list]
    assert max(sizes) <= per_block
    assert sum(sizes) == sum(max(len(t) - 1, 0) for t in batch)
    want = np.array([tables.log_likelihood(t) for t in batch])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("n_cols", (1, 4, 64, 144))
def test_add_at_adds_repeated_rows_in_index_order(n_cols):
    # log_likelihoods relies on np.add.at adding the rows of a repeated
    # index one after another, as log_likelihood adds a post's rows;
    # np.add.reduceat, for one, does not. A numpy release that changes
    # the order fails here.
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = np.log(rng.random((300, n_cols)))
        index = np.sort(rng.integers(0, 40, size=len(rows)))
        got = np.zeros((40, n_cols))
        np.add.at(got, index, rows)
        want = np.zeros((40, n_cols))
        for i, row in zip(index.tolist(), rows):
            want[i] += row
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _scoring_peak(ens, batch):
    tracemalloc.start()
    try:
        posterior_matrix(ens, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_posterior_matrix_memory_is_bounded_by_blocks():
    # Scoring ten times as many posts holds ten times the token ids and
    # posteriors, but never more than one block of (pair, cell) entries.
    spec = SyntheticSpec(
        g=4, vocab_per_cell=30, shared_vocab=60, posts_per_cell=60, tokens_per_post=12, seed=7
    )
    tr, _, _ = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
    corpus, arts = build_training_corpus(tr, stopword_count=0)
    ens = build_ensemble(corpus, partition(BOUNDS, 4), SmoothingConfig(), arts)
    posts = [post.tokens for post in decode(corpus) if len(post.tokens) > 1]
    batch = [posts[i % len(posts)] for i in range(4000)]
    assert sum(len(tokens) - 1 for tokens in batch[:400]) * 16 > lm._BLOCK
    assert _scoring_peak(ens, batch) < 3 * _scoring_peak(ens, batch[:400])


# The scoring core on both sides of ``lm._DISTINCT_MIN``: 0 logs the
# distinct values of every block, a huge cutoff logs every entry.
CUTOFFS = (0, 10**12)


def _core_ensembles():
    """KN and baseline ensembles at g = 3 where cell 0 has sequence-final-only
    contexts and cells 4..8 have no posts."""
    cells = partition(BOUNDS, 3).cells()
    cell_posts = [
        (cells[0], [["a", "b"], ["a", "c"], ["d", "a", "b"], [MISC, "b"]]),
        (cells[1], [["a", "b", "c", "a"], ["c", "c"], [MISC, MISC, "a"]]),
        (cells[2], [[], ["e"], ["a"]]),
        (cells[3], [["a", "e"], ["a", "e", MISC]]),
    ]
    for baseline in (None, BaselineInterpolation(0.6)):
        ens, by_cell = _ensemble(3, cell_posts, baseline=baseline)
        assert ens.priors[cells[8]] == 0.0
        yield ens, by_cell


def _by_word_cell(tables, word, column):
    """{cell: entry of ``column``} over the cells ``word`` has an entry in."""
    span = slice(*tables.word_ptr[tables.index[word] : tables.index[word] + 2].tolist())
    return dict(zip(tables.word_cell[span].tolist(), column[span].tolist()))


def test_no_entry_cases_equal_reference_bit_for_bit():
    # Where v has no entry the scoring core puts the stored log of p_cont(w),
    # or log(MIN_PROB) where w has none either, and computes nothing, so
    # that log must be the reference's. Each case where a lookup finds
    # nothing is scored through both entry points and must equal the
    # reference in every cell.
    cells = partition(BOUNDS, 3).cells()
    for ens, by_cell in _core_ensembles():
        t = ens.tables
        models = [train_cell(by_cell[cell], cell) for cell in cells]
        assert _by_word_cell(t, "b", t.word_gamma)[0] == 0.0  # "b" ends every post of cell 0
        assert list(_by_word_cell(t, "d", t.word_count)) == [0]
        assert t._ids([UNSEEN]).tolist() == [len(t.vocab)]
        assert ens.priors[cells[8]] == 0.0 and not models[8].counts.unigram
        queries = [
            [UNSEEN, "a"],  # unknown context: p_cont(a) where "a" has an entry
            ["a", UNSEEN],  # unknown completion: floored everywhere
            [UNSEEN, UNSEEN],
            ["d", "a"],  # "d" has an entry in cell 0 only
            ["d", "e", "b"],
            ["b", "a"],  # sequence-final-only context in cell 0: gamma = 0
            ["c", "a", "b", "a"],
            [MISC, "a", UNSEEN, "e"],
        ]
        for tokens in queries:
            want = [m.sequence_log_prob(tokens, ens.baseline) for m in models]
            one = ens.scoring_tables.log_likelihood(tokens)
            assert one.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        rows = ens.scoring_tables.log_likelihoods(queries)
        want = [[m.sequence_log_prob(q, ens.baseline) for m in models] for q in queries]
        assert rows.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_only_seen_contexts_are_logged():
    # "d" has an entry in cell 0 only, "a" in cells 0-3, "b" in cells 0-1
    # and the unknown word in none. Where v has no entry the core puts the
    # stored log of p_cont(w), so the values it logs are the reference's
    # unfloored P(w | v) of the (pair, cell)s where v has one, row by row
    # and then in cell order, under Kneser-Ney and under the baseline;
    # logging every entry again fails here.
    tokens = ["d", "a", "b", UNSEEN, "c", "a"]
    core = lm._floored_logs
    for ens, by_cell in _core_ensembles():
        t, scored = ens.tables, ens.scoring_tables
        models = [train_cell(by_cell[cell], cell) for cell in ens.partition.cells()]
        want = [
            models[j]._bigram_prob_raw(a, b)
            if ens.baseline is None
            else models[j]._baseline_prob_raw(a, b, ens.baseline)
            for a, b in zip(tokens, tokens[1:])
            for j in (_by_word_cell(t, a, t.word_count) if a in t.index else ())
        ]
        assert len(want) == 1 + 4 + 2 + 0 + 2
        for score in (scored.log_likelihood, lambda q: scored.log_likelihoods([q])):
            with mock.patch.object(lm, "_floored_logs", side_effect=core) as spy:
                score(tokens)
            ((logged,), _) = spy.call_args_list[0]
            assert spy.call_count == 1 and logged.shape == (len(want),)
            assert [x.hex() for x in logged.tolist()] == [x.hex() for x in want]


def _all_pairs(tables, repeat):
    """Every (v, w) over the vocabulary and the out-of-vocabulary id, each
    ``repeat`` times, so most probabilities recur many times."""
    ids = np.arange(len(tables.vocab) + 1)
    v, w = np.meshgrid(ids, ids, indexing="ij")
    return np.tile(v.ravel(), repeat), np.tile(w.ravel(), repeat)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_floored_logs_equal_math_log(cutoff):
    # 2,000 distinct values, each about 25 times, among floored ones: numpy's
    # own log misses math.log in the last place on a few of them.
    rng = np.random.default_rng(3)
    values = np.concatenate((rng.random(2000), rng.random(2000) * 1e-6, [lm.MIN_PROB, 1e-13, 0.0]))
    p = rng.choice(values, size=(1000, 100))
    with mock.patch.object(lm, "_DISTINCT_MIN", cutoff):
        got = lm._floored_logs(p)
    want = [[log(max(x, lm.MIN_PROB)) for x in row] for row in p.tolist()]
    assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pair_logs_equal_per_value_log(cutoff):
    for ens, by_cell in _core_ensembles():
        tables = ens.scoring_tables
        v, w = _all_pairs(tables, repeat=40)
        with mock.patch.object(lm, "_DISTINCT_MIN", cutoff):
            got = tables._pair_logs(v, w)
        words = tables.vocab + (UNSEEN,)
        want = np.empty(got.shape)
        for j, cell in enumerate(ens.partition.cells()):
            model = train_cell(by_cell[cell], cell)
            for i, (a, b) in enumerate(zip(v.tolist(), w.tolist())):
                if ens.baseline is None:
                    p = model.bigram_prob(words[a], words[b])
                else:
                    p = model.baseline_bigram_prob(words[a], words[b], ens.baseline)
                want[i, j] = log(p)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_planted_batch_equals_reference_across_the_cutoff(cutoff):
    # Enough distinct probabilities that a log other than math.log on the
    # distinct values would show.
    ens, by_cell, queries = _planted()
    models = [train_cell(by_cell[cell], cell) for cell in ens.partition.cells()]
    for baseline in (None, BaselineInterpolation(0.7)):
        tables = ens.tables if baseline is None else ens.tables.interpolated(baseline)
        with mock.patch.object(lm, "_DISTINCT_MIN", cutoff):
            got = tables.log_likelihoods(queries)
        want = [[m.sequence_log_prob(q, baseline) for m in models] for q in queries]
        assert got.tolist() == want


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_batch_rows_equal_one_post_scores_across_the_cutoff(cutoff):
    posts = [[], ["a"], [UNSEEN], [MISC, MISC, MISC], ["b", "a"], ["c", "d"],
             ["a", UNSEEN, "b"], ["e", "a", "e", "b", "c", "d", "a", "b"]]
    batch = posts * 60
    for ens, _ in _core_ensembles():
        tables = ens.scoring_tables
        with mock.patch.object(lm, "_DISTINCT_MIN", cutoff):
            got = tables.log_likelihoods(batch)
            want = np.array([tables.log_likelihood(tokens) for tokens in batch])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=100, deadline=None)
@given(ensembles(), st.lists(batch_posts, max_size=12), st.sampled_from(CUTOFFS))
def test_log_likelihoods_rows_equal_log_likelihood(built, token_lists, cutoff):
    tables = built[0].scoring_tables
    with mock.patch.object(lm, "_DISTINCT_MIN", cutoff):
        got = tables.log_likelihoods(token_lists * 30)
        want = [tables.log_likelihood(tokens) for tokens in token_lists * 30]
    want = np.array(want).reshape(got.shape)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_half_gather_equals_full_gather_slices():
    # One span pass looks up every layer: words of v, words of w, pairs.
    # Each run must hold exactly its own lookups' entries, in row order and
    # then entry order, each at its row and cell in its own layer.
    def spans(rows, lo, hi, cells, layer, n, n_cells):
        at, ent = [], []
        for i, r in enumerate(rows):
            for e in range(lo[r], hi[r]):
                at.append((layer * n + i) * n_cells + cells[e])
                ent.append(e)
        return at, ent

    for ens, _ in _core_ensembles():
        t = ens.tables
        n_cells = len(t.post_counts)
        ptr, word_cell, pair_cell = t.word_ptr.tolist(), t.word_cell.tolist(), t.pair_cell.tolist()
        for v, w in (_all_pairs(t, repeat=2), (np.array([], dtype=np.int64),) * 2):
            n = len(v)
            keys = v * (len(t.vocab) + 1) + w
            pair_lo = np.searchsorted(t.pair_key, keys, "left").tolist()
            pair_hi = np.searchsorted(t.pair_key, keys, "right").tolist()
            runs = [
                spans(v.tolist(), ptr, ptr[1:], word_cell, 0, n, n_cells),
                spans(w.tolist(), ptr, ptr[1:], word_cell, 1, n, n_cells),
                spans(range(n), pair_lo, pair_hi, pair_cell, 2, n, n_cells),
            ]
            at, ent, v_end, w_end = t._entries(v, w)
            assert (v_end, w_end) == (len(runs[0][0]), len(runs[0][0]) + len(runs[1][0]))
            assert at.tolist() == [a for run in runs for a in run[0]]
            assert ent.tolist() == [e for run in runs for e in run[1]]


def test_one_cell_scores_equal_reference_bit_for_bit():
    # With one cell, sum(axis=0) added a long column pairwise and missed the
    # reference's in-order sum in the last place from 9 pairs on.
    rng = np.random.default_rng(11)
    words = [f"w{k}" for k in range(30)]
    train = [list(rng.choice(words, size=rng.integers(2, 9))) for _ in range(60)]
    queries = [list(rng.choice(words + [UNSEEN], size=rng.integers(10, 40))) for _ in range(60)]
    cell = partition(BOUNDS, 1).cells()[0]
    pairwise_differs = False
    for baseline in (None, BaselineInterpolation(0.7)):
        ens, by_cell = _ensemble(1, [(cell, train)], baseline=baseline)
        model = train_cell(by_cell[cell], cell)
        tables = ens.scoring_tables
        for tokens in queries:
            want = model.sequence_log_prob(tokens, baseline)
            assert tables.log_likelihood(tokens).tolist() == [want]
            ids = tables._ids(tokens)
            pairwise = tables._pair_logs(ids[:-1], ids[1:]).sum(axis=0)
            pairwise_differs |= pairwise.tolist() != [want]
        rows = tables.log_likelihoods(queries)
        assert rows[:, 0].tolist() == [model.sequence_log_prob(q, baseline) for q in queries]
    assert pairwise_differs


def _tables_digest(tables, arrays=None) -> str:
    """SHA-256 of the vocabulary and of the dtype, shape and bytes of every
    array of ``tables``, in field order, or of each of ``arrays``, a
    {name: array} dict, in its order."""
    if arrays is None:
        arrays = {f.name: getattr(tables, f.name) for f in dataclasses.fields(tables)}
    h = hashlib.sha256("\n".join(tables.vocab).encode())
    for name, value in arrays.items():
        if isinstance(value, np.ndarray):
            h.update(f"{name} {value.dtype.str} {value.shape}\n".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _corpus_digest(corpus, artifacts) -> str:
    """SHA-256 of the sorted stopwords and of every column of ``corpus``,
    in field order: a str column as its length and its entries one to a
    line, an array as its dtype, shape and bytes."""
    h = hashlib.sha256("\n".join(sorted(artifacts.stopwords)).encode())
    for field in dataclasses.fields(corpus):
        value = getattr(corpus, field.name)
        if isinstance(value, np.ndarray):
            h.update(f"{field.name} {value.dtype.str} {value.shape}\n".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(f"{field.name} {len(value)}\n".encode())
            h.update("\n".join(value).encode())
    return h.hexdigest()


def _pinned_train_split(name):
    spec = SyntheticSpec(seed=1, **PINNED_SPECS[name])
    train, _, _ = split(generate_synthetic(spec, PINNED_BOUNDS), SplitSpec(seed=1))
    return spec, train


class TestPinnedCorpus:
    """The training corpus and stopwords built from the train split (seed
    1) of each benchmark workload's corpus with 200 stopwords, as ``geopost
    train`` builds them: a change to the training pipeline that alters one
    byte fails here, before any table is counted."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("city-g8", "245f5f1eb02b1d2b4161e9c6460f97bfad5fc80f0382ae497cea664fc7bd3af3"),
            ("fine-g12", "bb217e1466aa3d9969171e253d057a45bc95708d4a42dea27ed9ed7d202ac60f"),
            ("tune", "0e092b275bd34a764a69d586dd403c6c796917d859289768988822542f456a96"),
        ],
    )
    def test_digest(self, name, digest):
        _, train = _pinned_train_split(name)
        assert _corpus_digest(*build_training_corpus(train, stopword_count=200)) == digest


def _pinned_build(name):
    """The training corpus, grid and tables of the pinned train split."""
    spec, train = _pinned_train_split(name)
    corpus, arts = build_training_corpus(train, stopword_count=200)
    part = partition(PINNED_BOUNDS, spec.g)
    return corpus, part, build_ensemble(corpus, part, SmoothingConfig(), arts).tables


class TestPinnedTables:
    """The tables trained on the train split (seed 1) of each benchmark
    workload's corpus at its grid size, with 200 stopwords as ``geopost
    train`` induces: a training change that alters one byte fails here."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("city-g8", "36bd5bcf349608fd787046dfebea9caf086cb66bfbcc3634f7c67379f752f617"),
            ("fine-g12", "37496bf4fb6d4e53142cbb58dcce3660445181f8d4565676a83b2cf8b35fc5a2"),
            ("tune", "f6c43320c03d70be7649e0478a8937882750693872ccc9fa66161b0e9429a0aa"),
        ],
    )
    def test_digest(self, name, digest):
        assert _tables_digest(_pinned_build(name)[2]) == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("city-g8", "33d163961044abdda80d2995e927b09d656e8e76e2f52a553634b9d4f8b44115"),
            ("fine-g12", "3ee82831aa0c778c96c5f8aea7b347d194c118d9ff4ab217beca3ae781a55fd4"),
            ("tune", "ff9e632f8a430b1645cf3a3c896c8499607943d0b3818f97643449fd1e1dee78"),
        ],
    )
    def test_count_and_weight_digest(self, name, digest):
        # Recorded when the tables stored p_cont per word entry, the
        # discounted numerator in place of the pair term, and each cell's
        # token count: every other array, with p_cont read through its
        # index, is byte for byte the same, and the token counts derived
        # from the word counts are the ones stored then.
        t = _pinned_build(name)[2]
        derived = {
            "word_pcont": t.pcont[t.word_pcont_id],
            "total_tokens": np.bincount(t.word_cell, t.word_count, len(t.post_counts)).astype(
                np.int64
            ),
        }
        names = ("word_ptr", "word_cell", "word_count", "word_gamma", "word_pcont", "pair_key",
                 "pair_cell", "pair_count", "post_counts", "total_tokens", "log_prior")
        arrays = {k: derived[k] if k in derived else getattr(t, k) for k in names}
        assert _tables_digest(t, arrays) == digest


class TestPinnedColumns:
    """The derived columns of the pinned tables against the reference model
    of each cell, trained on the same posts."""

    @pytest.mark.parametrize("name", ["city-g8", "fine-g12", "tune"])
    def test_derived_columns_equal_reference(self, name):
        corpus, part, tables = _pinned_build(name)
        by_cell = {cell: [] for cell in part.cells()}
        for post in decode(corpus):
            by_cell[part.cell_of(post.location)].append(post)
        models = [train_cell(by_cell[cell], cell) for cell in part.cells()]
        _assert_derived_columns_equal_reference(tables, models)
        for lambda1 in (0.0, 0.7, 1.0):
            baseline = BaselineInterpolation(lambda1)
            _assert_interpolated_columns_equal_reference(tables, models, baseline)
