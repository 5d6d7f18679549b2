"""The compiled ensemble tables against the per-cell reference models,
and the batched scorer against the one-post path.

Scores must agree bit for bit, not to a tolerance: the tables compute the
same floats in the same order as ``CellLanguageModel``, and a batch adds
each post's pair logs in the order one post's scoring adds them.
"""

import dataclasses
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
    train_cell,
)
from geopost import lm
from geopost.estimator import cell_log_scores, posterior_matrix, posterior_vector

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
    ens = build_ensemble(posts, part, SmoothingConfig(alpha=alpha), artifacts, baseline)
    return ens, by_cell


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


@settings(max_examples=100, deadline=None)
@given(ensembles())
def test_model_view_equals_train_cell(built):
    ens, by_cell = built
    for cell in ens.partition.cells():
        got, want = ens.models[cell], train_cell(by_cell[cell], cell)
        assert got.counts == want.counts
        assert got.discounts == want.discounts
        assert got.post_count == want.post_count


@settings(max_examples=150, deadline=None)
@given(ensembles())
def test_count_arrays_compile_back_to_the_tables(built):
    tables = built[0].tables
    again = lm.compile_tables(tables.vocab, **tables.count_arrays())
    for field in dataclasses.fields(tables):
        x, y = getattr(tables, field.name), getattr(again, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        else:
            assert x == y, field.name


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
    ],
    ids=[
        "negative-post-count", "zero-word-count", "zero-pair-count", "word-outside",
        "negative-word-key", "v-outside", "w-outside", "uncounted-word", "unigrams-out-of-order",
        "bigram-repeated", "context-missing-from-cell",
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


def test_planted_corpus_equals_reference_bit_for_bit():
    # Thousands of distinct probabilities: enough to expose a log or a sum
    # that differs from the reference in the last place.
    spec = SyntheticSpec(
        g=4, vocab_per_cell=30, shared_vocab=60, posts_per_cell=60, leakage=0.3, seed=7
    )
    tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
    tok, arts = build_training_corpus(tr, stopword_count=5)
    part = partition(BOUNDS, 4)
    ens = build_ensemble(tok, part, SmoothingConfig(), arts)
    by_cell = {cell: [] for cell in part.cells()}
    for post in tok:
        by_cell[part.cell_of(post.location)].append(post)
    queries = [arts.preprocess(p).tokens for p in te]
    queries = [q + q[::-1] for q in queries]
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
    # pair rows; a block smaller than a post's rows holds that post alone.
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


def test_row_sums_add_pair_rows_in_order():
    # Each post's pair rows must be added one after another, as sum(axis=0)
    # adds the rows of a one-post block; np.add.reduceat, for one, does not.
    rng = np.random.default_rng(5)
    for n_cells in (4, 9, 64, 144):
        lens = rng.integers(2, 14, size=50)
        logs = np.log(rng.random((lens.sum(), n_cells)))
        first = np.cumsum(lens) - lens
        got = lm._row_sums(logs, first, lens)
        for i, (lo, n) in enumerate(zip(first, lens)):
            assert got[i].view(np.int64).tolist() == (
                logs[lo : lo + n].sum(axis=0).view(np.int64).tolist()
            )


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
    tok, arts = build_training_corpus(tr, stopword_count=0)
    ens = build_ensemble(tok, partition(BOUNDS, 4), SmoothingConfig(), arts)
    posts = [post.tokens for post in tok if len(post.tokens) > 1]
    batch = [posts[i % len(posts)] for i in range(4000)]
    assert sum(len(tokens) - 1 for tokens in batch[:400]) * 16 > lm._BLOCK
    assert _scoring_peak(ens, batch) < 3 * _scoring_peak(ens, batch[:400])
