"""The compiled ensemble tables against the per-cell reference models.

Scores must agree bit for bit, not to a tolerance: the tables compute the
same floats in the same order as ``CellLanguageModel``.
"""

from math import inf, log

from hypothesis import given, settings
from hypothesis import strategies as st

from geopost import (
    BaselineInterpolation,
    GeoBounds,
    PipelineArtifacts,
    PipelineConfig,
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
from geopost.estimator import cell_log_scores

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
    artifacts = PipelineArtifacts(PipelineConfig(stopword_count=0), frozenset(), vocab)
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
        baseline = BaselineInterpolation(baseline, 1.0 - baseline)
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
    for baseline in (None, BaselineInterpolation(0.6, 0.4)):
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
    for baseline in (None, BaselineInterpolation(0.7, 0.3)):
        scored = ens.with_baseline(baseline)
        for tokens in queries:
            assert cell_log_scores(scored, tokens).tolist() == _reference_scores(
                scored, by_cell, tokens
            )
