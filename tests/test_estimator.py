"""Ensemble construction, posteriors, geo-smoothing, and cell selection."""

import random
from dataclasses import fields, replace

import numpy as np
import pytest

from geopost import (
    BaselineInterpolation,
    CellId,
    Estimate,
    GeoPoint,
    GeoBounds,
    OutOfRegionError,
    PipelineArtifacts,
    RawPost,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    TokenizedPost,
    TrainingCorpus,
    ValidationError,
    build_ensemble,
    build_training_corpus,
    estimate,
    estimate_batch,
    estimates_csv,
    generate_synthetic,
    geo_smooth,
    partition,
    posterior_field,
    split,
)
from geopost import estimator
from geopost.estimator import (
    PosteriorField,
    _ring_matrices,
    cell_log_scores,
    normalize_log_scores,
    smooth_from_terms,
    smooth_vector,
    smoothing_terms,
)
from helpers import as_corpus, assert_same_tables, decode, reference_posterior, rows_per_block
import reference

BOUNDS = GeoBounds(0.0, 0.0, 4.0, 4.0)


def _artifacts(vocab):
    return PipelineArtifacts(stopwords=frozenset(), vocab=frozenset(vocab))


def _ensemble(cell_token_lists, g=2, alpha=0.0, diameter=None, bounds=BOUNDS):
    """Build an ensemble from {(row, col): [token list, ...]} with each
    post located at its cell's center."""
    part = partition(bounds, g)
    posts = []
    for (r, c), token_lists in cell_token_lists.items():
        center = part.center_of(CellId(r, c))
        for i, toks in enumerate(token_lists):
            posts.append(TokenizedPost(f"p{r}{c}{i}", tuple(toks), center))
    vocab = {t for lists in cell_token_lists.values() for toks in lists for t in toks}
    return build_ensemble(
        as_corpus(posts), part, SmoothingConfig(alpha=alpha, diameter=diameter), _artifacts(vocab)
    )


def _query(tokens):
    return TokenizedPost("q", tuple(tokens), None)


class TestBuildEnsemble:
    def test_even_posts_uniform_priors(self):
        ens = _ensemble({(r, c): [["w"]] for r in range(2) for c in range(2)})
        assert all(p == 0.25 for p in ens.priors.values())
        assert abs(sum(ens.priors.values()) - 1.0) <= 1e-9

    def test_all_posts_in_one_cell(self):
        ens = _ensemble({(0, 0): [["w"]] * 10, (0, 1): [], (1, 0): [], (1, 1): []})
        assert ens.priors[CellId(0, 0)] == 1.0
        assert ens.priors[CellId(1, 1)] == 0.0

    def test_default_smoothing_matches_fitted_values(self):
        # alpha 0.9 and diameter = g are the stock configuration: None
        # smooths over every ring, as d = g does.
        assert SmoothingConfig() == SmoothingConfig(alpha=0.9, diameter=None)
        spec = SyntheticSpec(g=4, vocab_per_cell=6, posts_per_cell=20, leakage=0.3, seed=12)
        tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=2))
        tok, arts = build_training_corpus(tr, stopword_count=2)
        ens = build_ensemble(tok, partition(BOUNDS, 4), SmoothingConfig(), arts)
        queries = [arts.preprocess(p) for p in te]
        by_g = ens.with_smoothing(SmoothingConfig(diameter=4))
        assert estimate_batch(ens, queries) == estimate_batch(by_g, queries)
        assert [estimate(ens, q) for q in queries] == [estimate(by_g, q) for q in queries]
        assert geo_smooth(ens, posterior_field(ens, queries[0])) == geo_smooth(
            by_g, posterior_field(by_g, queries[0])
        )

    @pytest.mark.parametrize("d", [True, 2.5, 0, -1, "3", np.int64(0)])
    def test_bad_diameter_rejected_with_its_repr(self, d):
        # The grid dimension's rule and message, naming the diameter.
        with pytest.raises(ValidationError, match="^diameter must be") as exc:
            SmoothingConfig(diameter=d)
        assert str(exc.value).endswith(f"got {d!r}")

    @pytest.mark.parametrize("alpha", [True, "0.5", None, float("nan"), -0.5])
    def test_bad_alpha_rejected_with_its_repr(self, alpha):
        # A string alpha raised a bare TypeError from the range comparison.
        with pytest.raises(ValidationError, match=r"^alpha must lie in \[0, 1\]") as exc:
            SmoothingConfig(alpha=alpha)
        assert str(exc.value).endswith(f"got {alpha!r}")

    def test_alpha_past_the_float_range_rejected(self):
        # Making the repr of 10**5000 raised ValueError past Python's int
        # digit limit.
        message = r"^alpha must lie in \[0, 1\], got a number past the float range$"
        with pytest.raises(ValidationError, match=message):
            SmoothingConfig(alpha=10**5000)

    def test_empty_training_set_rejected(self):
        part = partition(BOUNDS, 2)
        with pytest.raises(ValidationError):
            build_ensemble(as_corpus([]), part, SmoothingConfig(), _artifacts(set()))

    def test_unlocated_post_rejected(self):
        part = partition(BOUNDS, 2)
        posts = [TokenizedPost("p", ("w",), None)]
        with pytest.raises(ValidationError):
            build_ensemble(as_corpus(posts), part, SmoothingConfig(), _artifacts({"w"}))

    def test_first_bad_post_in_order_is_reported(self):
        # As a per-post loop would: whichever of an unlocated and an
        # out-of-region post comes first.
        part = partition(BOUNDS, 2)
        ok = TokenizedPost("ok", ("w",), GeoPoint(1.0, 1.0))
        unlocated = TokenizedPost("nowhere", ("w",), None)
        outside = TokenizedPost("far", ("w",), GeoPoint(5.0, 1.0))
        arts = _artifacts({"w"})
        with pytest.raises(ValidationError, match="training post 'nowhere' has no location"):
            build_ensemble(as_corpus([ok, unlocated, outside]), part, SmoothingConfig(), arts)
        with pytest.raises(OutOfRegionError) as exc:
            build_ensemble(as_corpus([ok, outside, unlocated]), part, SmoothingConfig(), arts)
        assert str(exc.value) == f"point (5.0, 1.0) outside region {BOUNDS}"

    @staticmethod
    def _planted():
        spec = SyntheticSpec(g=3, vocab_per_cell=6, posts_per_cell=12, leakage=0.3, seed=7)
        return split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=3))

    def test_corpus_and_artifacts_of_different_splits_rejected(self):
        tr, ho, _ = self._planted()
        corpus, _ = build_training_corpus(tr, stopword_count=2)
        _, other = build_training_corpus(ho, stopword_count=2)
        with pytest.raises(ValidationError, match="^the training corpus vocab differs from"):
            build_ensemble(corpus, partition(BOUNDS, 3), SmoothingConfig(), other)

    def test_vocab_must_be_sorted(self):
        corpus, _ = build_training_corpus(self._planted()[0], stopword_count=2)
        message = "^training corpus vocab is not strictly increasing$"
        with pytest.raises(ValidationError, match=message):
            replace(corpus, vocab=corpus.vocab[::-1])

    def test_vocab_must_not_repeat_a_word(self):
        # Sorted and every id used, but count_tables would map 'x' to id 1
        # and leave id 0 unreachable.
        message = "^training corpus vocab is not strictly increasing$"
        with pytest.raises(ValidationError, match=message):
            TrainingCorpus(
                ids=("p",), vocab=("x", "x"), token_ids=np.array([0, 1], dtype=np.int32),
                lens=np.array([2]), lats=np.array([1.0]), lons=np.array([1.0]),
            )

    def test_lens_must_sum_to_the_token_count(self):
        corpus, _ = build_training_corpus(self._planted()[0], stopword_count=2)
        with pytest.raises(ValidationError, match="^training corpus lens must be >= 0 and sum to"):
            replace(corpus, lens=corpus.lens + 1)

    def test_lens_must_not_be_negative(self):
        corpus, _ = build_training_corpus(self._planted()[0], stopword_count=2)
        lens = corpus.lens.copy()
        lens[:2] += (-1 - lens[0], 1 + lens[0])  # same sum
        with pytest.raises(ValidationError, match="^training corpus lens must be >= 0 and sum to"):
            replace(corpus, lens=lens)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_word_ids_must_lie_in_the_vocab(self, shift):
        corpus, _ = build_training_corpus(self._planted()[0], stopword_count=2)
        ids = corpus.token_ids.copy()
        ids[0] = -1 if shift < 0 else len(corpus.vocab)
        with pytest.raises(ValidationError, match=r"^training corpus token_ids must lie in \[0, "):
            replace(corpus, token_ids=ids)

    def test_every_vocab_word_must_occur(self):
        # With every id 0 remapped to 1 the other checks passed, and
        # build_ensemble raised compile_tables' bare ValueError.
        corpus, _ = build_training_corpus(self._planted()[0], stopword_count=2)
        ids = np.where(corpus.token_ids == 0, 1, corpus.token_ids).astype(np.int32)
        message = f"^training corpus vocab word {corpus.vocab[0]!r} never occurs in token_ids$"
        with pytest.raises(ValidationError, match=message):
            replace(corpus, token_ids=ids)

    @pytest.mark.parametrize("column", ["lens", "lats", "lons"])
    def test_columns_must_have_one_entry_per_post(self, column):
        corpus, _ = build_training_corpus(self._planted()[0], stopword_count=2)
        message = f"^training corpus {column} must hold one entry per post$"
        with pytest.raises(ValidationError, match=message):
            replace(corpus, **{column: getattr(corpus, column)[1:]})

    @pytest.mark.parametrize("g", [1, 5, 8, 12])
    def test_tables_equal_a_per_post_cell_of_build(self, g):
        # A planted corpus plus copies of its posts moved onto every band
        # edge, the closed north and east edges included, against the
        # string-keyed counts of the posts binned one at a time.
        spec = SyntheticSpec(g=g, vocab_per_cell=8, shared_vocab=20, posts_per_cell=6,
                             leakage=0.2, seed=g)
        train, _, _ = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
        train = list(train)
        part = partition(BOUNDS, g)
        edges = [BOUNDS.south + k * part.dlat for k in range(g + 1)]
        train += [
            replace(post, id=f"{post.id}-edge", location=GeoPoint(edges[i % (g + 1)],
                                                                  edges[-1 - i % (g + 1)]))
            for i, post in enumerate(train[: 4 * (g + 1)])
        ]
        corpus, arts = build_training_corpus(train, stopword_count=3)
        ens = build_ensemble(corpus, part, SmoothingConfig(), arts)
        cells = [reference.cell_of(part, post.location) for post in train]
        want = reference.count_tables(
            [post.tokens for post in decode(corpus)], [c.row * g + c.col for c in cells], g * g
        )
        assert_same_tables(ens.tables, want)


class TestPosteriorField:
    def test_empty_tokens_reproduce_priors_exactly(self):
        ens = _ensemble({(r, c): [["w"]] for r in range(2) for c in range(2)})
        field = posterior_field(ens, _query([]))
        assert field.values == ens.priors

    def test_zero_prior_cells_get_zero_posterior(self):
        ens = _ensemble({(0, 0): [["a", "b"]] * 3, (1, 1): [["c", "d"]] * 3})
        field = posterior_field(ens, _query(["a", "b"]))
        assert field.values[CellId(0, 1)] == 0.0
        assert field.values[CellId(1, 0)] == 0.0

    def test_identical_cells_give_uniform_posterior(self):
        ens = _ensemble({(r, c): [["a", "b"], ["b", "a"]] for r in range(2) for c in range(2)})
        field = posterior_field(ens, _query(["a", "b"]))
        assert all(v == 0.25 for v in field.values.values())

    def test_disjoint_vocabularies_concentrate_mass(self):
        a_posts = [["storm", "hits", "harbor"], ["harbor", "storm"]] * 3
        b_posts = [["quiet", "garden", "path"], ["garden", "path"]] * 3
        ens = _ensemble({(0, 0): a_posts, (1, 1): b_posts})
        field = posterior_field(ens, _query(["storm", "harbor"]))
        assert field.values[CellId(0, 0)] > 0.99

    def test_matches_probability_space_reference(self):
        a_posts = [["storm", "hits", "harbor"], ["harbor", "storm"]]
        b_posts = [["quiet", "garden", "path"], ["garden", "path"], ["path", "quiet"]]
        ens = _ensemble({(0, 0): a_posts, (1, 1): b_posts})
        tokens = ["storm", "harbor"]
        field = posterior_field(ens, _query(tokens))
        want = reference_posterior(
            {
                CellId(0, 0): a_posts,
                CellId(0, 1): [],
                CellId(1, 0): [],
                CellId(1, 1): b_posts,
            },
            ens.priors,
            tokens,
        )
        for cell, value in want.items():
            assert field.values[cell] == pytest.approx(value, abs=1e-12)

    def test_normalized_for_random_posts(self):
        rng = random.Random(3)
        ens = _ensemble(
            {
                (r, c): [[rng.choice("abcdef") for _ in range(4)] for _ in range(5)]
                for r in range(2)
                for c in range(2)
            }
        )
        for _ in range(50):
            tokens = [rng.choice("abcdefgh") for _ in range(rng.randint(0, 6))]
            field = posterior_field(ens, _query(tokens))
            assert sum(field.values.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0.0 for v in field.values.values())

    def test_baseline_scoring_changes_the_field(self):
        from geopost import BaselineInterpolation

        ens = _ensemble(
            {(0, 0): [["a", "b"], ["a", "c"]] * 2, (1, 1): [["a", "b"], ["b", "b"]] * 2}
        )
        with_baseline = ens.with_baseline(BaselineInterpolation(0.5))
        mkn = posterior_field(ens, _query(["a", "b"]))
        base = posterior_field(with_baseline, _query(["a", "b"]))
        assert sum(base.values.values()) == pytest.approx(1.0, abs=1e-9)
        assert mkn.values != base.values


def _uniform_field(part, post_id="p"):
    u = 1.0 / (part.g * part.g)
    return PosteriorField({cell: u for cell in part.cells()}, post_id)


class TestGeoSmooth:
    def test_alpha_zero_is_identity(self):
        rng = random.Random(4)
        part = partition(BOUNDS, 4)
        for _ in range(100):
            raw = np.array([rng.random() for _ in range(16)])
            vec = raw / raw.sum()
            out = smooth_vector(part, vec, 0.0, 4)
            assert np.array_equal(out, vec)

    def test_single_cell_grid_scales_by_one_minus_alpha(self):
        ens = _ensemble({(0, 0): [["w", "w"]]}, g=1, alpha=0.9, diameter=1)
        field = posterior_field(ens, _query(["w"]))
        scores = geo_smooth(ens, field)
        assert scores[CellId(0, 0)] == pytest.approx(0.1, abs=1e-12)

    def test_uniform_three_by_three_hand_values(self):
        # For u = 1/9, alpha = 0.9, d = 1: a full ring contributes
        # 8 * u / 8, an edge ring 5 * u / 8, a corner ring 3 * u / 8.
        part = partition(BOUNDS, 3)
        u = 1.0 / 9.0
        vec = np.full(9, u)
        out = smooth_vector(part, vec, 0.9, 1)
        idx = {cell: i for i, cell in enumerate(part.cells())}
        assert out[idx[CellId(1, 1)]] == pytest.approx(0.1 * u + 0.9 * u, abs=1e-12)
        assert out[idx[CellId(0, 1)]] == pytest.approx(0.1 * u + 0.9 * 5 * u / 8, abs=1e-12)
        assert out[idx[CellId(0, 0)]] == pytest.approx(0.1 * u + 0.9 * 3 * u / 8, abs=1e-12)

    def test_corner_spike_three_by_three_hand_values(self):
        # All mass on (0,0). Ring-1 cells see spike/8; ring-2 cells see
        # spike/24 once d reaches 2; the spike cell keeps (1-alpha).
        part = partition(BOUNDS, 3)
        vec = np.zeros(9)
        vec[0] = 1.0
        idx = {cell: i for i, cell in enumerate(part.cells())}

        d1 = smooth_vector(part, vec, 0.9, 1)
        assert d1[idx[CellId(0, 0)]] == pytest.approx(0.1, abs=1e-12)
        for cell in (CellId(0, 1), CellId(1, 0), CellId(1, 1)):
            assert d1[idx[cell]] == pytest.approx(0.9 / 8, abs=1e-12)
        for cell in (CellId(0, 2), CellId(1, 2), CellId(2, 0), CellId(2, 1), CellId(2, 2)):
            assert d1[idx[cell]] == pytest.approx(0.0, abs=1e-12)

        d2 = smooth_vector(part, vec, 0.9, 2)
        for cell in (CellId(0, 2), CellId(1, 2), CellId(2, 0), CellId(2, 1), CellId(2, 2)):
            assert d2[idx[cell]] == pytest.approx(0.9 / 24, abs=1e-12)

    def test_uniform_field_conserved_at_interior_for_d1(self):
        # With d = 1 the ring normalizer equals the full ring size, so
        # interior cells keep exactly the uniform value. (Larger d uses
        # cumulative-square normalizers and intentionally does not.)
        part = partition(BOUNDS, 5)
        u = 1.0 / 25.0
        out = smooth_vector(part, np.full(25, u), 0.7, 1)
        idx = {cell: i for i, cell in enumerate(part.cells())}
        for r in range(1, 4):
            for c in range(1, 4):
                assert out[idx[CellId(r, c)]] == pytest.approx(u, abs=1e-12)

    def test_scores_affine_in_alpha(self):
        rng = random.Random(5)
        part = partition(BOUNDS, 4)
        for _ in range(20):
            raw = np.array([rng.random() for _ in range(16)])
            vec = raw / raw.sum()
            s0 = smooth_vector(part, vec, 0.0, 3)
            s1 = smooth_vector(part, vec, 1.0, 3)
            mid = smooth_vector(part, vec, 0.5, 3)
            assert np.allclose(mid, 0.5 * (s0 + s1), atol=1e-12)

    def test_diameter_saturates_at_g_minus_one(self):
        rng = random.Random(6)
        part = partition(BOUNDS, 4)
        for _ in range(20):
            raw = np.array([rng.random() for _ in range(16)])
            vec = raw / raw.sum()
            assert np.array_equal(
                smooth_vector(part, vec, 0.9, 3), smooth_vector(part, vec, 0.9, 9)
            )

    def test_geo_smooth_dict_wrapper_matches_vector_path(self):
        ens = _ensemble(
            {(r, c): [["a", "b"]] * (1 + r + c) for r in range(2) for c in range(2)},
            alpha=0.9,
            diameter=2,
        )
        field = posterior_field(ens, _query(["a", "b"]))
        scores = geo_smooth(ens, field)
        vec = np.array([field.values[cell] for cell in ens.partition.cells()])
        direct = smooth_vector(ens.partition, vec, 0.9, 2)
        for cell, value in zip(ens.partition.cells(), direct):
            assert scores[cell] == value


class TestEstimate:
    def test_disjoint_vocabulary_selects_matching_cell(self):
        a_posts = [["storm", "hits", "harbor"]] * 4
        b_posts = [["quiet", "garden", "path"]] * 4
        ens = _ensemble({(0, 1): a_posts, (1, 0): b_posts}, alpha=0.0)
        est = estimate(ens, _query(["storm", "harbor"]))
        assert est.cell == CellId(0, 1)
        assert est.point == ens.partition.center_of(CellId(0, 1))

    def test_empty_tokens_select_argmax_prior(self):
        ens = _ensemble(
            {(0, 0): [["a", "b"]] * 2, (0, 1): [["a", "b"]] * 5, (1, 1): [["a", "b"]] * 3},
            alpha=0.0,
        )
        est = estimate(ens, _query([]))
        assert est.cell == CellId(0, 1)
        assert est.posterior == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_tie_breaks_row_major(self):
        ens = _ensemble(
            {(r, c): [["a", "b"], ["b", "a"]] for r in range(2) for c in range(2)},
            alpha=0.9,
            diameter=2,
        )
        est = estimate(ens, _query(["a", "b"]))
        assert est.cell == CellId(0, 0)
        # An empty post on these uniform priors ties every cell. Both
        # paths pick the first maximum and report the same fields.
        for tokens in (["a", "b"], ["b", "a"], []):
            one = estimate(ens, _query(tokens))
            (batch,) = estimate_batch(ens, [_query(tokens)])
            assert one.cell == CellId(0, 0)
            for f in fields(Estimate):
                assert getattr(one, f.name) == getattr(batch, f.name), f.name

    def test_argmax_invariant_to_likelihood_scaling(self):
        # Adding a constant to every log score multiplies all unnormalized
        # likelihoods by a positive constant; the chosen cell must hold.
        rng = random.Random(7)
        ens = _ensemble(
            {
                (r, c): [[rng.choice("abcdef") for _ in range(4)] for _ in range(4)]
                for r in range(3)
                for c in range(3)
            },
            g=3,
            alpha=0.9,
            diameter=2,
        )
        part = ens.partition
        for _ in range(30):
            tokens = [rng.choice("abcdef") for _ in range(rng.randint(1, 6))]
            scores = cell_log_scores(ens, tokens)
            shift = rng.uniform(-40.0, 40.0)
            shifted = [s + shift for s in scores]
            base = smooth_vector(part, normalize_log_scores(scores), 0.9, 2)
            moved = smooth_vector(part, normalize_log_scores(shifted), 0.9, 2)
            assert int(np.argmax(base)) == int(np.argmax(moved))


class TestEstimateBatch:
    def test_empty_batch(self):
        ens = _ensemble({(0, 0): [["a", "b"]]})
        assert estimate_batch(ens, []) == []

    def test_matches_single_calls_in_order(self):
        rng = random.Random(8)
        ens = _ensemble(
            {(r, c): [[rng.choice("abcd") for _ in range(3)] for _ in range(3)] for r in range(2) for c in range(2)}
        )
        posts = [_query([rng.choice("abcd") for _ in range(3)]) for _ in range(5)]
        batch = estimate_batch(ens, posts)
        singles = [estimate(ens, p) for p in posts]
        assert batch == singles

    @pytest.mark.parametrize("baseline", [None, BaselineInterpolation(0.6)])
    @pytest.mark.parametrize("g", range(1, 14))
    def test_bit_for_bit_with_per_post_estimate(self, g, baseline):
        ens, posts = _batch_case(g, seed=g)
        _assert_batch_is_per_post(ens.with_baseline(baseline), posts)

    @pytest.mark.parametrize("alpha", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("g", [2, 5, 12])
    def test_bit_for_bit_at_every_diameter(self, g, alpha):
        ens, posts = _batch_case(g, seed=50 + g)
        for d in (1, 2, g - 1, g, g + 3):
            _assert_batch_is_per_post(ens.with_smoothing(SmoothingConfig(alpha, d)), posts)

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    def test_bit_for_bit_across_blocks(self, monkeypatch, per_block):
        g = 4
        ens, posts = _batch_case(g, seed=9)
        monkeypatch.setattr(estimator, "_SMOOTH_BLOCK", per_block * (g - 1) * g * g)
        rows = _spy_on_smoothing_terms(monkeypatch)
        _assert_batch_is_per_post(ens, posts)
        # One call per block of the batch, then one per post of ``estimate``.
        assert rows == rows_per_block(posts, per_block) + [1] * len(posts)

    def test_no_block_exceeds_the_ring_stack_bound(self, monkeypatch):
        g = 13
        ens, posts = _batch_case(g, seed=3, n_queries=1200)
        rows = _spy_on_smoothing_terms(monkeypatch)
        estimates = estimate_batch(ens, posts)
        assert len(estimates) == len(posts) and None not in estimates
        per_block = estimator._SMOOTH_BLOCK // ((g - 1) * g * g)
        assert rows == rows_per_block(posts, per_block) and len(rows) > 1
        assert max(rows) * (g - 1) * g * g <= estimator._SMOOTH_BLOCK


class TestSharedPriorRow:
    """A post with fewer than two tokens has the prior as its posterior:
    per block of ``estimate_batch`` all such posts share one row, and each
    still gets ``estimate``'s result bit for bit."""

    # Read in blocks of 3: prior-only posts first and last in a block, a
    # block of them alone, a block with none, and a last short block.
    MIXED = "PSP PSS SSP PPP SSS P"

    @pytest.mark.parametrize("baseline", [None, BaselineInterpolation(0.6)])
    @pytest.mark.parametrize("pattern", [MIXED, "PPPP PPPP", "SSSS SSS"])
    @pytest.mark.parametrize("per_block", [1, 3, 4, 100])
    def test_bit_for_bit_with_per_post_estimate(self, monkeypatch, per_block, pattern, baseline):
        g = 4
        ens, posts = self._case(g, pattern.replace(" ", ""))
        ens = ens.with_baseline(baseline)
        monkeypatch.setattr(estimator, "_SMOOTH_BLOCK", per_block * (g - 1) * g * g)
        rows = _spy_on_smoothing_terms(monkeypatch)
        _assert_batch_is_per_post(ens, posts)
        assert rows == rows_per_block(posts, per_block) + [1] * len(posts)

    @staticmethod
    def _case(g, pattern):
        """A planted ensemble at g, and one preprocessed query per letter
        of ``pattern``: S a scored post of 2-6 words; P in turn an empty
        text, one vocabulary word, a text that cleans to nothing and one
        out-of-vocabulary word (a lone ``<misc>``)."""
        spec = SyntheticSpec(g=g, vocab_per_cell=8, posts_per_cell=6, leakage=0.3, seed=12)
        raw = generate_synthetic(spec, BOUNDS)
        corpus, arts = build_training_corpus(raw, stopword_count=0)
        ens = build_ensemble(corpus, partition(BOUNDS, g), SmoothingConfig(0.9, 2), arts)
        rng = random.Random(g)
        words = sorted(arts.vocab)
        prior_only = ["", words[0], "@x http://y #z", "qqzz"]
        texts = []
        for kind in pattern:
            if kind == "S":
                texts.append(" ".join(rng.choices(words + ["qqzz"], k=rng.randint(2, 6))))
            else:
                texts.append(prior_only[len(texts) % len(prior_only)])
        posts = [arts.preprocess(RawPost(f"q{i}", text, None)) for i, text in enumerate(texts)]
        assert [("S" if len(p.tokens) > 1 else "P") for p in posts] == list(pattern)
        return ens, posts


def _batch_case(g, seed, n_queries=40):
    """An ensemble at g over a small vocabulary, with some cells left
    empty (zero prior), and queries that include empty posts, one-token
    posts and out-of-vocabulary tokens."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(10)]
    cells = {
        (r, c): [[rng.choice(vocab) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(0, 3))]
        for r in range(g)
        for c in range(g)
    }
    cells[(0, 0)] = cells[(0, 0)] or [["w0", "w1"]]
    ens = _ensemble(cells, g=g, alpha=0.9)
    words = vocab + ["unseen", "other"]
    posts = [
        TokenizedPost(f"q{i}", tuple(rng.choice(words) for _ in range(rng.randint(0, 6))), None)
        for i in range(n_queries)
    ]
    return ens, posts


def _assert_batch_is_per_post(ens, posts):
    batch = estimate_batch(ens, posts)
    singles = [estimate(ens, p) for p in posts]
    assert batch == singles
    assert estimates_csv(posts, batch) == estimates_csv(posts, singles)


def _spy_on_smoothing_terms(monkeypatch):
    """Record the number of rows of every ``smoothing_terms`` call."""
    rows = []
    real = estimator.smoothing_terms

    def spy(part, fields):
        rows.append(1 if fields.ndim == 1 else len(fields))
        return real(part, fields)

    monkeypatch.setattr(estimator, "smoothing_terms", spy)
    return rows


def _ring_matrix(part, k):
    """M_k from ``ring_neighbors``: row i marks cell i's ring-k neighbors."""
    g = part.g
    mat = np.zeros((g * g, g * g))
    for i, cell in enumerate(part.cells()):
        for nb in part.ring_neighbors(cell, k):
            mat[i, nb.row * g + nb.col] = 1.0
    return mat


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


def _fields(g, rng):
    """(9, g**2) rows mixing ordinary values, exact zeros and values near
    1e-300, plus an all-zero row and an all-tiny row."""
    fields = rng.random((9, g * g))
    fields[rng.random(fields.shape) < 0.3] = 0.0
    tiny = rng.random(fields.shape) < 0.3
    fields[tiny] = rng.uniform(0.5, 2.0, tiny.sum()) * 1e-300
    fields[1] = 0.0
    fields[2] = rng.uniform(0.5, 2.0, g * g) * 1e-300
    return fields


class TestRingMatrices:
    @pytest.mark.parametrize("g", range(1, 14))
    def test_rows_match_ring_neighbors(self, g):
        part = partition(BOUNDS, g)
        stack = _ring_matrices(g)
        assert stack.shape == (g - 1, g * g, g * g)
        assert stack.dtype == np.float64
        for k in range(1, g):
            assert np.array_equal(stack[k - 1], _ring_matrix(part, k))

    @pytest.mark.parametrize("g", range(1, 14))
    def test_batch_shape_keeps_the_bits(self, g):
        # Column i of a batch's terms, the one-post terms and the per-ring
        # formula (M_k @ row) / ((2k+1)**2 - 1) agree bit for bit, for C,
        # strided and Fortran-ordered batches.
        part = partition(BOUNDS, g)
        mats = [_ring_matrix(part, k) for k in range(1, g)]
        fields = _fields(g, np.random.default_rng(g))
        for batch in (fields, fields[::2], np.asfortranarray(fields)):
            terms = smoothing_terms(part, batch)
            assert terms.shape == (g - 1,) + batch.shape
            for i, row in enumerate(batch):
                one = smoothing_terms(part, row)
                formula = np.array(
                    [(mat @ row) / ((2 * k + 1) ** 2 - 1) for k, mat in enumerate(mats, 1)]
                ).reshape(g - 1, g * g)
                assert np.array_equal(_bits(terms[:, i]), _bits(one))
                assert np.array_equal(_bits(one), _bits(formula))

    @pytest.mark.parametrize("g", range(1, 14))
    def test_smooth_from_terms_matches_sequential_sum(self, g):
        part = partition(BOUNDS, g)
        for fields in (_fields(g, np.random.default_rng(100 + g)), np.full(g * g, 1.0 / g**2)):
            terms = smoothing_terms(part, fields)
            for d in range(1, g + 2):
                acc = np.zeros_like(fields)
                for k in range(min(d, g - 1)):
                    acc = acc + terms[k]
                expected = (1.0 - 0.9) * fields + 0.9 * acc
                assert np.array_equal(_bits(smooth_from_terms(fields, terms, 0.9, d)), _bits(expected))

    def test_one_read_only_stack_per_g(self):
        # The benchmark times a cold ring set-up by calling cache_clear on
        # geopost's functools caches, and bounds play no part in the rings.
        a = partition(BOUNDS, 5)
        b = partition(GeoBounds(10.0, 20.0, 30.0, 25.0), 5)
        _ring_matrices.cache_clear()
        smoothing_terms(a, np.ones(25))
        smoothing_terms(b, np.ones(25))
        assert _ring_matrices.cache_info().misses == 1
        stack = _ring_matrices(a.g)
        assert _ring_matrices(b.g) is stack
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0
        _ring_matrices.cache_clear()
        rebuilt = _ring_matrices(5)
        assert rebuilt is not stack
        assert np.array_equal(rebuilt, stack)
