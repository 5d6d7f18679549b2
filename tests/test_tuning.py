"""Grid search over (g, alpha, d): caching, determinism, tie-breaking."""

import random

import pytest

from geopost import (
    GeoBounds,
    GeoPoint,
    RawPost,
    SearchSpace,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    ValidationError,
    build_ensemble,
    build_training_corpus,
    error_vs_d,
    estimate,
    estimation_error_km,
    generate_synthetic,
    grid_search,
    partition,
    split,
)
from geopost import estimator, tuning
from geopost.grid import geo_distance_km
from geopost.tuning import DEFAULT_ALPHA_VALUES, DEFAULT_G_VALUES, select_best

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)


def _splits(spec, seed=4):
    raw = generate_synthetic(spec, BOUNDS)
    return split(raw, SplitSpec(seed=seed))


class TestSearchSpace:
    def test_default_ranges(self):
        assert DEFAULT_G_VALUES == tuple(range(5, 16))
        assert DEFAULT_ALPHA_VALUES == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SearchSpace(g_values=())
        with pytest.raises(ValidationError):
            SearchSpace(g_values=(0,))
        with pytest.raises(ValidationError):
            SearchSpace(alpha_values=(1.5,))

    @pytest.mark.parametrize("g_values", [(True,), (1, True), (2, False), (2.0,), ("3",), (-1,)])
    def test_g_must_be_a_positive_int(self, g_values):
        with pytest.raises(ValidationError):
            SearchSpace(g_values=g_values)

    @pytest.mark.parametrize("alpha_values", [(True, 0.5), (1.0, True), (0.5, False), (-0.1,), (1.5,)])
    def test_alpha_validated_as_smoothing_config_does(self, alpha_values):
        with pytest.raises(ValidationError, match="alpha must lie in"):
            SearchSpace(alpha_values=alpha_values)

    def test_bounds_of_the_ranges_accepted(self):
        space = SearchSpace(g_values=(1,), alpha_values=(0, 0.0, 1, 1.0))
        assert space.g_values == (1,)
        assert space.alpha_values == (0, 1)

    def test_repeated_values_dropped(self):
        space = SearchSpace(g_values=(2, 3, 2), alpha_values=(0.5, 0.1, 0.5))
        assert space.g_values == (2, 3)
        assert space.alpha_values == (0.5, 0.1)


class TestSelectBest:
    def test_minimum_wins(self):
        surface = {(2, 0.5, 1): 3.0, (4, 0.5, 1): 1.0, (8, 0.5, 1): 2.0}
        assert select_best(surface) == (4, 0.5, 1)

    def test_ties_prefer_smaller_g_alpha_d(self):
        surface = {
            (8, 0.1, 2): 1.0,
            (4, 0.9, 3): 1.0,
            (4, 0.1, 3): 1.0,
            (4, 0.1, 1): 1.0,
        }
        assert select_best(surface) == (4, 0.1, 1)

    def test_empty_surface_rejected(self):
        with pytest.raises(ValidationError):
            select_best({})


class TestGridSearch:
    def test_singleton_space(self):
        tr, ho, _ = _splits(SyntheticSpec(g=2, posts_per_cell=40, seed=1))
        space = SearchSpace(g_values=(2,), alpha_values=(0.5,))
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        assert set(result.surface) == {(2, 0.5, 1), (2, 0.5, 2)}
        assert result.best in result.surface

    def test_planted_grid_dimension_recovered(self):
        tr, ho, _ = _splits(
            SyntheticSpec(g=4, vocab_per_cell=20, posts_per_cell=150, tokens_per_post=6, seed=13)
        )
        space = SearchSpace(g_values=(2, 4, 8), alpha_values=(0.0, 0.5, 0.9))
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        assert result.best[0] == 4

    def test_deterministic(self):
        tr, ho, _ = _splits(SyntheticSpec(g=3, posts_per_cell=30, leakage=0.3, seed=2))
        space = SearchSpace(g_values=(2, 3), alpha_values=(0.2, 0.8))
        a = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        b = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        assert a.best == b.best
        assert a.surface == b.surface

    def test_best_is_brute_force_argmin_of_surface(self):
        tr, ho, _ = _splits(SyntheticSpec(g=3, posts_per_cell=30, leakage=0.4, seed=3))
        space = SearchSpace(g_values=(2, 3), alpha_values=(0.3, 0.7))
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        brute = min(sorted(result.surface), key=lambda k: (result.surface[k], k))
        assert result.best == brute
        assert result.best_error_km == result.surface[result.best]

    def test_cached_errors_match_from_scratch(self):
        # Rebuild three sampled (g, alpha, d) configurations end to end and
        # compare against the cached-posterior surface.
        tr, ho, _ = _splits(
            SyntheticSpec(g=4, vocab_per_cell=20, posts_per_cell=100, leakage=0.25, seed=13)
        )
        space = SearchSpace(g_values=(2, 4), alpha_values=(0.1, 0.9))
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        tok, arts = build_training_corpus(tr, stopword_count=0)
        ho_tok = [arts.preprocess(p) for p in ho]
        rng = random.Random(99)
        for g, alpha, d in rng.sample(sorted(result.surface), 3):
            part = partition(BOUNDS, g)
            ens = build_ensemble(tok, part, SmoothingConfig(alpha=alpha, diameter=d), arts)
            errors = [estimation_error_km(p.location, estimate(ens, p)) for p in ho_tok]
            scratch = sum(errors) / len(errors)
            assert abs(result.surface[(g, alpha, d)] - scratch) <= 1e-12

    def test_empty_corpora_rejected(self):
        tr, ho, _ = _splits(SyntheticSpec(g=2, posts_per_cell=20, seed=5))
        space = SearchSpace(g_values=(2,), alpha_values=(0.5,))
        with pytest.raises(ValidationError):
            grid_search([], ho, space, BOUNDS)
        with pytest.raises(ValidationError):
            grid_search(tr, [], space, BOUNDS)


def _edge_case_search():
    """A small planted search whose hold-out also holds an empty post and
    an all-``<misc>`` post: both get prior-only posteriors, and equal
    priors make exact ties."""
    tr, ho, _ = _splits(
        SyntheticSpec(g=3, vocab_per_cell=12, posts_per_cell=20, leakage=0.3, seed=8)
    )
    truth = GeoPoint(40.71, -74.0)
    ho = ho[:12] + [
        RawPost(id="empty", text="", location=truth),
        RawPost(id="unseen", text="qqzz xxvv qqzz", location=truth),
    ]
    space = SearchSpace(g_values=(1, 2, 3, 5), alpha_values=(0.0, 0.5, 1.0))
    tok, arts = build_training_corpus(tr, stopword_count=0)
    ho_tok = [arts.preprocess(p) for p in ho]
    assert ho_tok[-2].tokens == () and set(ho_tok[-1].tokens) == {"<misc>"}
    return tr, ho, space, tok, arts, ho_tok


def _direct_ensembles(space, tok, arts):
    """(g, alpha, d, ensemble smoothing with that alpha and d) for every
    triple of the search space."""
    for g in space.g_values:
        ens = build_ensemble(tok, partition(BOUNDS, g), SmoothingConfig(), arts)
        for alpha in space.alpha_values:
            for d in range(1, g + 1):
                yield g, alpha, d, ens.with_smoothing(SmoothingConfig(alpha=alpha, diameter=d))


class TestTunerMatchesDirectPath:
    def test_every_triple_equals_estimate(self):
        tr, ho, space, tok, arts, ho_tok = _edge_case_search()
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        assert len(result.surface) == 3 * (1 + 2 + 3 + 5)
        for g, alpha, d, direct in _direct_ensembles(space, tok, arts):
            errors = [estimation_error_km(p.location, estimate(direct, p)) for p in ho_tok]
            assert result.surface[(g, alpha, d)] == sum(errors) / len(errors)

    def test_error_vs_d_equals_grid_search_slice(self):
        tr, ho, space, tok, arts, ho_tok = _edge_case_search()
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        for g in space.g_values:
            ens = build_ensemble(tok, partition(BOUNDS, g), SmoothingConfig(), arts)
            for alpha in space.alpha_values:
                sweep = error_vs_d(ens, ho_tok, alpha=alpha)
                assert sweep == {d: result.surface[(g, alpha, d)] for d in range(1, g + 1)}

    def test_one_distance_per_winning_post_cell(self, monkeypatch):
        tr, ho, space, tok, arts, ho_tok = _edge_case_search()
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return geo_distance_km(a, b)

        monkeypatch.setattr(tuning, "geo_distance_km", counting)
        grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        winners = {
            (g, i, estimate(direct, p).cell)
            for g, _, _, direct in _direct_ensembles(space, tok, arts)
            for i, p in enumerate(ho_tok)
        }
        assert len(calls) == len(winners)
        assert len(calls) < len(ho_tok) * sum(g * g for g in space.g_values)


def test_grid_search_scores_each_g_in_one_batch(monkeypatch):
    # The hold-out posts of one g are scored in one posterior_matrix call,
    # never one post at a time through cell_log_scores.
    tr, ho, space, *_ = _edge_case_search()
    calls = {"posterior_matrix": 0, "cell_log_scores": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        tuning, "posterior_matrix", counted("posterior_matrix", tuning.posterior_matrix)
    )
    monkeypatch.setattr(
        estimator, "cell_log_scores", counted("cell_log_scores", estimator.cell_log_scores)
    )
    grid_search(tr, ho, space, BOUNDS, stopword_count=0)
    assert calls == {"posterior_matrix": len(space.g_values), "cell_log_scores": 0}


class TestErrorVsD:
    def _fitted(self, alpha, leakage=0.3, g=4):
        spec = SyntheticSpec(g=g, vocab_per_cell=15, posts_per_cell=60, leakage=leakage, seed=21)
        tr, ho, _ = _splits(spec, seed=2)
        tok, arts = build_training_corpus(tr, stopword_count=0)
        ens = build_ensemble(
            tok, partition(BOUNDS, g), SmoothingConfig(alpha=alpha, diameter=g), arts
        )
        return ens, [arts.preprocess(p) for p in ho]

    def test_alpha_zero_constant_in_d(self):
        ens, ho_tok = self._fitted(alpha=0.0)
        sweep = error_vs_d(ens, ho_tok, alpha=0.0)
        assert len(set(sweep.values())) == 1

    def test_saturates_at_g_minus_one(self):
        ens, ho_tok = self._fitted(alpha=0.9)
        sweep = error_vs_d(ens, ho_tok, alpha=0.9)
        assert sweep[3] == sweep[4]

    def test_alpha_outside_unit_interval_rejected(self):
        ens, ho_tok = self._fitted(alpha=0.5)
        for alpha in (-0.1, 2.5, float("nan")):
            with pytest.raises(ValidationError):
                error_vs_d(ens, ho_tok, alpha=alpha)

    def test_covers_one_through_g(self):
        ens, ho_tok = self._fitted(alpha=0.5)
        sweep = error_vs_d(ens, ho_tok, alpha=0.5)
        assert sorted(sweep) == [1, 2, 3, 4]
