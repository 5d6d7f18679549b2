"""Splitting, error aggregation, and the synthetic corpus generator."""

import random

import pytest

from geopost import (
    GeoBounds,
    RawPost,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    ValidationError,
    build_ensemble,
    build_training_corpus,
    error_report,
    estimation_error_km,
    evaluate,
    generate_synthetic,
    partition,
    split,
)

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)


def _corpus(n):
    return [RawPost(str(i), f"post number {i}") for i in range(n)]


class TestSplit:
    def test_exact_fractions(self):
        tr, ho, te = split(_corpus(100), SplitSpec(seed=1))
        assert (len(tr), len(ho), len(te)) == (70, 15, 15)

    def test_floor_floor_remainder(self):
        tr, ho, te = split(_corpus(10), SplitSpec(seed=1))
        assert (len(tr), len(ho), len(te)) == (7, 1, 2)

    def test_same_seed_identical(self):
        a = split(_corpus(37), SplitSpec(seed=123))
        b = split(_corpus(37), SplitSpec(seed=123))
        assert a == b

    def test_different_seed_differs(self):
        a = split(_corpus(200), SplitSpec(seed=1))
        b = split(_corpus(200), SplitSpec(seed=2))
        assert a != b

    def test_empty_corpus(self):
        assert split([], SplitSpec(seed=1)) == ([], [], [])

    def test_disjoint_and_exhaustive_fuzz(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(0, 60)
            fracs = sorted(rng.random() for _ in range(2))
            spec = SplitSpec(
                train_frac=fracs[0],
                holdout_frac=fracs[1] - fracs[0],
                seed=rng.randint(0, 10_000),
            )
            corpus = _corpus(n)
            tr, ho, te = split(corpus, spec)
            ids = [p.id for p in tr + ho + te]
            assert len(ids) == n
            assert sorted(ids) == sorted(p.id for p in corpus)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValidationError):
            SplitSpec(train_frac=0.9, holdout_frac=0.3)
        with pytest.raises(ValidationError):
            SplitSpec(train_frac=-0.2, holdout_frac=0.6)
        with pytest.raises(ValidationError):
            SplitSpec(train_frac=0.5, holdout_frac=-0.1)

    @pytest.mark.parametrize("name", ["train_frac", "holdout_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fractions_rejected(self, name, value):
        # nan < 0 is False, so a NaN fraction passed the sign check and
        # made split fail with a bare ValueError.
        with pytest.raises(ValidationError, match=f"{name} must be a finite number >= 0"):
            SplitSpec(**{name: value})


class TestErrorReport:
    def test_single_error(self):
        report = error_report([("p", 2.0)])
        assert report.mean_error_km == 2.0
        assert report.cdf_points == ((2.0, 1.0),)

    def test_three_errors_mean_and_cdf(self):
        report = error_report([("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert report.mean_error_km == pytest.approx(2.0, abs=1e-12)
        assert report.cdf_points == ((1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0))

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -0.25])
    def test_bin_width_must_be_finite_and_positive(self, width):
        # A NaN width failed converting NaN to int, and an infinite one
        # gave the one histogram row (nan, 1, 1.0).
        with pytest.raises(ValidationError, match="bin width must be a finite number > 0"):
            error_report([("a", 1.0)], bin_width_km=width)

    def test_histogram_bins(self):
        report = error_report([("a", 0.0), ("b", 0.1), ("c", 0.3), ("d", 0.5)], bin_width_km=0.25)
        assert report.histogram == ((0.0, 2, 0.5), (0.25, 1, 0.25), (0.5, 1, 0.25))

    def test_cdf_monotone_ends_at_one_fuzz(self):
        rng = random.Random(10)
        for _ in range(50):
            errors = [(str(i), rng.random() * 8) for i in range(rng.randint(1, 40))]
            report = error_report(errors)
            fractions = [f for _, f in report.cdf_points]
            assert all(b > a for a, b in zip(fractions, fractions[1:]))
            assert fractions[-1] == pytest.approx(1.0, abs=1e-12)
            assert report.mean_error_km == pytest.approx(
                sum(e for _, e in errors) / len(errors), abs=1e-9
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            error_report([])


class TestSynthetic:
    def test_post_count(self):
        posts = generate_synthetic(SyntheticSpec(g=2, posts_per_cell=10, seed=1), BOUNDS)
        assert len(posts) == 40

    def test_zero_leakage_tokens_identify_cell(self):
        spec = SyntheticSpec(g=2, vocab_per_cell=5, posts_per_cell=20, seed=2)
        part = partition(BOUNDS, 2)
        for post in generate_synthetic(spec, BOUNDS):
            cell = part.cell_of(post.location)
            prefix = f"c{cell.row}x{cell.col}w"
            assert all(tok.startswith(prefix) for tok in post.text.split())

    def test_full_leakage_tokens_never_from_own_cell(self):
        spec = SyntheticSpec(g=2, vocab_per_cell=5, posts_per_cell=20, leakage=1.0, seed=3)
        part = partition(BOUNDS, 2)
        for post in generate_synthetic(spec, BOUNDS):
            cell = part.cell_of(post.location)
            prefix = f"c{cell.row}x{cell.col}w"
            assert not any(tok.startswith(prefix) for tok in post.text.split())

    def test_same_seed_identical_corpus(self):
        spec = SyntheticSpec(g=3, posts_per_cell=15, leakage=0.4, neighbor_overlap=0.2, seed=7)
        assert generate_synthetic(spec, BOUNDS) == generate_synthetic(spec, BOUNDS)

    def test_locations_inside_assigned_cell(self):
        spec = SyntheticSpec(g=4, posts_per_cell=25, seed=5)
        part = partition(BOUNDS, 4)
        for post in generate_synthetic(spec, BOUNDS):
            r, c = post.id.split("-")[1].lstrip("r").split("c")
            assert part.cell_of(post.location).row == int(r)
            assert part.cell_of(post.location).col == int(c)

    def test_neighbor_overlap_draws_only_from_adjacent_cells(self):
        spec = SyntheticSpec(g=3, vocab_per_cell=4, posts_per_cell=30, neighbor_overlap=0.5, seed=6)
        part = partition(BOUNDS, 3)
        for post in generate_synthetic(spec, BOUNDS):
            cell = part.cell_of(post.location)
            allowed = {cell} | part.ring_neighbors(cell, 1)
            prefixes = {f"c{c.row}x{c.col}w" for c in allowed}
            for tok in post.text.split():
                assert any(tok.startswith(p) for p in prefixes)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(g=0)
        with pytest.raises(ValidationError):
            SyntheticSpec(g=2, leakage=1.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(g=2, tokens_per_post=0)


class TestEstimationErrorKm:
    def test_truth_at_center_is_zero(self):
        spec = SyntheticSpec(g=2, vocab_per_cell=5, posts_per_cell=30, seed=8)
        raw = generate_synthetic(spec, BOUNDS)
        tok, arts = build_training_corpus(raw, stopword_count=0)
        part = partition(BOUNDS, 2)
        ens = build_ensemble(tok, part, SmoothingConfig(alpha=0.0, diameter=2), arts)
        from geopost import estimate

        post = tok[0]
        est = estimate(ens, post)
        center = part.center_of(part.cell_of(post.location))
        assert estimation_error_km(center, est) == 0.0


class TestLeakageDegradation:
    def test_error_grows_with_leakage(self):
        means = {}
        for leak in (0.0, 0.25, 0.5, 0.75, 1.0):
            spec = SyntheticSpec(
                g=3, vocab_per_cell=15, posts_per_cell=200, tokens_per_post=6, leakage=leak, seed=17
            )
            raw = generate_synthetic(spec, BOUNDS)
            tr, ho, te = split(raw, SplitSpec(seed=6))
            tok, arts = build_training_corpus(tr, stopword_count=0)
            ens = build_ensemble(
                tok, partition(BOUNDS, 3), SmoothingConfig(alpha=0.0, diameter=3), arts
            )
            report = evaluate(ens, [arts.preprocess(p) for p in te])
            means[leak] = report.mean_error_km
        ordered = [means[k] for k in sorted(means)]
        inversions = sum(1 for a, b in zip(ordered, ordered[1:]) if b < a - 1e-12)
        assert inversions <= 1
        assert means[0.0] < means[1.0]
