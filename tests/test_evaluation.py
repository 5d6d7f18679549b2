"""Splitting, error aggregation, and the synthetic corpus generator."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from geopost import (
    GeoBounds,
    GeoPoint,
    RawCorpus,
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
from geopost.evaluation import MAX_HISTOGRAM_BINS
from helpers import PINNED_SPECS

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)


def _corpus(n):
    return [RawPost(str(i), f"post number {i}") for i in range(n)]


# Posts told apart by id, some of them located, with int and float
# coordinates on and inside the range edges.
_coordinates = st.one_of(
    st.none(),
    st.builds(
        GeoPoint,
        st.one_of(st.integers(-90, 90), st.floats(-90, 90)),
        st.one_of(st.integers(-180, 180), st.floats(-180, 180)),
    ),
)
_posts = st.lists(st.tuples(st.text(max_size=5), _coordinates), max_size=40).map(
    lambda rows: [RawPost(str(i), text, loc) for i, (text, loc) in enumerate(rows)]
)
_fractions = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted)


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
        assert [list(part) for part in split([], SplitSpec(seed=1))] == [[], [], []]

    @settings(max_examples=200, deadline=None)
    @given(_posts, _fractions, st.integers(0, 2**64))
    def test_cuts_a_shuffle_of_the_post_list(self, posts, fractions, seed):
        # Shuffling the indices gives the permutation that shuffling the
        # posts gives, for a list and for its columns alike.
        spec = SplitSpec(fractions[0], fractions[1] - fractions[0], seed)
        want = reference.split(posts, spec)
        for corpus in (posts, RawCorpus.of(posts)):
            parts = split(corpus, spec)
            assert all(isinstance(part, RawCorpus) for part in parts)
            assert [list(part) for part in parts] == want

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
            ids = [p.id for p in [*tr, *ho, *te]]
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
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_fractions_must_be_numbers(self, name, value):
        # train_frac=True, holdout_frac=False put every post in train.
        with pytest.raises(ValidationError, match=f"^{name} must be a finite number >= 0") as exc:
            SplitSpec(**{name: value})
        assert str(exc.value).endswith(f"got {value!r}")

    @pytest.mark.parametrize("name", ["train_frac", "holdout_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fractions_rejected(self, name, value):
        # nan < 0 is False, so a NaN fraction passed the sign check and
        # made split fail with a bare ValueError.
        with pytest.raises(ValidationError, match=f"{name} must be a finite number >= 0"):
            SplitSpec(**{name: value})

    @pytest.mark.parametrize("name", ["train_frac", "holdout_frac"])
    @pytest.mark.parametrize("value", [10**400, -(10**5000)], ids=["1e400", "-1e5000"])
    def test_fraction_past_the_float_range_rejected(self, name, value):
        # 10**400 passed the range check and then raised a bare
        # OverflowError converting to float; the repr of -10**5000 raised
        # ValueError past Python's int digit limit.
        message = f"^{name} must be a finite number >= 0, got a number past the float range$"
        with pytest.raises(ValidationError, match=message):
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

    @pytest.mark.parametrize("width", [True, "0.25", None])
    def test_bin_width_must_be_a_number(self, width):
        # True gave the integer bin edges 0 and 1.
        with pytest.raises(ValidationError, match="^bin width must be a finite number > 0") as exc:
            error_report([("a", 1.0)], bin_width_km=width)
        assert str(exc.value).endswith(f"got {width!r}")

    @pytest.mark.parametrize("width", [10**400, 10**5000], ids=["1e400", "1e5000"])
    def test_bin_width_past_the_float_range_rejected(self, width):
        # 10**400 passed the range check and then raised a bare
        # OverflowError converting to float.
        message = "^bin width must be a finite number > 0, got a number past the float range$"
        with pytest.raises(ValidationError, match=message):
            error_report([("a", 1.0)], bin_width_km=width)

    @pytest.mark.parametrize("width", [1e-300, 5e-324, 2.9e-6])
    def test_histogram_bin_count_is_bounded(self, width):
        # 1e-300 raised OverflowError sizing the histogram list.
        with pytest.raises(ValidationError, match="more than 1000000 histogram bins"):
            error_report([("a", 3.0), ("b", 1.0)], bin_width_km=width)

    def test_histogram_may_fill_every_allowed_bin(self):
        # Quarter-km errors are exact binary fractions, so the last bin's
        # index is exact on both sides of the limit.
        top = (MAX_HISTOGRAM_BINS - 1) * 0.25
        report = error_report([("a", 0.0), ("b", top)], bin_width_km=0.25)
        assert len(report.histogram) == MAX_HISTOGRAM_BINS
        assert report.histogram[0][1] == report.histogram[-1][1] == 1
        with pytest.raises(ValidationError, match="more than 1000000 histogram bins"):
            error_report([("a", 0.0), ("b", top + 0.25)], bin_width_km=0.25)

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
        with pytest.raises(ValidationError, match="shared_vocab must be >= 0, got -1"):
            SyntheticSpec(g=2, shared_vocab=-1)

    @pytest.mark.parametrize("name", ["leakage", "neighbor_overlap"])
    def test_share_past_the_float_range_rejected(self, name):
        # Making the repr of 10**5000 raised ValueError past Python's int
        # digit limit.
        message = rf"^{name} must lie in \[0, 1\], got a number past the float range$"
        with pytest.raises(ValidationError, match=message):
            SyntheticSpec(g=2, **{name: 10**5000})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("vocab_per_cell", 2.5),
            ("posts_per_cell", 2.5),
            ("tokens_per_post", True),
            ("tokens_per_post", 0),
            ("vocab_per_cell", "3"),
            ("shared_vocab", 1.5),
            ("shared_vocab", True),
            ("shared_vocab", np.int64(-1)),
        ],
    )
    def test_counts_must_be_ints(self, name, value):
        # Checked as the grid dimension is; shared_vocab may also be 0.
        with pytest.raises(ValidationError, match=f"^{name} must be") as exc:
            SyntheticSpec(g=2, **{name: value})
        assert str(exc.value).endswith(f"got {value!r}")

    def test_numpy_counts_give_the_int_corpus(self):
        counts = dict(vocab_per_cell=3, shared_vocab=2, posts_per_cell=4, tokens_per_post=5)
        spec = SyntheticSpec(g=2, seed=3, **{k: np.int64(v) for k, v in counts.items()})
        assert all(type(getattr(spec, name)) is int for name in counts)
        want = SyntheticSpec(g=2, seed=3, **counts)
        assert generate_synthetic(spec, BOUNDS) == generate_synthetic(want, BOUNDS)

    @pytest.mark.parametrize("name", ["leakage", "neighbor_overlap"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, 1.5, float("nan")])
    def test_shares_must_be_numbers_in_the_unit_interval(self, name, value):
        # leakage=True ran with leakage 1; a string raised a bare TypeError.
        with pytest.raises(ValidationError, match=f"^{name} must lie in \\[0, 1\\]") as exc:
            SyntheticSpec(g=2, **{name: value})
        assert str(exc.value).endswith(f"got {value!r}")

    def test_numpy_shares_give_the_float_corpus(self):
        spec = SyntheticSpec(g=2, leakage=np.float64(0.25), neighbor_overlap=0, seed=3)
        assert type(spec.leakage) is float and type(spec.neighbor_overlap) is float
        want = SyntheticSpec(g=2, leakage=0.25, neighbor_overlap=0.0, seed=3)
        assert generate_synthetic(spec, BOUNDS) == generate_synthetic(want, BOUNDS)

    @pytest.mark.parametrize("g", [True, 2.5, 0, "3", np.int64(-2)])
    def test_grid_dimension_checked_as_partition_does(self, g):
        with pytest.raises(ValidationError, match="grid dimension must be") as exc:
            SyntheticSpec(g=g)
        assert str(exc.value).endswith(f"got {g!r}")

    def test_numpy_grid_dimension_gives_the_int_corpus(self):
        spec = SyntheticSpec(g=np.int64(2), vocab_per_cell=5, posts_per_cell=4, seed=3)
        assert type(spec.g) is int
        want = SyntheticSpec(g=2, vocab_per_cell=5, posts_per_cell=4, seed=3)
        assert generate_synthetic(spec, BOUNDS) == generate_synthetic(want, BOUNDS)


def _corpus_digest(posts) -> str:
    h = hashlib.sha256()
    for p in posts:
        h.update(f"{p.id}\t{p.text}\t{p.location.lat!r}\t{p.location.lon!r}\n".encode())
    return h.hexdigest()


class TestPinnedCorpora:
    """SHA-256 of id, text and ``repr`` of lat/lon of every post: a change
    to the generator that alters one byte of these corpora fails here."""

    @pytest.mark.parametrize(
        "name, seed, digest",
        [
            ("city-g8", 1, "238186e2a69f83696920ed1a8385bcae34513d2f26e5ade7750acd4b85378348"),
            ("city-g8", 2, "3bf16bc3f0fcfca8a7c61f17d0bf30337064f62c42cd39abacdc3dfd189e3530"),
            ("fine-g12", 1, "7490a424f6d4b85422d7fffa4bac64a9f2e3a59c0f7f27b4f51d32b090e207b5"),
            ("fine-g12", 2, "e2fb58e5f91b64651f5f7dc768d34a1f005756a3551c95fa6c21eaaedf3f3669"),
            ("tune", 1, "98f641900fba98be5d8da65a0e70f984ebbcdd9f2ef42b85b206df16811830c6"),
            ("tune", 2, "6aa6ccd2b13a5ca767b2a058903fbb4253c866d3afe2eb76c4f2f21491fdb60c"),
            ("g1", 3, "9397dc9db03e0116f3a06e4025048c4e28ba60f638ba739541eabb4e0f5ec4d7"),
            ("g2", 4, "4bacadb5c70949f0445bbece4821caf3ce0958f4d0d3cb2829543774bcef7031"),
        ],
    )
    def test_digest(self, name, seed, digest):
        spec = SyntheticSpec(seed=seed, **PINNED_SPECS[name])
        assert _corpus_digest(generate_synthetic(spec, BOUNDS)) == digest


class TestEstimationErrorKm:
    def test_truth_at_center_is_zero(self):
        spec = SyntheticSpec(g=2, vocab_per_cell=5, posts_per_cell=30, seed=8)
        raw = generate_synthetic(spec, BOUNDS)
        corpus, arts = build_training_corpus(raw, stopword_count=0)
        part = partition(BOUNDS, 2)
        ens = build_ensemble(corpus, part, SmoothingConfig(alpha=0.0, diameter=2), arts)
        from geopost import estimate

        post = arts.preprocess(raw[0])
        est = estimate(ens, post)
        center = part.center_of(part.cell_of(post.location))
        assert estimation_error_km(center, est) == 0.0

    def test_evaluate_refuses_no_posts_and_unlocated_posts(self):
        spec = SyntheticSpec(g=2, vocab_per_cell=5, posts_per_cell=10, seed=8)
        raw = generate_synthetic(spec, BOUNDS)
        corpus, arts = build_training_corpus(raw, stopword_count=0)
        ens = build_ensemble(corpus, partition(BOUNDS, 2), SmoothingConfig(), arts)
        with pytest.raises(ValidationError, match="cannot evaluate an empty test set"):
            evaluate(ens, [])
        unlocated = [arts.preprocess(raw[0]), arts.preprocess(RawPost("u", "c0x0w1"))]
        with pytest.raises(ValidationError, match="test post 'u' has no truth location"):
            evaluate(ens, unlocated)


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
