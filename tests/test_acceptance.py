"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Corpus-scale behavior is exercised on planted
synthetic data, where ground truth is known by construction.
"""

import random
import time
from contextlib import contextmanager

from geopost import (
    CellId,
    GeoBounds,
    GeoPoint,
    SearchSpace,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    build_ensemble,
    build_training_corpus,
    compute_discounts,
    estimate,
    estimate_batch,
    estimates_csv,
    estimation_error_km,
    error_report,
    generate_synthetic,
    geo_distance_km,
    grid_search,
    load_model,
    partition,
    save_model,
    split,
)
from geopost.estimator import smooth_vector
from geopost.tuning import error_vs_d
from helpers import one_cell_tables, pair_probs, random_token_corpus, reference_bigram_prob

import numpy as np

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _planted(spec, split_seed, stopword_count=0):
    raw = generate_synthetic(spec, BOUNDS)
    tr, ho, te = split(raw, SplitSpec(seed=split_seed))
    tok, arts = build_training_corpus(tr, stopword_count=stopword_count)
    return tok, arts, ho, te


def test_mkn_oracle_equivalence():
    # 50 randomized corpora of <= 30 tokens: the smoothed bigram
    # probability of the compiled tables (exp of a one-cell ensemble's
    # pair scores) matches an independent brute-force evaluator to 1e-12,
    # in under 5 seconds.
    with criterion("mkn-oracle-equivalence"):
        started = time.perf_counter()
        rng = random.Random(1301)
        for _ in range(50):
            corpus = random_token_corpus(rng, max_tokens=30)
            tables = one_cell_tables(corpus)
            vocab = list(tables.vocab) + ["unseen"]
            pairs = [(v, w) for v in vocab for w in vocab]
            for (v, w), got in zip(pairs, pair_probs(tables, pairs)):
                want = reference_bigram_prob(corpus, v, w)
                assert abs(got - want) <= 1e-12, (corpus, v, w, got, want)
        assert time.perf_counter() - started < 5.0


def test_bigram_normalization():
    # For every context that never ends a post, the compiled tables'
    # probabilities over the vocabulary sum to 1 +/- 1e-9, across 20
    # random models; the floor adds at most 1e-12 per word of <= 8.
    with criterion("bigram-normalization"):
        rng = random.Random(1302)
        models = 0
        while models < 20:
            corpus = random_token_corpus(rng, max_tokens=40)
            tables = one_cell_tables(corpus)
            finals = {post[-1] for post in corpus}
            contexts = [v for v in tables.vocab if v not in finals]
            if not contexts:
                continue
            for v in contexts:
                total = sum(pair_probs(tables, [(v, w) for w in tables.vocab]))
                assert abs(total - 1.0) <= 1e-9
            models += 1


def test_discount_formulas():
    # Hand-derived values for the plain, fallback, and clamp branches.
    with criterion("discount-formulas"):
        d = compute_discounts(4, 2, 1, 1)
        assert abs(d.d1 - 0.5) <= 1e-12
        assert abs(d.d2 - 1.25) <= 1e-12
        assert abs(d.d3 - 1.0) <= 1e-12

        d = compute_discounts(0, 0, 0, 0)
        assert (d.d1, d.d2, d.d3) == (0.75, 0.75, 0.75)

        d = compute_discounts(1, 1, 2, 0)
        assert abs(d.d1 - 1.0 / 3.0) <= 1e-12
        assert abs(d.d2 - 0.0) <= 1e-12
        assert abs(d.d3 - 3.0) <= 1e-12


def test_geo_smoothing_formula():
    # Hand-computed 3x3 fields to 1e-12 plus the alpha = 0 identity on
    # 100 random fields.
    with criterion("geo-smoothing-formula"):
        part = partition(BOUNDS, 3)
        idx = {cell: i for i, cell in enumerate(part.cells())}

        u = 1.0 / 9.0
        out = smooth_vector(part, np.full(9, u), 0.9, 1)
        assert abs(out[idx[CellId(1, 1)]] - (0.1 * u + 0.9 * u)) <= 1e-12
        assert abs(out[idx[CellId(0, 1)]] - (0.1 * u + 0.9 * 5 * u / 8)) <= 1e-12
        assert abs(out[idx[CellId(0, 0)]] - (0.1 * u + 0.9 * 3 * u / 8)) <= 1e-12

        spike = np.zeros(9)
        spike[idx[CellId(0, 0)]] = 1.0
        out = smooth_vector(part, spike, 0.9, 2)
        assert abs(out[idx[CellId(0, 0)]] - 0.1) <= 1e-12
        for cell in (CellId(0, 1), CellId(1, 0), CellId(1, 1)):
            assert abs(out[idx[cell]] - 0.9 / 8) <= 1e-12
        for cell in (CellId(0, 2), CellId(1, 2), CellId(2, 0), CellId(2, 1), CellId(2, 2)):
            assert abs(out[idx[cell]] - 0.9 / 24) <= 1e-12

        rng = random.Random(1304)
        part4 = partition(BOUNDS, 4)
        for _ in range(100):
            raw = np.array([rng.random() for _ in range(16)])
            vec = raw / raw.sum()
            assert np.array_equal(smooth_vector(part4, vec, 0.0, 4), vec)


def test_ring_saturation():
    # On 1,000 synthetic posts with g = 8, estimates for d = g-1 and
    # d = g+5 are identical.
    with criterion("ring-saturation"):
        spec = SyntheticSpec(
            g=8, vocab_per_cell=15, posts_per_cell=40, tokens_per_post=6, leakage=0.3, seed=1305
        )
        tok, arts, _, _ = _planted(spec, split_seed=2)
        part = partition(BOUNDS, 8)
        ens_lo = build_ensemble(tok, part, SmoothingConfig(alpha=0.9, diameter=7), arts)
        ens_hi = ens_lo.with_smoothing(SmoothingConfig(alpha=0.9, diameter=13))

        query_spec = SyntheticSpec(
            g=8, vocab_per_cell=15, posts_per_cell=16, tokens_per_post=6, leakage=0.3, seed=9901
        )
        queries = [arts.preprocess(p) for p in generate_synthetic(query_spec, BOUNDS)][:1000]
        assert len(queries) == 1000
        for post in queries:
            assert estimate(ens_lo, post) == estimate(ens_hi, post)


def test_synthetic_recovery():
    # Zero leakage, g = 4, 500 posts/cell, 6 tokens/post, alpha = 0:
    # at least 99% of held-out posts land in their true cell and the mean
    # error stays below half the cell diagonal, within 60 seconds.
    with criterion("synthetic-recovery"):
        started = time.perf_counter()
        spec = SyntheticSpec(
            g=4, vocab_per_cell=20, posts_per_cell=500, tokens_per_post=6, leakage=0.0, seed=1306
        )
        tok, arts, ho, te = _planted(spec, split_seed=3)
        part = partition(BOUNDS, 4)
        ens = build_ensemble(tok, part, SmoothingConfig(alpha=0.0, diameter=4), arts)

        held_out = [arts.preprocess(p) for p in te]
        hits = 0
        errors = []
        for post in held_out:
            est = estimate(ens, post)
            if est.cell == part.cell_of(post.location):
                hits += 1
            errors.append(estimation_error_km(post.location, est))
        accuracy = hits / len(held_out)
        mean_error = sum(errors) / len(errors)

        lat_lo, lat_hi, lon_lo, lon_hi = part.cell_rect(CellId(0, 0))
        half_diagonal = geo_distance_km(GeoPoint(lat_lo, lon_lo), GeoPoint(lat_hi, lon_hi)) / 2
        assert accuracy >= 0.99, accuracy
        assert mean_error < half_diagonal, (mean_error, half_diagonal)
        assert time.perf_counter() - started < 60.0


def test_qualitative_error_vs_diameter_shape():
    # Leakage 0.5 with adjacent cells sharing 30% of vocabulary usage:
    # widening the smoothing ring from d = 1 to d = 2 does not hurt, and
    # the d-sweep converges to identical values by d = g-1.
    with criterion("qualitative-d-sweep-shape"):
        spec = SyntheticSpec(
            g=8,
            vocab_per_cell=20,
            posts_per_cell=120,
            tokens_per_post=6,
            leakage=0.5,
            neighbor_overlap=0.3,
            seed=1307,
        )
        tok, arts, ho, _ = _planted(spec, split_seed=9)
        part = partition(BOUNDS, 8)
        ens = build_ensemble(tok, part, SmoothingConfig(alpha=0.9, diameter=8), arts)
        sweep = error_vs_d(ens, [arts.preprocess(p) for p in ho], alpha=0.9)
        assert sweep[2] <= sweep[1], sweep
        assert sweep[7] == sweep[8], sweep


def test_tuner_correctness():
    # A corpus planted on a 4x4 grid makes the search over g in {2, 4, 8}
    # select g = 4, and cached-surface errors equal from-scratch
    # evaluation to 1e-12 on three sampled triples.
    with criterion("tuner-correctness"):
        spec = SyntheticSpec(
            g=4, vocab_per_cell=20, posts_per_cell=150, tokens_per_post=6, leakage=0.0, seed=1308
        )
        raw = generate_synthetic(spec, BOUNDS)
        tr, ho, _ = split(raw, SplitSpec(seed=4))
        space = SearchSpace(g_values=(2, 4, 8), alpha_values=(0.0, 0.5, 0.9))
        result = grid_search(tr, ho, space, BOUNDS, stopword_count=0)
        assert result.best[0] == 4, result.best

        tok, arts = build_training_corpus(tr, stopword_count=0)
        ho_tok = [arts.preprocess(p) for p in ho]
        rng = random.Random(1309)
        for g, alpha, d in rng.sample(sorted(result.surface), 3):
            ens = build_ensemble(
                tok, partition(BOUNDS, g), SmoothingConfig(alpha=alpha, diameter=d), arts
            )
            errors = [estimation_error_km(p.location, estimate(ens, p)) for p in ho_tok]
            scratch = sum(errors) / len(errors)
            assert abs(result.surface[(g, alpha, d)] - scratch) <= 1e-12


def test_cdf_monotonicity_and_split_determinism():
    # Fuzzed error lists give strictly increasing CDFs ending at 1;
    # fuzzed corpora split identically under identical seeds and cover
    # every post exactly once.
    with criterion("cdf-and-split-suites"):
        rng = random.Random(1310)
        for _ in range(100):
            errors = [(str(i), rng.random() * 10) for i in range(rng.randint(1, 50))]
            report = error_report(errors)
            fractions = [f for _, f in report.cdf_points]
            assert all(b > a for a, b in zip(fractions, fractions[1:]))
            assert abs(fractions[-1] - 1.0) <= 1e-12

        from geopost import RawPost

        for _ in range(50):
            n = rng.randint(0, 80)
            corpus = [RawPost(str(i), "text") for i in range(n)]
            seed = rng.randint(0, 10_000)
            first = split(corpus, SplitSpec(seed=seed))
            second = split(corpus, SplitSpec(seed=seed))
            assert first == second
            tr, ho, te = first
            assert sorted(p.id for p in [*tr, *ho, *te]) == sorted(p.id for p in corpus)


def test_round_trip_persistence(tmp_path):
    # train -> save -> load -> estimate equals in-memory estimates byte
    # for byte.
    with criterion("round-trip-persistence"):
        spec = SyntheticSpec(
            g=3, vocab_per_cell=12, posts_per_cell=60, tokens_per_post=6, leakage=0.2, seed=1311
        )
        tok, arts, ho, te = _planted(spec, split_seed=5, stopword_count=5)
        part = partition(BOUNDS, 3)
        ens = build_ensemble(tok, part, SmoothingConfig(alpha=0.9, diameter=3), arts)

        save_model(ens, tmp_path / "model", seed=5)
        loaded = load_model(tmp_path / "model")

        queries = [arts.preprocess(p) for p in [*ho, *te]]
        in_memory = estimates_csv(queries, estimate_batch(ens, queries))
        reloaded = estimates_csv(queries, estimate_batch(loaded, queries))
        assert in_memory.encode() == reloaded.encode()
