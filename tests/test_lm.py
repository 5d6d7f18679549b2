"""Count tables, discounts, smoothed probabilities, and their invariants."""

import random
from math import exp, log

import pytest

from geopost import (
    BaselineInterpolation,
    CellId,
    UndefinedContextError,
    ValidationError,
    compute_discounts,
    train_cell,
)
from geopost.lm import MIN_PROB
from helpers import as_tokenized, random_token_corpus, reference_bigram_prob

CELL = CellId(0, 0)


def _model(token_lists):
    return train_cell(as_tokenized(token_lists), CELL)


class TestTrainCell:
    def test_counts_from_overlapping_pairs(self):
        m = _model([["a", "b", "a"]])
        assert m.counts.unigram == {"a": 2, "b": 1}
        assert m.counts.bigram == {"a": {"b": 1}, "b": {"a": 1}}
        assert m.counts.total_tokens == 3

    def test_empty_post_list(self):
        m = _model([])
        assert m.counts.unigram == {}
        assert m.counts.total_tokens == 0
        assert m.counts.total_distinct_bigrams == 0
        assert m.post_count == 0

    def test_single_token_post_has_no_pairs(self):
        m = _model([["x"]])
        assert m.counts.unigram == {"x": 1}
        assert m.counts.bigram == {}

    def test_no_cross_post_pairs(self):
        m = _model([["a"], ["b"]])
        assert m.counts.bigram == {}

    def test_distinct_left_tracks_completions(self):
        m = _model([["a", "b"], ["c", "b"], ["a", "c"]])
        assert m.counts.distinct_left == {"b": 2, "c": 1}
        assert m.counts.total_distinct_bigrams == 3


class TestComputeDiscounts:
    def test_plain_formula_values(self):
        d = compute_discounts(4, 2, 1, 1)
        assert d.d1 == pytest.approx(0.5, abs=1e-12)
        assert d.d2 == pytest.approx(1.25, abs=1e-12)
        assert d.d3 == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_falls_back(self):
        d = compute_discounts(0, 0, 0, 0)
        assert (d.d1, d.d2, d.d3) == (0.75, 0.75, 0.75)

    def test_clamping_and_zero_numerators(self):
        d = compute_discounts(1, 1, 2, 0)
        assert d.d1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert d.d2 == pytest.approx(0.0, abs=1e-12)
        assert d.d3 == pytest.approx(3.0, abs=1e-12)

    def test_bounds_on_random_inputs(self):
        rng = random.Random(5)
        for _ in range(500):
            d = compute_discounts(*(rng.randint(0, 20) for _ in range(4)))
            assert 0.0 <= d.d1 <= 1.0
            assert 0.0 <= d.d2 <= 2.0
            assert 0.0 <= d.d3 <= 3.0

    def test_bounds_on_trained_models(self):
        rng = random.Random(6)
        for _ in range(50):
            m = _model(random_token_corpus(rng))
            assert 0.0 <= m.discounts.d1 <= 1.0
            assert 0.0 <= m.discounts.d2 <= 2.0
            assert 0.0 <= m.discounts.d3 <= 3.0


class TestContinuationProb:
    def test_word_completing_every_pair(self):
        m = _model([["a", "b"], ["c", "b"]])
        assert m.continuation_prob("b") == 1.0

    def test_word_completing_nothing(self):
        m = _model([["a", "b"], ["c", "b"]])
        assert m.continuation_prob("a") == 0.0

    def test_half_of_pair_types(self):
        m = _model([["a", "b"], ["a", "c"]])
        assert m.continuation_prob("b") == 0.5

    def test_no_pairs_at_all(self):
        m = _model([["x"]])
        assert m.continuation_prob("x") == 0.0


class TestBackoffMass:
    def test_two_singleton_pairs(self):
        m = _model([["a", "b"], ["a", "c"]])
        assert m.backoff_mass("a") == pytest.approx(m.discounts.d1, abs=1e-12)

    def test_sequence_final_only_context(self):
        m = _model([["a", "b"]])
        assert m.backoff_mass("b") == 0.0

    def test_mixed_tiers(self):
        m = _model([["a", "b"], ["a", "b"], ["a", "c"]])
        d = m.discounts
        assert m.backoff_mass("a") == pytest.approx((d.d2 + d.d1) / 3.0, abs=1e-12)

    def test_unseen_context_raises(self):
        m = _model([["a", "b"]])
        with pytest.raises(UndefinedContextError):
            m.backoff_mass("z")


class TestBigramProb:
    def test_hand_value_on_two_pair_corpus(self):
        # (1 - d1)/2 + d1 * P_c(b) with P_c(b) = 1/2 evaluates to 0.5 for
        # any d1, so the assertion pins the whole expression.
        m = _model([["a", "b"], ["a", "c"]])
        assert m.bigram_prob("a", "b") == pytest.approx(0.5, abs=1e-12)

    def test_unknown_completion_hits_floor(self):
        m = _model([["a", "b"], ["a", "c"]])
        assert m.bigram_prob("a", "z") == MIN_PROB
        assert m.bigram_prob("z", "z") == MIN_PROB

    def test_unseen_context_backs_off_to_continuation(self):
        m = _model([["a", "b"], ["c", "b"]])
        assert m.bigram_prob("z", "b") == pytest.approx(m.continuation_prob("b"), abs=1e-12)

    def test_normalizes_over_vocabulary(self):
        # Unfloored probabilities over the full vocabulary sum to 1 for any
        # context that never ends a post.
        rng = random.Random(12)
        checked = 0
        while checked < 20:
            corpus = random_token_corpus(rng)
            m = _model(corpus)
            finals = {post[-1] for post in corpus}
            for v in m.counts.unigram:
                if v in finals:
                    continue
                total = sum(m._bigram_prob_raw(v, w) for w in m.counts.unigram)
                assert total == pytest.approx(1.0, abs=1e-9)
                checked += 1

    def test_matches_brute_force_reference(self):
        rng = random.Random(13)
        for _ in range(20):
            corpus = random_token_corpus(rng)
            m = _model(corpus)
            vocab = sorted(m.counts.unigram) + ["zz"]
            for v in vocab:
                for w in vocab:
                    assert m.bigram_prob(v, w) == pytest.approx(
                        reference_bigram_prob(corpus, v, w), abs=1e-12
                    )


class TestBaseline:
    def test_pure_mle_at_lambda1_one(self):
        m = _model([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(1.0)
        assert m.baseline_bigram_prob("a", "b", interp) == pytest.approx(0.5, abs=1e-12)

    def test_pure_unigram_at_lambda1_zero(self):
        m = _model([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(0.0)
        assert m.baseline_bigram_prob("a", "b", interp) == pytest.approx(0.25, abs=1e-12)

    def test_even_interpolation(self):
        m = _model([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(0.5)
        assert m.baseline_bigram_prob("a", "b", interp) == pytest.approx(0.375, abs=1e-12)

    def test_unseen_context_uses_unigram_alone(self):
        m = _model([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(0.7)
        assert m.baseline_bigram_prob("z", "a", interp) == pytest.approx(0.5, abs=1e-12)

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            BaselineInterpolation(1.1)
        # A bool is refused, as SmoothingConfig refuses a bool alpha.
        for flag in (True, False):
            with pytest.raises(ValidationError):
                BaselineInterpolation(flag)
        with pytest.raises(ValidationError):
            BaselineInterpolation(-0.1)

    def test_unigram_weight_is_the_complement(self):
        # The CLI's --baseline-lambda1 passed 1.0 - lambda1 explicitly;
        # the derived weight keeps those bits.
        for lam1 in (0.0, 0.3, 0.6, 0.7, 1.0):
            assert BaselineInterpolation(lam1).lambda2 == 1.0 - lam1


class TestSequenceLogProb:
    def test_empty_sequence(self):
        m = _model([["a", "b"]])
        assert m.sequence_log_prob(()) == 0.0

    def test_single_token(self):
        m = _model([["a", "b"]])
        assert m.sequence_log_prob(("a",)) == 0.0

    def test_composes_from_pair_probs(self):
        m = _model([["a", "b", "c"], ["a", "b"]])
        want = log(m.bigram_prob("a", "b")) + log(m.bigram_prob("b", "c"))
        assert m.sequence_log_prob(("a", "b", "c")) == pytest.approx(want, abs=1e-12)

    def test_exp_matches_direct_product(self):
        rng = random.Random(14)
        for _ in range(40):
            corpus = random_token_corpus(rng)
            m = _model(corpus)
            vocab = sorted(m.counts.unigram)
            seq = [rng.choice(vocab) for _ in range(rng.randint(2, 10))]
            product = 1.0
            for v, w in zip(seq, seq[1:]):
                product *= m.bigram_prob(v, w)
            assert exp(m.sequence_log_prob(seq)) == pytest.approx(product, rel=1e-9)

    def test_baseline_scoring_composes_from_baseline_pairs(self):
        m = _model([["a", "b", "c"], ["a", "b"]])
        interp = BaselineInterpolation(0.6)
        want = log(m.baseline_bigram_prob("a", "b", interp)) + log(
            m.baseline_bigram_prob("b", "c", interp)
        )
        assert m.sequence_log_prob(("a", "b", "c"), baseline=interp) == pytest.approx(
            want, abs=1e-12
        )


class TestEvidenceMonotonicity:
    def test_mle_evidence_is_monotone(self):
        # The un-smoothed estimate (baseline with lambda1 = 1) can only
        # grow when (v, w) is observed once more: (c+1)/(cv+1) >= c/cv.
        rng = random.Random(15)
        interp = BaselineInterpolation(1.0)
        for _ in range(100):
            corpus = random_token_corpus(rng)
            m = _model(corpus)
            pairs = [(v, w) for v, ws in m.counts.bigram.items() for w in ws]
            if not pairs:
                continue
            v, w = rng.choice(pairs)
            before = m.baseline_bigram_prob(v, w, interp)
            after = _model(corpus + [[v, w]]).baseline_bigram_prob(v, w, interp)
            assert after >= before - 1e-12

    def test_discount_tier_jump_can_reduce_smoothed_probability(self):
        # Tiered discounting is deliberately not monotone in the pair
        # count: one more observation can move a pair from the d2 tier to
        # the d3 tier and shrink the discounted direct term faster than
        # the freed back-off mass grows. Frozen counterexample.
        corpus = [
            ["t2", "t0", "t0", "t3"],
            ["t2", "t1"],
            ["t3", "t0", "t0", "t2"],
            ["t2", "t3", "t3"],
            ["t0"],
            ["t3", "t0", "t0"],
            ["t2", "t3", "t2", "t3", "t2", "t0"],
            ["t2", "t1"],
        ]
        before = _model(corpus).bigram_prob("t2", "t1")
        after = _model(corpus + [["t2", "t1"]]).bigram_prob("t2", "t1")
        assert after < before
