"""Count tables, discounts, smoothed probabilities, and their invariants.

The hand values are checked on the compiled tables of a one-cell
ensemble: gamma through ``word_gamma``, p_cont through ``word_pcont_id``,
P(w | v) and the baseline (through ``interpolated``) by ``log_likelihood``. ``TestTrainCell``
and the unseen-context case describe the reference model of
``tests/reference.py`` and run on it.
"""

import random
from math import exp, log

import numpy as np
import pytest

from geopost import BaselineInterpolation, CellId, ValidationError, compute_discounts
from geopost.lm import MIN_PROB
from helpers import (
    as_tokenized,
    one_cell_tables,
    pair_probs,
    random_token_corpus,
    reference_bigram_prob,
)
from reference import UndefinedContextError, train_cell

CELL = CellId(0, 0)


def _model(token_lists):
    return train_cell(as_tokenized(token_lists), CELL)


def _entry(tables, column, word):
    """``word``'s value in ``column`` of a one-cell ensemble."""
    return column[tables.word_ptr[tables.index[word]]]


def _gamma(tables, v):
    return _entry(tables, tables.word_gamma, v)


def _pcont(tables, w):
    return tables.pcont[_entry(tables, tables.word_pcont_id, w)]


def _prob(tables, v, w, baseline=None):
    return pair_probs(tables, [(v, w)], baseline)[0]


def _log_prob(tables, tokens, baseline=None):
    if baseline is not None:
        tables = tables.interpolated(baseline)
    (lp,) = tables.log_likelihood(tokens).tolist()
    return lp


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
            (d,) = one_cell_tables(random_token_corpus(rng)).discounts
            assert 0.0 <= d.d1 <= 1.0
            assert 0.0 <= d.d2 <= 2.0
            assert 0.0 <= d.d3 <= 3.0


class TestContinuationProb:
    def test_word_completing_every_pair(self):
        t = one_cell_tables([["a", "b"], ["c", "b"]])
        assert _pcont(t, "b") == 1.0

    def test_word_completing_nothing(self):
        t = one_cell_tables([["a", "b"], ["c", "b"]])
        assert _pcont(t, "a") == 0.0

    def test_half_of_pair_types(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        assert _pcont(t, "b") == 0.5

    def test_no_pairs_at_all(self):
        t = one_cell_tables([["x"]])
        assert _pcont(t, "x") == 0.0


class TestBackoffMass:
    def test_two_singleton_pairs(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        assert _gamma(t, "a") == pytest.approx(t.discounts[0].d1, abs=1e-12)

    def test_sequence_final_only_context(self):
        # "b" is seen but never starts a pair: no mass is freed, so P(w | b)
        # is the discounted direct term alone, 0 for every w.
        t = one_cell_tables([["a", "b"]])
        assert _gamma(t, "b") == 0.0
        assert _log_prob(t, ["b", "a"]) == log(MIN_PROB)

    def test_mixed_tiers(self):
        t = one_cell_tables([["a", "b"], ["a", "b"], ["a", "c"]])
        d = t.discounts[0]
        assert _gamma(t, "a") == pytest.approx((d.d2 + d.d1) / 3.0, abs=1e-12)

    def test_unseen_context_raises(self):
        m = _model([["a", "b"]])
        with pytest.raises(UndefinedContextError):
            m.backoff_mass("z")


class TestBigramProb:
    def test_hand_value_on_two_pair_corpus(self):
        # (1 - d1)/2 + d1 * P_c(b) with P_c(b) = 1/2 evaluates to 0.5 for
        # any d1, so the assertion pins the whole expression.
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        assert _prob(t, "a", "b") == pytest.approx(0.5, abs=1e-12)

    def test_unknown_completion_hits_floor(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        assert _log_prob(t, ["a", "z"]) == log(MIN_PROB)
        assert _log_prob(t, ["z", "z"]) == log(MIN_PROB)

    def test_unseen_context_backs_off_to_continuation(self):
        t = one_cell_tables([["a", "b"], ["c", "b"]])
        assert _prob(t, "z", "b") == pytest.approx(_pcont(t, "b"), abs=1e-12)

    def test_normalizes_over_vocabulary(self):
        # Probabilities over the full vocabulary sum to 1 for any context
        # that never ends a post; the floor adds at most 1e-12 per word.
        rng = random.Random(12)
        checked = 0
        while checked < 20:
            corpus = random_token_corpus(rng)
            t = one_cell_tables(corpus)
            finals = {post[-1] for post in corpus}
            for v in t.vocab:
                if v in finals:
                    continue
                total = sum(pair_probs(t, [(v, w) for w in t.vocab]))
                assert total == pytest.approx(1.0, abs=1e-9)
                checked += 1

    def test_matches_brute_force_reference(self):
        rng = random.Random(13)
        for _ in range(20):
            corpus = random_token_corpus(rng)
            t = one_cell_tables(corpus)
            vocab = list(t.vocab) + ["zz"]
            pairs = [(v, w) for v in vocab for w in vocab]
            for (v, w), p in zip(pairs, pair_probs(t, pairs)):
                assert p == pytest.approx(reference_bigram_prob(corpus, v, w), abs=1e-12)


class TestBaseline:
    def test_pure_mle_at_lambda1_one(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(1.0)
        assert _prob(t, "a", "b", interp) == pytest.approx(0.5, abs=1e-12)

    def test_pure_unigram_at_lambda1_zero(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(0.0)
        assert _prob(t, "a", "b", interp) == pytest.approx(0.25, abs=1e-12)

    def test_even_interpolation(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(0.5)
        assert _prob(t, "a", "b", interp) == pytest.approx(0.375, abs=1e-12)

    def test_unseen_context_uses_unigram_alone(self):
        t = one_cell_tables([["a", "b"], ["a", "c"]])
        interp = BaselineInterpolation(0.7)
        assert _prob(t, "z", "a", interp) == pytest.approx(0.5, abs=1e-12)

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            BaselineInterpolation(1.1)
        # A bool is refused, as SmoothingConfig refuses a bool alpha.
        for flag in (True, False):
            with pytest.raises(ValidationError):
                BaselineInterpolation(flag)
        with pytest.raises(ValidationError):
            BaselineInterpolation(-0.1)

    @pytest.mark.parametrize("lambda1", ["0.5", None, 10**400], ids=["str", "none", "past-float"])
    def test_non_number_weight_is_a_validation_error(self, lambda1):
        with pytest.raises(ValidationError, match="^interpolation weight lambda1 must lie in"):
            BaselineInterpolation(lambda1)

    @pytest.mark.parametrize(
        "lambda1", [np.float64(0.7), np.float32(0.5), 1], ids=["float64", "float32", "int"]
    )
    def test_weight_is_stored_as_a_float(self, lambda1):
        interp = BaselineInterpolation(lambda1)
        assert type(interp.lambda1) is float and interp.lambda1 == float(lambda1)

    def test_unigram_weight_is_the_complement(self):
        # The CLI's --baseline-lambda1 passed 1.0 - lambda1 explicitly;
        # the derived weight keeps those bits.
        for lam1 in (0.0, 0.3, 0.6, 0.7, 1.0):
            assert BaselineInterpolation(lam1).lambda2 == 1.0 - lam1


class TestSequenceLogProb:
    def test_empty_sequence(self):
        t = one_cell_tables([["a", "b"]])
        assert _log_prob(t, ()) == 0.0

    def test_single_token(self):
        t = one_cell_tables([["a", "b"]])
        assert _log_prob(t, ("a",)) == 0.0

    def test_composes_from_pair_probs(self):
        t = one_cell_tables([["a", "b", "c"], ["a", "b"]])
        want = _log_prob(t, ("a", "b")) + _log_prob(t, ("b", "c"))
        assert _log_prob(t, ("a", "b", "c")) == pytest.approx(want, abs=1e-12)

    def test_exp_matches_direct_product(self):
        rng = random.Random(14)
        for _ in range(40):
            t = one_cell_tables(random_token_corpus(rng))
            seq = [rng.choice(t.vocab) for _ in range(rng.randint(2, 10))]
            product = 1.0
            for p in pair_probs(t, zip(seq, seq[1:])):
                product *= p
            assert exp(_log_prob(t, seq)) == pytest.approx(product, rel=1e-9)

    def test_baseline_scoring_composes_from_baseline_pairs(self):
        t = one_cell_tables([["a", "b", "c"], ["a", "b"]])
        interp = BaselineInterpolation(0.6)
        want = _log_prob(t, ("a", "b"), interp) + _log_prob(t, ("b", "c"), interp)
        assert _log_prob(t, ("a", "b", "c"), interp) == pytest.approx(want, abs=1e-12)


class TestEvidenceMonotonicity:
    def test_mle_evidence_is_monotone(self):
        # The un-smoothed estimate (baseline with lambda1 = 1) can only
        # grow when (v, w) is observed once more: (c+1)/(cv+1) >= c/cv.
        # Not for v == w: the post [v, v] adds 2 to c(v), and 3/5 falls to
        # 4/7.
        rng = random.Random(15)
        interp = BaselineInterpolation(1.0)
        for _ in range(100):
            corpus = random_token_corpus(rng)
            pairs = sorted({(a, b) for p in corpus for a, b in zip(p, p[1:]) if a != b})
            if not pairs:
                continue
            v, w = rng.choice(pairs)
            before = _prob(one_cell_tables(corpus), v, w, interp)
            after = _prob(one_cell_tables(corpus + [[v, w]]), v, w, interp)
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
        before = _log_prob(one_cell_tables(corpus), ["t2", "t1"])
        after = _log_prob(one_cell_tables(corpus + [["t2", "t1"]]), ["t2", "t1"])
        assert after < before
