"""Cleanup, stopword induction, hapax folding, and pipeline invariants."""

import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geopost import (
    MISC,
    GeoPoint,
    PipelineArtifacts,
    RawPost,
    TokenizedPost,
    ValidationError,
    build_training_corpus,
    clean_and_tokenize,
    fold_hapax,
    induce_stopwords,
    preprocess,
)
from geopost.pipeline import remove_stopwords
from helpers import as_tokenized


def _tokens(text, **kwargs):
    return clean_and_tokenize(RawPost("x", text, **kwargs))


class TestCleanAndTokenize:
    def test_strips_links_replies_hashtags_case_punctuation(self):
        assert _tokens("Going to WORK! http://t.co/x @bob #WestEnd") == ["going", "to", "work"]

    def test_empty_text(self):
        assert _tokens("") == []

    def test_non_ascii_tokens_dropped(self):
        assert _tokens("Café 北京 ok") == ["ok"]

    def test_url_variants_dropped(self):
        assert _tokens("see HTTPS://x.co www.example.com page") == ["see", "page"]

    def test_punctuation_only_tokens_vanish(self):
        assert _tokens("!!! ... -- yes") == ["yes"]

    def test_inner_punctuation_stripped(self):
        assert _tokens("don't stop-now") == ["dont", "stopnow"]

    def test_misc_token_passes_through_unchanged(self):
        assert _tokens(f"{MISC} word") == [MISC, "word"]


class TestInduceStopwords:
    def test_top_k_by_count(self):
        corpus = [["a", "a", "a", "b", "b", "c"]]
        assert induce_stopwords(corpus, 2) == ["a", "b"]

    def test_k_zero(self):
        assert induce_stopwords([["x", "y"]], 0) == []

    def test_lexicographic_tie_break(self):
        assert induce_stopwords([["y", "x"]], 1) == ["x"]

    def test_k_beyond_vocabulary_returns_everything(self):
        assert induce_stopwords([["b", "a"]], 10) == sorted(["a", "b"])

    def test_size_is_min_of_k_and_vocab(self):
        rng = random.Random(3)
        for _ in range(50):
            vocab = [f"w{i}" for i in range(rng.randint(1, 12))]
            corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 20))]]
            k = rng.randint(0, 15)
            distinct = len(set(corpus[0]))
            assert len(induce_stopwords(corpus, k)) == min(k, distinct)


class TestFoldHapax:
    def test_singletons_fold(self):
        folded, hapax = fold_hapax(as_tokenized([["a", "b"], ["a", "c"]]))
        assert [list(p.tokens) for p in folded] == [["a", MISC], ["a", MISC]]
        assert hapax == {"b", "c"}

    def test_no_hapax_leaves_corpus_unchanged(self):
        corpus = as_tokenized([["a", "b"], ["a", "b"]])
        folded, hapax = fold_hapax(corpus)
        assert folded == corpus
        assert hapax == frozenset()

    def test_single_token_corpus(self):
        folded, hapax = fold_hapax(as_tokenized([["z"]]))
        assert list(folded[0].tokens) == [MISC]
        assert hapax == {"z"}

    def test_survivors_have_count_at_least_two(self):
        rng = random.Random(11)
        for _ in range(30):
            corpus = as_tokenized(
                [[rng.choice("abcde") for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(1, 8))]
            )
            folded, _ = fold_hapax(corpus)
            counts = {}
            for p in folded:
                for t in p.tokens:
                    counts[t] = counts.get(t, 0) + 1
            for tok, n in counts.items():
                if tok != MISC:
                    assert n >= 2


class TestPreprocess:
    def test_stopword_removal(self):
        stop = frozenset({"the"})
        post = preprocess(RawPost("1", "the storm here"), stop, frozenset({"storm", "here"}))
        assert list(post.tokens) == ["storm", "here"]

    def test_all_stopwords_yields_empty_post(self):
        post = preprocess(RawPost("1", "the a THE"), frozenset({"the", "a"}), frozenset())
        assert post.tokens == ()

    def test_unknown_word_folds_to_misc(self):
        post = preprocess(RawPost("1", "qqqq storm"), frozenset(), frozenset({"storm", MISC}))
        assert list(post.tokens) == [MISC, "storm"]

    def test_training_hapax_folds(self):
        # The vocabulary leaves the hapax out, so it folds at query time.
        _, artifacts = build_training_corpus([RawPost("0", "rare storm"), RawPost("1", "storm")], 0)
        assert artifacts.preprocess(RawPost("q", "rare storm")).tokens == (MISC, "storm")

    def test_config_validation(self):
        # A negative stopword count is refused by build_training_corpus
        # (test_negative_k_raises); the artifacts check the induced sets.
        with pytest.raises(ValidationError, match="stopword not lowercase: 'Upper'"):
            PipelineArtifacts(stopwords=frozenset({"Upper"}), vocab=frozenset())
        with pytest.raises(ValidationError, match="'storm' is listed in both"):
            PipelineArtifacts(stopwords=frozenset({"storm", MISC}), vocab=frozenset({"storm"}))
        # The fold target may be both: a literal <misc> can be a stopword.
        PipelineArtifacts(stopwords=frozenset({MISC}), vocab=frozenset({MISC, "storm"}))


def _random_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.15:
            pieces.append(rng.choice(["http://t.co/abc", "https://x.y", "www.spam.com"]))
        elif kind < 0.25:
            pieces.append("@" + "".join(rng.choices(string.ascii_letters, k=4)))
        elif kind < 0.35:
            pieces.append("#" + "".join(rng.choices(string.ascii_letters, k=5)))
        elif kind < 0.45:
            pieces.append("".join(rng.choices("!?.,;:'\"-", k=rng.randint(1, 4))))
        elif kind < 0.55:
            pieces.append(rng.choice(["café", "北京", "naïve", "über"]))
        else:
            word = "".join(rng.choices(string.ascii_letters + "'!.,", k=rng.randint(1, 9)))
            pieces.append(word)
    return " ".join(pieces)


class TestPipelineProperties:
    def test_idempotence_on_rejoined_output(self):
        rng = random.Random(99)
        raws = [RawPost(str(i), _random_text(rng)) for i in range(120)]
        _, artifacts = build_training_corpus(raws, stopword_count=5)
        for raw in raws:
            once = artifacts.preprocess(raw)
            again = artifacts.preprocess(RawPost(raw.id, " ".join(once.tokens)))
            assert again.tokens == once.tokens

    def test_output_cleanliness(self):
        # No stopword, uppercase, whitespace, or punctuation survives in
        # any token; the only non-alphanumeric survivor is <misc>.
        rng = random.Random(100)
        raws = [RawPost(str(i), _random_text(rng)) for i in range(150)]
        tokenized, artifacts = build_training_corpus(raws, stopword_count=8)
        stop = set(artifacts.stopwords)
        for post in tokenized:
            for tok in post.tokens:
                assert tok not in stop
                assert tok == tok.lower()
                assert " " not in tok and "\t" not in tok
                assert tok == MISC or (tok.isalnum() and tok.isascii())
                assert tok != ""

    def test_training_vocab_covers_all_folded_tokens(self):
        rng = random.Random(101)
        raws = [RawPost(str(i), _random_text(rng)) for i in range(80)]
        tokenized, artifacts = build_training_corpus(raws, stopword_count=3)
        seen = {t for p in tokenized for t in p.tokens}
        assert seen == set(artifacts.vocab)


def reference_clean(text):
    """Cleanup one character at a time, with no fast path."""
    out = []
    for tok in text.split():
        if tok == MISC:
            out.append(tok)
            continue
        low = tok.lower()
        if low.startswith(("http://", "https://", "www.")) or low.startswith("@") or low.startswith("#"):
            continue
        cleaned = "".join(ch for ch in low if ch.isalnum())
        if cleaned and cleaned.isascii():
            out.append(cleaned)
    return out


# Pieces whose cleanup differs by branch: ASCII punctuation and control
# characters, link/reply/hashtag prefixes in either case, the catch-all
# token, and non-ASCII characters that lowercase to ASCII (Kelvin sign,
# dotted capital I), vanish (trade mark sign, combining dot) or survive
# as non-ASCII alphanumerics (sharp s, sigma, full-width digit/letter).
PIECES = [
    "a", "Z", "7", "ok", "Go", "x1",
    *string.punctuation, "\x00", "\x1b", "\x7f",
    "http://", "HTTPS://", "https://", "www.", "WWW.", "@", "#",
    MISC, "<MISC>",
    "\u0130", "\u2122", "\u00df", "\u03a3", "\u03c3", "\uff11", "\uff41", "\u212a", "\u0307", "\u00e9",
]
SEPARATORS = [" ", "  ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u2028", "\u3000"]

raw_tokens = st.lists(
    st.one_of(st.sampled_from(PIECES), st.characters(max_codepoint=0x3000)), min_size=1, max_size=5
).map("".join)
texts = st.lists(st.tuples(raw_tokens, st.sampled_from(SEPARATORS)), max_size=8).map(
    lambda parts: "".join(tok + sep for tok, sep in parts)
)


class TestCleanMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(texts)
    @example("Don't @bob #Tag http://x.co www.y.z <misc> <MISC> İstanbul a™ ß Σ １ \u212a")
    @example("a@b c#d e.www. x-http:// !@x ..#y")
    def test_equals_per_character_reference(self, text):
        assert clean_and_tokenize(RawPost("x", text)) == reference_clean(text)


def reference_build(posts, k):
    """The training pipeline as its separate steps: the folded posts, the
    artifacts, and the hapax set that ``fold_hapax`` folded."""
    cleaned = [clean_and_tokenize(p) for p in posts]
    stop = frozenset(induce_stopwords(cleaned, k))
    stripped = [
        TokenizedPost(id=p.id, tokens=tuple(remove_stopwords(toks, stop)), location=p.location)
        for p, toks in zip(posts, cleaned)
    ]
    folded, hapax = fold_hapax(stripped)
    vocab = frozenset(t for post in folded for t in post.tokens)
    return folded, PipelineArtifacts(stopwords=stop, vocab=vocab), hapax


WORDS = ["a", "b", "c", "the", "Storm", "storm!", MISC, "<MISC>", "x1", "café", "@at", ""]
corpora = st.lists(
    st.tuples(
        st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
        st.none() | st.just(GeoPoint(40.7, -74.0)),
    ),
    max_size=8,
).map(lambda rows: [RawPost(str(i), text, loc) for i, (text, loc) in enumerate(rows)])


def over_corpora(test):
    """Run ``test(self, posts, k)`` over generated corpora and the cases below."""
    cases = [
        ([RawPost("0", "a b c"), RawPost("1", "d e")], 0),  # all hapax, no stopwords
        ([RawPost("0", "a b c"), RawPost("1", "d e")], 2),  # stopwords that occur once
        ([RawPost("0", "a a b"), RawPost("1", "b c")], 100),  # k beyond the vocabulary
        ([RawPost("0", f"{MISC} a a"), RawPost("1", "b")], 1),  # literal <misc> counted once
        ([RawPost("0", f"{MISC} {MISC} b b"), RawPost("1", "")], 0),  # literal <misc>, no hapax
        ([], 3),
    ]
    for posts, k in cases:
        test = example(posts, k)(test)
    return settings(max_examples=300, deadline=None)(given(corpora, st.integers(0, 12))(test))


class TestBuildMatchesReference:
    @over_corpora
    def test_equals_step_by_step_pipeline(self, posts, k):
        assert build_training_corpus(posts, k) == reference_build(posts, k)[:2]

    @over_corpora
    def test_query_folding_equals_step_by_step_rule(self, posts, k):
        # Folding by the vocabulary alone equals folding a training hapax
        # or a word the vocabulary lacks, on training posts and on a query
        # holding every word the corpora draw from.
        _, artifacts = build_training_corpus(posts, k)
        _, ref, hapax = reference_build(posts, k)
        for raw in [*posts, RawPost("q", " ".join(WORDS))]:
            kept = remove_stopwords(clean_and_tokenize(raw), ref.stopwords)
            want = tuple(MISC if t in hapax or t not in ref.vocab else t for t in kept)
            assert artifacts.preprocess(raw) == TokenizedPost(raw.id, want, raw.location)

    def test_negative_k_raises(self):
        with pytest.raises(ValidationError):
            build_training_corpus([RawPost("0", "a b")], -1)
        with pytest.raises(ValidationError):
            induce_stopwords([["a"]], -1)
