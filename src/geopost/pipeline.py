"""Text normalization pipeline: cleanup, stopword removal, rare-word folding.

Raw post text goes through three stages before it ever reaches a language
model: (1) cleanup and tokenization, (2) removal of the corpus-induced
stopword list, (3) folding of words seen only once in training (and, at
query time, words missing from the trained vocabulary) into the single
catch-all token ``<misc>``.

Cleanup keeps a lowercased ASCII token that is already alphanumeric as
it is; every other token is filtered character by character (see
``clean_and_tokenize``). Training counts the cleaned tokens once; the
stopwords, the hapax and the vocabulary all come from that one count,
and each post is stripped and folded in a single pass.
``induce_stopwords``, ``remove_stopwords`` and ``fold_hapax`` are the
step-by-step definitions that result must equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .grid import GeoPoint

# Catch-all token for rare and unknown words. It cannot be produced by
# cleanup (angle brackets are stripped), only by folding.
MISC = "<misc>"

_URL_PREFIXES = ("http://", "https://", "www.")


@dataclass(frozen=True)
class RawPost:
    """One post as ingested: opaque id, text, optional true coordinates."""

    id: str
    text: str
    location: Optional[GeoPoint] = None


@dataclass(frozen=True)
class TokenizedPost:
    """A post after preprocessing: lowercase, non-stopword tokens only."""

    id: str
    tokens: tuple[str, ...]
    location: Optional[GeoPoint] = None


@dataclass(frozen=True)
class PipelineConfig:
    """Stopword settings. ``stopwords`` is ordered most-frequent-first as
    induced; non-ASCII tokens are always dropped (the non-English proxy)."""

    stopword_count: int = 200
    stopwords: tuple[str, ...] = ()

    def __post_init__(self):
        if self.stopword_count < 0:
            raise ValidationError(f"stopword count must be >= 0, got {self.stopword_count}")
        if len(set(self.stopwords)) != len(self.stopwords):
            raise ValidationError("stopword list contains duplicates")
        for w in self.stopwords:
            if w != w.lower():
                raise ValidationError(f"stopword not lowercase: {w!r}")


@dataclass(frozen=True)
class PipelineArtifacts:
    """Everything induced from the training split that query-time
    preprocessing needs: config, hapax surface forms, global vocabulary."""

    config: PipelineConfig
    hapax: frozenset[str]
    vocab: frozenset[str]

    def preprocess(self, raw: RawPost) -> TokenizedPost:
        return preprocess(raw, self.config, self.hapax, self.vocab)


@lru_cache(maxsize=32)
def _stopword_set(stopwords: tuple[str, ...]) -> frozenset[str]:
    return frozenset(stopwords)


def clean_and_tokenize(raw: RawPost) -> list[str]:
    """Split on whitespace and normalize each token.

    Tokens that are links (http://, https://, www.), @-replies, or
    #hashtags are removed outright. Survivors are lowercased, stripped of
    every non-alphanumeric character, and dropped entirely if they end up
    empty or contain any non-ASCII character. The literal token
    ``<misc>`` is kept verbatim so that re-tokenizing pipeline output is a
    no-op; it never occurs in genuine raw input.

    A lowercased token that is ASCII and already alphanumeric is kept as
    it is: it cannot be ``<misc>`` or carry a removed prefix, and the
    character filter would return it unchanged. Every other token keeps
    the per-character ``str.isalnum`` filter, which no ASCII shortcut
    matches on non-ASCII text: symbols such as ``™`` or the combining dot
    that ``İ`` lowercases to must be deleted (so ``İstanbul`` gives
    ``istanbul``), while alphanumerics such as ``ß``, ``σ`` or full-width
    digits must survive and so drop the whole token.
    """
    out = []
    for tok in raw.text.split():
        low = tok.lower()
        if low.isascii() and low.isalnum():
            out.append(low)
            continue
        if tok == MISC:
            out.append(tok)
            continue
        if low.startswith(_URL_PREFIXES) or low.startswith("@") or low.startswith("#"):
            continue
        cleaned = "".join(ch for ch in low if ch.isalnum())
        if not cleaned or not cleaned.isascii():
            continue
        out.append(cleaned)
    return out


def induce_stopwords(corpus: Iterable[Sequence[str]], k: int) -> list[str]:
    """The k most frequent tokens across ``corpus`` (cleaned token
    sequences), ties broken lexicographically ascending. Returns the whole
    vocabulary when k exceeds it."""
    return _top_k(Counter(chain.from_iterable(corpus)), k)


def _top_k(counts: Counter[str], k: int) -> list[str]:
    if k < 0:
        raise ValidationError(f"stopword count must be >= 0, got {k}")
    # Ascending tokens, then a stable sort by descending count: the
    # order of the key (-count, token), with no key tuple per token.
    return sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:k]


def remove_stopwords(tokens: Sequence[str], cfg: PipelineConfig) -> list[str]:
    stop = _stopword_set(cfg.stopwords)
    return [t for t in tokens if t not in stop]


def fold_hapax(corpus: Sequence[TokenizedPost]) -> tuple[list[TokenizedPost], frozenset[str]]:
    """Replace every token whose total corpus count is 1 with ``<misc>``.

    Returns the folded corpus and the set of folded surface forms, which
    is persisted so query-time unknown words fold the same way. Expects
    stopwords to have been removed already.
    """
    counts: Counter[str] = Counter()
    for post in corpus:
        counts.update(post.tokens)
    hapax = frozenset(tok for tok, n in counts.items() if n == 1)
    if not hapax:
        return list(corpus), hapax
    folded = [
        TokenizedPost(
            id=post.id,
            tokens=tuple(MISC if t in hapax else t for t in post.tokens),
            location=post.location,
        )
        for post in corpus
    ]
    return folded, hapax


def preprocess(
    raw: RawPost,
    cfg: PipelineConfig,
    hapax: frozenset[str] = frozenset(),
    vocab: Optional[frozenset[str]] = None,
) -> TokenizedPost:
    """Full single-post pipeline: clean, drop stopwords, fold rare/unknown.

    A token folds to ``<misc>`` if it was a training hapax or, when a
    trained vocabulary is supplied (query time), if it is absent from that
    vocabulary. A post whose tokens all vanish is kept with an empty
    sequence.
    """
    folded = [
        MISC if t in hapax or (vocab is not None and t not in vocab) else t
        for t in remove_stopwords(clean_and_tokenize(raw), cfg)
    ]
    return TokenizedPost(id=raw.id, tokens=tuple(folded), location=raw.location)


def build_training_corpus(
    posts: Sequence[RawPost], stopword_count: int = 200
) -> tuple[list[TokenizedPost], PipelineArtifacts]:
    """Run the training-side pipeline over a corpus.

    Cleans every post, induces the stopword list from the cleaned corpus,
    removes stopwords, folds hapax tokens, and collects the resulting
    global vocabulary. Returns the folded posts plus the artifacts needed
    to preprocess queries identically.

    One count of the cleaned tokens serves every step: dropping stopwords
    leaves the other tokens' counts unchanged, so the hapax are the
    non-stopwords counted once, and the vocabulary is the non-stopwords
    counted more than once, plus ``<misc>`` if anything folded. The
    result equals ``induce_stopwords`` -> ``remove_stopwords`` ->
    ``fold_hapax`` applied in turn.
    """
    cleaned = [clean_and_tokenize(p) for p in posts]
    counts = Counter(chain.from_iterable(cleaned))
    stopwords = _top_k(counts, stopword_count)
    cfg = PipelineConfig(stopword_count=stopword_count, stopwords=tuple(stopwords))
    stop = _stopword_set(cfg.stopwords)
    hapax = frozenset(t for t, n in counts.items() if n == 1 and t not in stop)
    folded = [
        TokenizedPost(
            id=p.id,
            tokens=tuple([MISC if t in hapax else t for t in toks if t not in stop]),
            location=p.location,
        )
        for p, toks in zip(posts, cleaned)
    ]
    vocab = frozenset(t for t, n in counts.items() if n > 1 and t not in stop)
    if hapax:
        vocab |= {MISC}
    return folded, PipelineArtifacts(config=cfg, hapax=hapax, vocab=vocab)
