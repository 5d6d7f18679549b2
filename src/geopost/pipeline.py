"""Text normalization pipeline: cleanup, stopword removal, rare-word folding.

Raw post text goes through three stages before it ever reaches a language
model: (1) cleanup and tokenization, (2) removal of the corpus-induced
stopword set, (3) folding of every word outside the trained vocabulary
into the single catch-all token ``<misc>``. A training hapax (a word seen
once) is never in the vocabulary, so the vocabulary alone decides which
words fold, in training and at query time alike.

Cleanup keeps a lowercased ASCII token that is already alphanumeric as
it is; every other token is filtered character by character (see
``clean_and_tokenize``). Training counts the cleaned tokens once; the
stopwords, the hapax and the vocabulary all come from that one count,
and each post is stripped and folded in a single pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

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
class PipelineArtifacts:
    """Everything induced from the training split that query-time
    preprocessing needs: the stopword set, which keeps no frequency order,
    and the global vocabulary. Stopwords are lowercase, and training never
    keeps one in the vocabulary, except the fold target ``<misc>`` (a
    literal ``<misc>`` in the corpus can be a stopword). Non-ASCII tokens
    are always dropped (the non-English proxy)."""

    stopwords: frozenset[str]
    vocab: frozenset[str]

    def __post_init__(self):
        for w in self.stopwords:
            if w != w.lower():
                raise ValidationError(f"stopword not lowercase: {w!r}")
        shared = self.stopwords & self.vocab - {MISC}
        if shared:
            raise ValidationError(
                f"{min(shared)!r} is listed in both the stopwords and the vocabulary"
            )

    def preprocess(self, raw: RawPost) -> TokenizedPost:
        return preprocess(raw, self.stopwords, self.vocab)


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


def preprocess(
    raw: RawPost, stopwords: frozenset[str], vocab: frozenset[str]
) -> TokenizedPost:
    """Full single-post pipeline: clean, drop stopwords, fold rare/unknown.

    A token folds to ``<misc>`` when the trained vocabulary lacks it, as
    it lacks every training hapax; ``<misc>`` folds to itself. A post
    whose tokens all vanish is kept with an empty sequence.
    """
    folded = [t if t in vocab else MISC for t in clean_and_tokenize(raw) if t not in stopwords]
    return TokenizedPost(id=raw.id, tokens=tuple(folded), location=raw.location)


def build_training_corpus(
    posts: Sequence[RawPost], stopword_count: int = 200
) -> tuple[list[TokenizedPost], PipelineArtifacts]:
    """Run the training-side pipeline over a corpus.

    Cleans every post, induces the stopword set (the ``stopword_count``
    most frequent cleaned tokens, ties broken by ascending token),
    removes stopwords, folds hapax tokens, and collects the resulting
    global vocabulary. Returns the folded posts plus the artifacts needed
    to preprocess queries identically.

    One count of the cleaned tokens serves every step: dropping stopwords
    leaves the other tokens' counts unchanged, so the hapax are the
    non-stopwords counted once, and the vocabulary is the non-stopwords
    counted more than once, plus ``<misc>`` if anything folded.
    """
    if stopword_count < 0:
        raise ValidationError(f"stopword count must be >= 0, got {stopword_count}")
    cleaned = [clean_and_tokenize(p) for p in posts]
    counts = Counter(chain.from_iterable(cleaned))
    # Ascending tokens, then a stable sort by descending count: the
    # order of the key (-count, token), with no key tuple per token.
    stop = frozenset(sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:stopword_count])
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
    return folded, PipelineArtifacts(stopwords=stop, vocab=vocab)
