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
stopwords, the hapax and the vocabulary all come from that one count.
The training posts then leave as a columnar ``TrainingCorpus``: every
distinct token is mapped to its word id once, and one pass turns all
cleaned tokens into one id array, so no per-post object outlives the
call. ``TokenizedPost`` is the query-side type.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import nan
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .grid import GeoPoint, non_negative_index

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


@dataclass(frozen=True, eq=False)
class TrainingCorpus:
    """The training posts after preprocessing, as columns.

    ``vocab`` is the sorted vocabulary; post i holds the words
    ``vocab[t]`` for t in ``token_ids[s:s + lens[i]]``, where s is
    ``lens[:i].sum()``: the int32 ids of all posts lie end to end. Post i
    has id ``ids[i]`` and lies at (``lats[i]``, ``lons[i]``), both NaN for
    a post without a location. Columns that disagree on the post count or
    the token count, or an id outside ``vocab``, raise ValidationError.
    """

    ids: tuple[str, ...]
    vocab: tuple[str, ...]
    token_ids: np.ndarray
    lens: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        if list(self.vocab) != sorted(self.vocab):
            raise ValidationError("training corpus vocab is not sorted")
        for name in ("lens", "lats", "lons"):
            if len(getattr(self, name)) != len(self.ids):
                raise ValidationError(f"training corpus {name} must hold one entry per post")
        if self.lens.min(initial=0) < 0 or self.lens.sum() != len(self.token_ids):
            raise ValidationError("training corpus lens must be >= 0 and sum to len(token_ids)")
        if self.token_ids.min(initial=0) < 0 or self.token_ids.max(initial=-1) >= len(self.vocab):
            raise ValidationError(f"training corpus token_ids must lie in [0, {len(self.vocab)})")

    def __len__(self) -> int:
        return len(self.ids)


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
) -> tuple[TrainingCorpus, PipelineArtifacts]:
    """Run the training-side pipeline over a corpus.

    Cleans every post, induces the stopword set (the ``stopword_count``
    most frequent cleaned tokens, ties broken by ascending token),
    removes stopwords, folds hapax tokens, and collects the resulting
    global vocabulary. Returns the folded posts as a ``TrainingCorpus``
    plus the artifacts needed to preprocess queries identically.
    ``stopword_count`` must be an integer >= 0, not a bool.

    One count of the cleaned tokens serves every step: dropping stopwords
    leaves the other tokens' counts unchanged, so the hapax are the
    non-stopwords counted once, and the vocabulary is the non-stopwords
    counted more than once, plus ``<misc>`` if anything folded. Each
    distinct token is then mapped once, a vocabulary word to its id and a
    hapax to the id of ``<misc>``, and a stopword last to -1, so that a
    literal ``<misc>`` stopword is dropped while the hapax still fold.
    """
    stopword_count = non_negative_index("stopword count", stopword_count)
    cleaned = [clean_and_tokenize(p) for p in posts]
    counts = Counter(chain.from_iterable(cleaned))
    # Ascending tokens, then a stable sort by descending count: the
    # order of the key (-count, token), with no key tuple per token.
    stop = frozenset(sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:stopword_count])
    hapax = [t for t, n in counts.items() if n == 1 and t not in stop]
    vocab = frozenset(t for t, n in counts.items() if n > 1 and t not in stop)
    if hapax:
        vocab |= {MISC}
    words = tuple(sorted(vocab))
    code = dict(zip(words, range(len(words))))
    if hapax:
        code.update(dict.fromkeys(hapax, code[MISC]))
    code.update(dict.fromkeys(stop, -1))
    n = len(posts)
    raw_lens = np.fromiter(map(len, cleaned), np.int64, n)
    tokens = chain.from_iterable(cleaned)
    ids = np.fromiter(map(code.__getitem__, tokens), np.int32, int(raw_lens.sum()))
    keep = ids >= 0
    post_of_token = np.repeat(np.arange(n), raw_lens)
    points = [p.location for p in posts]
    corpus = TrainingCorpus(
        ids=tuple([p.id for p in posts]),
        vocab=words,
        token_ids=ids[keep],
        lens=np.bincount(post_of_token[keep], minlength=n),
        lats=np.array([nan if q is None else q.lat for q in points], dtype=np.float64),
        lons=np.array([nan if q is None else q.lon for q in points], dtype=np.float64),
    )
    return corpus, PipelineArtifacts(stopwords=stop, vocab=vocab)
