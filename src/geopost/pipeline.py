"""Text normalization pipeline: cleanup, stopword removal, rare-word folding.

Raw post text goes through three stages before it ever reaches a language
model: (1) cleanup and tokenization, (2) removal of the corpus-induced
stopword set, (3) folding of every word outside the trained vocabulary
into the single catch-all token ``<misc>``. A training hapax (a word seen
once) is never in the vocabulary, so the vocabulary alone decides which
words fold, in training and at query time alike.

Cleanup keeps a lowercased ASCII token that is already alphanumeric as
it is; every other token is filtered character by character (see
``clean_and_tokenize``). Training is columnar from the corpus file on:
the reader and ``split`` hand over a ``RawCorpus`` (ids, texts and float
lat/lon columns), and ``build_training_corpus`` returns a
``TrainingCorpus`` with no Python code run per token: one pass numbers
the raw tokens of all texts, each distinct raw token is cleaned once,
and one count of the cleaned words, sorted once, gives the stopwords,
the hapax and the vocabulary. No per-post object is made on the way.
``RawPost`` is the one-post type at the API edge, which
``RawCorpus.of`` turns into columns; ``TokenizedPost`` is the query-side
type.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count
from math import isnan, nan
from operator import lt
from typing import Optional

import numpy as np

from .errors import ValidationError
from .grid import GeoPoint, check_coordinates, non_negative_index

# Catch-all token for rare and unknown words. It cannot be produced by
# cleanup (angle brackets are stripped), only by folding.
MISC = "<misc>"

# Size of the induced stopword list, unless the caller gives one.
DEFAULT_STOPWORD_COUNT = 200

_URL_PREFIXES = ("http://", "https://", "www.")


@dataclass(frozen=True)
class RawPost:
    """One post as ingested: opaque id, text, optional true coordinates."""

    id: str
    text: str
    location: Optional[GeoPoint] = None


def _raw_post(post_id: str, text: str, lat: float, lon: float) -> RawPost:
    return RawPost(post_id, text, None if isnan(lat) else GeoPoint(lat, lon))


@dataclass(frozen=True, eq=False)
class RawCorpus(Sequence):
    """Posts as ingested, as columns: ``ids`` and ``texts`` are lists of
    str, ``lats`` and ``lons`` float64 arrays, both NaN for a post without
    a location.

    It is a ``Sequence[RawPost]``: an int index, or iteration, makes the
    ``RawPost`` on access, and a slice is a ``RawCorpus``. Two corpora are
    equal when their posts are. ``RawCorpus.of`` is the one adapter from
    any sequence of ``RawPost``. Columns of different lengths, a
    coordinate out of range, or a NaN in only one of lat and lon raise
    ValidationError.
    """

    ids: list[str]
    texts: list[str]
    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        for name in ("ids", "texts"):
            object.__setattr__(self, name, list(getattr(self, name)))
        for name in ("lats", "lons"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not len(self.ids) == len(self.texts) == len(self.lats) == len(self.lons):
            raise ValidationError("raw corpus columns must hold one entry per post")
        lats, lons = self.lats, self.lons
        valid = (np.isnan(lats) & np.isnan(lons)) | ((np.abs(lats) <= 90) & (np.abs(lons) <= 180))
        if not valid.all():
            i = int(np.argmin(valid))
            check_coordinates(float(lats[i]), float(lons[i]))

    @classmethod
    def of(cls, posts: Sequence[RawPost]) -> RawCorpus:
        """``posts`` as columns; a ``RawCorpus`` is returned as it is."""
        if isinstance(posts, RawCorpus):
            return posts
        points = [p.location for p in posts]
        return cls(
            [p.id for p in posts],
            [p.text for p in posts],
            [nan if q is None else q.lat for q in points],
            [nan if q is None else q.lon for q in points],
        )

    def take(self, indices: Sequence[int]) -> RawCorpus:
        """The posts at ``indices``, in that order."""
        rows = np.asarray(indices, dtype=np.intp)
        picks = rows.tolist()
        return RawCorpus(
            [self.ids[i] for i in picks],
            [self.texts[i] for i in picks],
            self.lats[rows],
            self.lons[rows],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RawCorpus(
                self.ids[index], self.texts[index], self.lats[index], self.lons[index]
            )
        return _raw_post(
            self.ids[index], self.texts[index], float(self.lats[index]), float(self.lons[index])
        )

    def __iter__(self):
        return map(_raw_post, self.ids, self.texts, self.lats.tolist(), self.lons.tolist())

    def __eq__(self, other):
        if not isinstance(other, RawCorpus):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.texts == other.texts
            and np.array_equal(self.lats, other.lats, equal_nan=True)
            and np.array_equal(self.lons, other.lons, equal_nan=True)
        )


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
    the token count, an id outside ``vocab``, or a ``vocab`` word that no
    id names, raise ValidationError.
    """

    ids: tuple[str, ...]
    vocab: tuple[str, ...]
    token_ids: np.ndarray
    lens: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        if not all(map(lt, self.vocab, self.vocab[1:])):
            raise ValidationError("training corpus vocab is not strictly increasing")
        for name in ("lens", "lats", "lons"):
            if len(getattr(self, name)) != len(self.ids):
                raise ValidationError(f"training corpus {name} must hold one entry per post")
        if self.lens.min(initial=0) < 0 or self.lens.sum() != len(self.token_ids):
            raise ValidationError("training corpus lens must be >= 0 and sum to len(token_ids)")
        if self.token_ids.min(initial=0) < 0 or self.token_ids.max(initial=-1) >= len(self.vocab):
            raise ValidationError(f"training corpus token_ids must lie in [0, {len(self.vocab)})")
        unused = np.flatnonzero(np.bincount(self.token_ids, minlength=len(self.vocab)) == 0)
        if len(unused):
            raise ValidationError(
                f"training corpus vocab word {self.vocab[unused[0]]!r} never occurs in token_ids"
            )

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


def vocab_agrees(vocab: Sequence[str], words: frozenset[str]) -> bool:
    """Whether ``vocab`` lists the words of ``words``, each once and in
    strictly increasing order, the one order a vocabulary is counted,
    saved and loaded in: ``tuple(sorted(words)) == tuple(vocab)`` in
    linear time."""
    return len(vocab) == len(words) and words.issuperset(vocab) and all(map(lt, vocab, vocab[1:]))


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
    return _clean_text(raw.text)


def _clean_text(text: str) -> list[str]:
    """``clean_and_tokenize`` of a post with this text."""
    out = []
    for tok in text.split():
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


def _dense_ids(first: np.ndarray) -> np.ndarray:
    """Dense ids, in order of first occurrence, of items given as the
    position where each first occurs (as ``dict.setdefault`` over the
    items and their positions gives them): the number of first
    occurrences up to an item's first position, less one."""
    return (np.cumsum(first == np.arange(len(first))) - 1)[first]


def build_training_corpus(
    posts: Sequence[RawPost], stopword_count: int = DEFAULT_STOPWORD_COUNT
) -> tuple[TrainingCorpus, PipelineArtifacts]:
    """Run the training-side pipeline over a corpus.

    Cleans every post, induces the stopword set (the ``stopword_count``
    most frequent cleaned tokens, ties broken by ascending token),
    removes stopwords, folds hapax tokens, and collects the resulting
    global vocabulary. Returns the folded posts as a ``TrainingCorpus``
    plus the artifacts needed to preprocess queries identically.
    ``stopword_count`` must be an integer >= 0, not a bool. ``posts``
    goes through ``RawCorpus.of``, so a ``RawCorpus`` is read as columns
    and no ``RawPost`` is made.

    No Python code runs per token. The whitespace-split tokens of all
    texts are numbered in one pass, and every later step runs once per
    distinct raw token or cleaned word. Cleanup depends on the token
    alone, so each distinct raw token is cleaned once; raw tokens that
    clean to the same word merge, and their counts add up. One count of
    the cleaned words serves every step: dropping stopwords leaves the
    other words' counts unchanged, so the hapax are the non-stopwords
    counted once, and the vocabulary is the non-stopwords counted more
    than once, plus ``<misc>`` if anything folded. The words are sorted
    once; a stable sort of that order by descending count gives the
    stopword order. Each word then gets one code, a vocabulary word its
    id, a hapax the id of ``<misc>``, and a stopword (a literal
    ``<misc>`` among them) or a token that cleans to nothing -1, and the
    raw tokens take their word's code.
    """
    stopword_count = non_negative_index("stopword count", stopword_count)
    posts = RawCorpus.of(posts)
    texts = posts.texts
    n = len(texts)
    raw_lens = np.fromiter(map(len, map(str.split, texts)), np.int64, n)
    # The texts are split again on the fly, so no list of all tokens is made.
    raw = chain.from_iterable(map(str.split, texts))
    raw_at: dict[str, int] = {}
    raw_ids = _dense_ids(np.fromiter(map(raw_at.setdefault, raw, count()), np.intp, raw_lens.sum()))
    raw_counts = np.bincount(raw_ids, minlength=len(raw_at))
    # A raw token cleans to one word or to "", which no word is.
    cleaned = map("".join, map(_clean_text, raw_at))
    word_at: dict[str, int] = {}
    word_of = np.fromiter(map(word_at.setdefault, cleaned, count()), np.intp, len(raw_at))
    word_of = _dense_ids(word_of)
    del raw_at
    words = list(word_at)
    counts = np.bincount(word_of, weights=raw_counts, minlength=len(words))
    order = np.array(sorted(range(len(words)), key=words.__getitem__), dtype=np.intp)
    if words and not words[order[0]]:
        order = order[1:]
    by_count = order[np.argsort(-counts[order], kind="stable")]
    stop = by_count[:stopword_count]
    live = np.zeros(len(words), dtype=bool)
    live[order] = True
    live[stop] = False
    kept = order[live[order] & (counts[order] > 1)]
    vocab = list(map(words.__getitem__, kept.tolist()))
    code = np.full(len(words), -1, dtype=np.int32)
    code[kept] = np.arange(len(kept))
    hapax = live & (counts == 1)
    if hapax.any():
        at = bisect_left(vocab, MISC)
        if vocab[at:at + 1] != [MISC]:
            vocab.insert(at, MISC)
            code[kept[at:]] += 1
        code[hapax] = at
    ids = code[word_of][raw_ids]
    keep = ids >= 0
    post_of_token = np.repeat(np.arange(n), raw_lens)
    corpus = TrainingCorpus(
        ids=tuple(posts.ids),
        vocab=tuple(vocab),
        token_ids=ids[keep],
        lens=np.bincount(post_of_token[keep], minlength=n),
        lats=posts.lats,
        lons=posts.lons,
    )
    stopwords = frozenset(map(words.__getitem__, stop.tolist()))
    return corpus, PipelineArtifacts(stopwords=stopwords, vocab=frozenset(vocab))
