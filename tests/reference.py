"""Step-by-step definitions of the training pipeline, used as test
oracles for ``build_training_corpus`` and ``preprocess``.

Each step recounts from scratch and sorts by its own key, so these share
no code with the single-pass pipeline they check.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from geopost import MISC, TokenizedPost, ValidationError


def induce_stopwords(corpus: Iterable[Sequence[str]], k: int) -> list[str]:
    """The k most frequent tokens across ``corpus`` (cleaned token
    sequences), ties broken lexicographically ascending. Returns the whole
    vocabulary when k exceeds it."""
    if k < 0:
        raise ValidationError(f"stopword count must be >= 0, got {k}")
    counts = Counter(t for tokens in corpus for t in tokens)
    return sorted(counts, key=lambda t: (-counts[t], t))[:k]


def remove_stopwords(tokens: Sequence[str], stopwords: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in stopwords]


def fold_hapax(corpus: Sequence[TokenizedPost]) -> tuple[list[TokenizedPost], frozenset[str]]:
    """Replace every token whose total corpus count is 1 with ``<misc>``.

    Returns the folded corpus and the set of folded surface forms. Expects
    stopwords to have been removed already.
    """
    counts: Counter[str] = Counter()
    for post in corpus:
        counts.update(post.tokens)
    hapax = frozenset(tok for tok, n in counts.items() if n == 1)
    folded = [
        TokenizedPost(
            id=post.id,
            tokens=tuple(MISC if t in hapax else t for t in post.tokens),
            location=post.location,
        )
        for post in corpus
    ]
    return folded, hapax
