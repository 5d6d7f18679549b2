"""Independent reference implementations used as test oracles, and the
model directory layout the storage and CLI tests share.

Everything here recounts from scratch with its own data structures — flat
pair lists, Counters, explicit set comprehensions — so these paths share
no code with the package internals they check.
"""

from __future__ import annotations

import random
from collections import Counter
from math import acos, cos, radians, sin
from pathlib import Path

import numpy as np

from geopost import TokenizedPost

MIN_PROB = 1e-12
EARTH_RADIUS_KM = 6371.0088
# The files of a saved model directory, sorted.
MODEL_FILES = ["manifest.json", "tables.npz"]


def edit_tables(model, edit):
    """Rewrite a saved model's tables.npz with ``edit`` applied in place to
    the dict of its member arrays. ``np.savez`` writes fresh CRC-32s, so
    only the loader's own checks stand between the edit and a model."""
    path = Path(model) / "tables.npz"
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    np.savez(path, **members)


def at(name, index, change):
    """An ``edit_tables`` edit that applies ``change`` to
    ``members[name][index]``."""

    def edit(members):
        members[name] = members[name].copy()
        members[name][index] = change(members[name][index])

    return edit


def completion_outside_vocabulary(members):
    """An ``edit_tables`` edit: the last pair's w becomes the id of words
    outside the vocabulary (the key grows, so the keys stay in order)."""
    size, n_cells = len(words(members["vocab"])), len(members["post_counts"])
    v = members["pair_keys"][-1] // n_cells // (size + 1)
    at("pair_keys", -1, lambda k: (v * (size + 1) + size) * n_cells + k % n_cells)(members)


def vocabulary_token_into_stopwords(members):
    """An ``edit_tables`` edit: a vocabulary token joins the stopwords."""
    token = next(t for t in words(members["vocab"]) if t != "<misc>")
    members["stopwords"] = text(sorted([*words(members["stopwords"]), token]))


def words(member):
    """The tokens of a newline-joined UTF-8 ``uint8`` member."""
    return member.tobytes().decode("utf-8").split("\n") if len(member) else []


def text(tokens):
    """``tokens`` as a newline-joined UTF-8 ``uint8`` member."""
    return np.frombuffer("\n".join(tokens).encode("utf-8"), dtype=np.uint8)


def law_of_cosines_km(lat1, lon1, lat2, lon2):
    """Great-circle distance via the spherical law of cosines (a different
    formula than the implementation under test uses)."""
    p1, p2 = radians(lat1), radians(lat2)
    x = sin(p1) * sin(p2) + cos(p1) * cos(p2) * cos(radians(lon2 - lon1))
    return EARTH_RADIUS_KM * acos(max(-1.0, min(1.0, x)))


def _clamp(x, hi):
    return min(max(x, 0.0), hi)


def reference_discounts(n1, n2, n3, n4):
    base = n1 + 2 * n2
    d1 = _clamp(1.0 - 2.0 * n2 / base, 1.0) if base > 0 else 0.75
    d2 = _clamp(2.0 - 3.0 * n3 * n1 / (n2 * base), 2.0) if n2 * base > 0 else 0.75
    d3 = _clamp(3.0 - 4.0 * n4 * n1 / (n3 * base), 3.0) if n3 * base > 0 else 0.75
    return d1, d2, d3


def reference_bigram_prob(corpus, v, w):
    """Brute-force smoothed bigram probability from a raw token corpus.

    Enumerates every consecutive pair into a flat list, derives all counts
    directly from it, and evaluates the discount/back-off formula in one
    expression.
    """
    unigrams = Counter(tok for post in corpus for tok in post)
    pairs = Counter(
        (post[i], post[i + 1]) for post in corpus for i in range(len(post) - 1)
    )
    n1 = sum(1 for c in pairs.values() if c == 1)
    n2 = sum(1 for c in pairs.values() if c == 2)
    n3 = sum(1 for c in pairs.values() if c == 3)
    n4 = sum(1 for c in pairs.values() if c == 4)
    d1, d2, d3 = reference_discounts(n1, n2, n3, n4)

    def discount(count):
        if count >= 3:
            return d3
        return {0: 0.0, 1: d1, 2: d2}[count]

    total_pair_types = len(pairs)
    left_contexts_of_w = len({a for (a, b) in pairs if b == w})
    p_cont = left_contexts_of_w / total_pair_types if total_pair_types else 0.0

    cv = unigrams[v]
    if cv == 0:
        return max(p_cont, MIN_PROB)
    cvw = pairs.get((v, w), 0)
    freed = sum(discount(c) for (a, _), c in pairs.items() if a == v) / cv
    p = max(cvw - discount(cvw), 0.0) / cv + freed * p_cont
    return max(p, MIN_PROB)


def reference_posterior(cell_corpora, cell_priors, tokens):
    """Plain probability-space Bayes over cells, with likelihoods built
    from reference_bigram_prob products. Safe only at toy scale."""
    joint = {}
    for cell, corpus in cell_corpora.items():
        prior = cell_priors[cell]
        if prior <= 0:
            joint[cell] = 0.0
            continue
        like = 1.0
        for a, b in zip(tokens, tokens[1:]):
            like *= reference_bigram_prob(corpus, a, b)
        joint[cell] = prior * like
    total = sum(joint.values())
    return {cell: p / total for cell, p in joint.items()}


def random_token_corpus(rng: random.Random, max_tokens=30, max_vocab=8):
    """A small corpus of token lists with a bounded total token budget."""
    vocab = [f"t{i}" for i in range(rng.randint(2, max_vocab))]
    budget = rng.randint(2, max_tokens)
    posts = []
    while budget > 0:
        n = min(rng.randint(1, 6), budget)
        posts.append([rng.choice(vocab) for _ in range(n)])
        budget -= n
    return posts


def as_tokenized(token_lists, location=None):
    return [
        TokenizedPost(id=str(i), tokens=tuple(toks), location=location)
        for i, toks in enumerate(token_lists)
    ]
