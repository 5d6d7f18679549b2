"""Independent reference implementations used as test oracles, the
model directory layout the storage and CLI tests share, and a one-cell
ensemble whose tables the language-model tests query.

The oracles recount from scratch with their own data structures — flat
pair lists, Counters, explicit set comprehensions — so these paths share
no code with the package internals they check.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from math import acos, cos, exp, radians, sin
from pathlib import Path

import numpy as np

from geopost import (
    CellId,
    GeoBounds,
    GeoPoint,
    PipelineArtifacts,
    SmoothingConfig,
    TokenizedPost,
    TrainingCorpus,
    build_ensemble,
    partition,
)

MIN_PROB = 1e-12
EARTH_RADIUS_KM = 6371.0088
# The files of a saved model directory, sorted.
MODEL_FILES = ["model.npz"]


# The first three are the corpora of the workloads in perfbench/bench.py
# WORKLOADS (g and the ``corpus`` fields copied from there, and its
# region), whose recorded reference cells are computed on exactly these
# posts.
PINNED_BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)
PINNED_SPECS = {
    "city-g8": dict(
        g=8, vocab_per_cell=200, shared_vocab=500, posts_per_cell=300,
        leakage=0.2, neighbor_overlap=0.1,
    ),
    "fine-g12": dict(
        g=12, vocab_per_cell=20, shared_vocab=200, posts_per_cell=30,
        leakage=0.1, neighbor_overlap=0.1,
    ),
    "tune": dict(
        g=8, vocab_per_cell=40, shared_vocab=150, posts_per_cell=60,
        leakage=0.1, neighbor_overlap=0.2,
    ),
    # One cell: no other cell to leak to and no ring to overlap with.
    "g1": dict(
        g=1, vocab_per_cell=3, shared_vocab=2, posts_per_cell=20,
        leakage=1.0, neighbor_overlap=1.0,
    ),
    "g2": dict(
        g=2, vocab_per_cell=1, shared_vocab=0, posts_per_cell=10,
        leakage=0.3, neighbor_overlap=0.5,
    ),
}


def edit_tables(model, edit):
    """Rewrite a saved model's model.npz with ``edit`` applied in place to
    the dict of its member arrays. ``np.savez`` writes fresh CRC-32s, so
    only the loader's own checks stand between the edit and a model."""
    path = Path(model) / "model.npz"
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    np.savez(path, **members)


def edit_manifest(model, edit):
    """Rewrite a saved model's manifest member with ``edit`` applied in
    place to the manifest's dict."""

    def edit_member(members):
        manifest = json.loads(members["manifest"].tobytes())
        edit(manifest)
        members["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)

    edit_tables(model, edit_member)


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


def as_corpus(posts):
    """The ``TrainingCorpus`` of the TokenizedPost list ``posts``, kept as
    they are: the vocabulary is every token they hold, and nothing is
    dropped or folded."""
    vocab = tuple(sorted({t for post in posts for t in post.tokens}))
    index = {t: i for i, t in enumerate(vocab)}
    points = [post.location for post in posts]
    return TrainingCorpus(
        ids=tuple(post.id for post in posts),
        vocab=vocab,
        token_ids=np.array([index[t] for post in posts for t in post.tokens], dtype=np.int32),
        lens=np.array([len(post.tokens) for post in posts], dtype=np.int64),
        lats=np.array([np.nan if p is None else p.lat for p in points], dtype=np.float64),
        lons=np.array([np.nan if p is None else p.lon for p in points], dtype=np.float64),
    )


def decode(corpus):
    """The posts of a ``TrainingCorpus`` as TokenizedPost instances: each
    post's word ids looked up in the vocabulary, and a NaN location as
    None."""
    ends = np.cumsum(corpus.lens).tolist()
    words = [corpus.vocab[t] for t in corpus.token_ids.tolist()]
    return [
        TokenizedPost(
            id=post_id,
            tokens=tuple(words[end - n : end]),
            location=None if np.isnan(lat) else GeoPoint(lat, lon),
        )
        for post_id, n, end, lat, lon in zip(
            corpus.ids, corpus.lens.tolist(), ends, corpus.lats.tolist(), corpus.lons.tolist()
        )
    ]


def assert_same_tables(got, want):
    """Every field of two ``EnsembleTables`` is equal, each array in its
    dtype, shape and bytes."""
    for field in dataclasses.fields(got):
        x, y = getattr(got, field.name), getattr(want, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        else:
            assert x == y, field.name


def one_cell_tables(token_lists):
    """The compiled tables of a g = 1 ensemble trained on ``token_lists``:
    every word has one entry, at ``word_ptr[index[word]]``."""
    part = partition(GeoBounds(0.0, 0.0, 1.0, 1.0), 1)
    corpus = as_corpus(as_tokenized(token_lists, part.center_of(CellId(0, 0))))
    artifacts = PipelineArtifacts(frozenset(), frozenset(corpus.vocab))
    return build_ensemble(corpus, part, SmoothingConfig(), artifacts).tables


def pair_probs(tables, pairs, baseline=None):
    """P(w | v) of every (v, w) of ``pairs`` in a one-cell ensemble's
    ``tables``: exp of each pair's row of ``log_likelihoods``, so floored
    at MIN_PROB."""
    rows = tables.log_likelihoods([[v, w] for v, w in pairs], baseline)
    return [exp(x) for x in rows[:, 0].tolist()]
