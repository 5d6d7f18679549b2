"""Versioned on-disk model directory.

Layout (format version 4), exactly two files:

    manifest.json    format version, bounds, g, alpha, d, stopword count,
                     creation metadata, training-set size
    tables.npz       the count tables, an uncompressed ``np.savez`` archive

The archive holds one array per member, with V words and ``cell`` the
row-major cell index:

    vocab         uint8    (bytes,)   sorted vocabulary, newline-joined UTF-8
    stopwords     uint8    (bytes,)   sorted stopwords, newline-joined UTF-8
    post_counts   int64    (g*g,)     training posts per cell
    discounts     float64  (g*g, 7)   n1 n2 n3 n4 d1 d2 d3 per cell
    word_keys     int64    (entries,) word * g*g + cell, increasing
    word_count    int64    (entries,) c(word) in the cell
    pair_keys     int64    (pairs,)   (v * (V + 1) + w) * g*g + cell, increasing
    pair_count    int64    (pairs,)   c(v, w) in the cell

The keys and counts are the arrays ``compile_tables`` takes, so loading
passes them straight to it: discounts, back-off weights and priors are
recomputed from the integer counts, and a load/save round trip
reproduces the in-memory model exactly. The tables name words by id, so
the vocabulary is in the archive too, under its CRC-32s. Each member is
read whole, which makes zipfile check its CRC-32 (``np.load`` of the
archive stops at the end of the array a member's header declares, and
then never checks it). The vocabulary alone decides query-time folding:
a word outside it, a training hapax included, folds to ``<misc>``.

An unreadable archive (bad CRC-32, truncated, a member missing, extra,
compressed, pickled or of another dtype, ndim or length), a count below
1, a key naming a word id outside the vocabulary, keys that repeat or
are out of order, a vocabulary out of order or holding a token never
counted, a stopword not lowercase, a token other than ``<misc>`` that is
both a stopword and in the vocabulary, cell tables without g**2 rows, or
stored n1..n4/d1..d3 that differ from the values recomputed from the
pair counts is a ``DataError``. So is a model of another format version;
there is no reader for older layouts.

Saving writes into a fresh sibling directory and renames it into place,
so a reader sees the old model, the new one or (for the moment between
two renames) none, never a mix; see ``save_model``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import uuid
import zipfile
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ValidationError
from .estimator import GeoEnsemble, SmoothingConfig
from .grid import GeoBounds, GridPartition
from .lm import compile_tables
from .pipeline import MISC, PipelineArtifacts, PipelineConfig

FORMAT_VERSION = 4

_MANIFEST = "manifest.json"
_TABLES = "tables.npz"
_discount_fields = attrgetter("n1", "n2", "n3", "n4", "d1", "d2", "d3")
# Archive member -> (dtype, ndim).
_MEMBERS = {
    "vocab": (np.uint8, 1),
    "stopwords": (np.uint8, 1),
    "post_counts": (np.int64, 1),
    "discounts": (np.float64, 2),
    "word_keys": (np.int64, 1),
    "word_count": (np.int64, 1),
    "pair_keys": (np.int64, 1),
    "pair_count": (np.int64, 1),
}


def _read_text(path: Path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise DataError(f"missing {path.name} in model directory") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path.name} is not UTF-8 text: {exc}") from None


def _text(words) -> np.ndarray:
    return np.frombuffer("\n".join(words).encode("utf-8"), dtype=np.uint8)


def _words(text: np.ndarray, name: str) -> list[str]:
    try:
        joined = text.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{_TABLES} member {name} is not UTF-8 text: {exc}") from None
    return joined.split("\n") if joined else []


def _outside(ids: np.ndarray, stop: int) -> bool:
    return len(ids) > 0 and (ids.min() < 0 or ids.max() >= stop)


def save_model(ens: GeoEnsemble, out_dir: str | Path, seed: Optional[int] = None) -> Path:
    """Persist an ensemble, replacing any model already in ``out_dir``.

    The files go into a fresh sibling directory, which is then renamed
    into place; an existing model is renamed aside first and removed
    afterwards. Whatever fails, the new directory is removed and the
    previous model is left as it was. A non-empty directory without a
    manifest is refused, since it holds something other than a model."""
    out = Path(out_dir)
    target = Path(os.path.abspath(out))
    if os.path.lexists(target) and not (target / _MANIFEST).is_file():
        if not target.is_dir() or any(target.iterdir()):
            raise DataError(f"{out} holds something other than a model; refusing to replace it")
    vocab = sorted(ens.artifacts.vocab)
    if tuple(vocab) != ens.tables.vocab:
        raise ValidationError("the ensemble's pipeline vocabulary differs from its count tables")

    target.parent.mkdir(parents=True, exist_ok=True)
    tag = f".{target.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}"
    new = target.with_name(f"{tag}.new")
    new.mkdir()
    old = None
    try:
        _write_files(ens, new, vocab, seed)
        if os.path.lexists(target):
            old = target.rename(target.with_name(f"{tag}.old"))
        new.rename(target)
    except BaseException:
        if old is not None and not os.path.lexists(target):
            old.rename(target)
        shutil.rmtree(new, ignore_errors=True)
        raise
    if old is not None:
        shutil.rmtree(old, ignore_errors=True)
    return out


def _write_files(ens: GeoEnsemble, out: Path, vocab: list[str], seed: Optional[int]) -> None:
    part, tables = ens.partition, ens.tables
    manifest = {
        "format_version": FORMAT_VERSION,
        "bounds": {
            "south": part.bounds.south,
            "west": part.bounds.west,
            "north": part.bounds.north,
            "east": part.bounds.east,
        },
        "grid_size": part.g,
        "alpha": ens.smoothing.alpha,
        "diameter": ens.smoothing.diameter_for(part.g),
        "stopword_count": ens.artifacts.config.stopword_count,
        "training_posts": ens.total_posts,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out / _MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    n_cells = len(tables.post_counts)
    words = np.repeat(np.arange(len(vocab)), np.diff(tables.word_ptr)[:-1])
    np.savez(
        out / _TABLES,
        vocab=_text(vocab),
        stopwords=_text(sorted(ens.artifacts.config.stopwords)),
        post_counts=tables.post_counts,
        discounts=np.array([_discount_fields(d) for d in tables.discounts], dtype=np.float64),
        word_keys=words * n_cells + tables.word_cell,
        word_count=tables.word_count,
        pair_keys=tables.pair_key * n_cells + tables.pair_cell,
        pair_count=tables.pair_count,
    )


def load_model(model_dir: str | Path) -> GeoEnsemble:
    """Reconstruct an ensemble from a model directory, validating the
    manifest fields and format version, and every member of the archive."""
    root = Path(model_dir)
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise DataError(f"{root} is not a model directory (no {_MANIFEST})")
    try:
        manifest = json.loads(_read_text(manifest_path))
    except json.JSONDecodeError as exc:
        raise DataError(f"unreadable {_MANIFEST}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{_MANIFEST} does not hold a JSON object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {version!r} (this build reads {FORMAT_VERSION})"
        )

    try:
        b = manifest["bounds"]
        part = GridPartition(
            GeoBounds(b["south"], b["west"], b["north"], b["east"]), manifest["grid_size"]
        )
        smoothing = SmoothingConfig(alpha=manifest["alpha"], diameter=manifest["diameter"])
        total_posts = manifest["training_posts"]
        config = PipelineConfig(stopword_count=manifest["stopword_count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {_MANIFEST} in {root}: missing or bad field {exc}") from None
    if not isinstance(total_posts, int) or total_posts < 1:
        raise DataError(f"{_MANIFEST} training_posts must be a positive integer")

    n_cells = part.g * part.g
    a = _read_tables(root / _TABLES, n_cells)
    vocab = _words(a["vocab"], "vocab")
    if not all(map(str.__lt__, vocab[:-1], vocab[1:])):
        raise DataError(f"{_TABLES}: the vocabulary is not strictly increasing")
    try:
        stopwords = frozenset(_words(a["stopwords"], "stopwords"))
        config = dataclasses.replace(config, stopwords=stopwords)
    except ValidationError as exc:
        raise DataError(f"bad stopword list in {_TABLES}: {exc}") from None
    artifacts = PipelineArtifacts(config=config, vocab=frozenset(vocab))
    # Training never keeps a stopword in the vocabulary, except the fold
    # target <misc> (a literal <misc> in the corpus can be a stopword).
    shared = config.stopwords & artifacts.vocab - {MISC}
    if shared:
        raise DataError(f"{min(shared)!r} is listed in both the stopwords and the vocabulary")

    post_counts = a["post_counts"]
    if post_counts.min() < 0:
        raise DataError(f"{_TABLES}: post_counts must be >= 0, found {post_counts.min()}")
    if post_counts.sum() != total_posts:
        raise DataError("per-cell post counts disagree with the manifest training-set size")
    for name in ("word_count", "pair_count"):
        if a[name].min(initial=1) < 1:
            raise DataError(f"{_TABLES}: {name} must be >= 1, found {a[name].min()}")
    v, w = np.divmod(a["pair_keys"] // n_cells, len(vocab) + 1)
    if any(_outside(ids, len(vocab)) for ids in (a["word_keys"] // n_cells, v, w)):
        raise DataError(f"{_TABLES}: a key names a word id outside the vocabulary")

    index = dict(zip(vocab, range(len(vocab))))
    try:
        tables = compile_tables(
            index, post_counts, a["word_keys"], a["word_count"], a["pair_keys"], a["pair_count"]
        )
    except ValueError as exc:
        raise DataError(f"inconsistent count tables in {root}: {exc}") from None
    if np.count_nonzero(np.diff(tables.word_ptr)) != len(index):
        raise DataError(f"{_TABLES}: the vocabulary lists tokens that word_keys never counts")
    # Counts-of-counts compare exactly as floats, far below 2**53.
    expected = np.array([_discount_fields(d) for d in tables.discounts], dtype=np.float64)
    bad = np.flatnonzero(np.any(a["discounts"] != expected, axis=1))
    if len(bad):
        raise DataError(
            f"{_TABLES}: cell {bad[0]}: counts-of-counts or discounts disagree with the pair counts"
        )
    return GeoEnsemble(partition=part, tables=tables, smoothing=smoothing, artifacts=artifacts)


def _read_tables(path: Path, n_cells: int) -> dict[str, np.ndarray]:
    """Every member of the archive as an array of its dtype and ndim, each
    read whole so that zipfile checks its CRC-32, with one row per cell in
    the cell tables and equal lengths for the keys and their counts."""
    expected = sorted(f"{name}.npy" for name in _MEMBERS)
    try:
        with zipfile.ZipFile(path) as archive:
            if sorted(archive.namelist()) != expected:
                found = sorted(archive.namelist())
                raise DataError(f"{path.name} holds {found}, expected {expected}")
            if any(info.compress_type != zipfile.ZIP_STORED for info in archive.infolist()):
                raise DataError(f"{path.name} has a compressed member")
            a = {
                name: np.load(io.BytesIO(archive.read(f"{name}.npy")), allow_pickle=False)
                for name in _MEMBERS
            }
    except FileNotFoundError:
        raise DataError(f"missing {path.name} in model directory") from None
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise DataError(f"unreadable {path.name}: {exc}") from None
    for name, (dtype, ndim) in _MEMBERS.items():
        if not isinstance(a[name], np.ndarray) or a[name].dtype != dtype or a[name].ndim != ndim:
            raise DataError(f"{path.name} member {name} is not a {ndim}-D {np.dtype(dtype)} array")
    if len(a["post_counts"]) != n_cells or a["discounts"].shape != (n_cells, 7):
        raise DataError(f"{path.name}: the cell tables need one row per cell ({n_cells})")
    for keys, counts in (("word_keys", "word_count"), ("pair_keys", "pair_count")):
        if len(a[keys]) != len(a[counts]):
            raise DataError(f"{path.name}: {keys} and {counts} differ in length")
    return a
