"""Versioned on-disk model directory.

Layout (format version 5), exactly two files:

    manifest.json    format version, bounds, g, alpha, d, training-set
                     size, seed, creation time
    tables.npz       the count tables, an uncompressed ``np.savez`` archive

The archive holds one array per member, with V words and ``cell`` the
row-major cell index:

    vocab         uint8    (bytes,)   sorted vocabulary, newline-joined UTF-8
    stopwords     uint8    (bytes,)   sorted stopwords, newline-joined UTF-8
    discounts     float64  (g*g, 7)   n1 n2 n3 n4 d1 d2 d3 per cell
    post_counts   int64    (g*g,)     training posts per cell
    word_keys     int64    (entries,) word * g*g + cell, increasing
    word_count    int64    (entries,) c(word) in the cell
    pair_keys     int64    (pairs,)   (v * (V + 1) + w) * g*g + cell, increasing
    pair_count    int64    (pairs,)   c(v, w) in the cell

The last five are ``EnsembleTables.count_arrays``, the arrays
``compile_tables`` takes, so loading passes them straight back to it:
discounts, back-off weights and priors are recomputed from the integer
counts, and a load/save round trip reproduces the in-memory model
exactly. The tables name words by id, so the vocabulary is in the
archive too, under its CRC-32s. Each member is read whole, which makes
zipfile check its CRC-32 (``np.load`` of the archive stops at the end of
the array a member's header declares, and then never checks it). The
vocabulary alone decides query-time folding: a word outside it, a
training hapax included, folds to ``<misc>``.

Every failed check is a ``DataError``, and each has one owner. This
module refuses a model of another format version (there is no reader for
older layouts), a malformed manifest, an unreadable archive (bad CRC-32,
truncated, a member missing, extra, compressed, pickled or of another
dtype, ndim or length, cell tables without g**2 rows), a vocabulary out
of order, post counts that do not sum to the manifest's training-set
size, and stored n1..n4/d1..d3 that differ from the values recomputed
from the pair counts. ``PipelineArtifacts`` refuses a stopword not
lowercase and a token other than ``<misc>`` that is both a stopword and
in the vocabulary. ``compile_tables`` refuses every flaw of the count
arrays: a post count below 0 or another count below 1, post counts that
are all zero, keys that repeat or are out of order, a key naming a word
id outside the vocabulary, a pair whose words have no entry in its
cell, and a vocabulary token never counted.

Saving writes into a fresh sibling directory and renames it into place,
so a reader sees the old model, the new one or (for the moment between
two renames) none, never a mix; see ``save_model``.
"""

from __future__ import annotations

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
from .pipeline import PipelineArtifacts

FORMAT_VERSION = 5

_MANIFEST = "manifest.json"
_TABLES = "tables.npz"
_discount_fields = attrgetter("n1", "n2", "n3", "n4", "d1", "d2", "d3")
# Archive member -> (dtype, ndim).
_MEMBERS = {
    "vocab": (np.uint8, 1),
    "stopwords": (np.uint8, 1),
    "discounts": (np.float64, 2),
    "post_counts": (np.int64, 1),
    "word_keys": (np.int64, 1),
    "word_count": (np.int64, 1),
    "pair_keys": (np.int64, 1),
    "pair_count": (np.int64, 1),
}


def _text(words) -> np.ndarray:
    return np.frombuffer("\n".join(words).encode("utf-8"), dtype=np.uint8)


def _words(text: np.ndarray, name: str) -> list[str]:
    try:
        joined = text.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{_TABLES} member {name} is not UTF-8 text: {exc}") from None
    return joined.split("\n") if joined else []


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
    if tuple(sorted(ens.artifacts.vocab)) != ens.tables.vocab:
        raise ValidationError("the ensemble's pipeline vocabulary differs from its count tables")

    target.parent.mkdir(parents=True, exist_ok=True)
    tag = f".{target.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}"
    new = target.with_name(f"{tag}.new")
    new.mkdir()
    old = None
    try:
        _write_files(ens, new, seed)
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


def _write_files(ens: GeoEnsemble, out: Path, seed: Optional[int]) -> None:
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
        "training_posts": ens.total_posts,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out / _MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    np.savez(
        out / _TABLES,
        vocab=_text(tables.vocab),
        stopwords=_text(sorted(ens.artifacts.stopwords)),
        discounts=_discount_array(tables.discounts),
        **tables.count_arrays(),
    )


def _discount_array(discounts) -> np.ndarray:
    # Counts-of-counts compare exactly as floats, far below 2**53.
    return np.array([_discount_fields(d) for d in discounts], dtype=np.float64)


def load_model(model_dir: str | Path) -> GeoEnsemble:
    """Reconstruct an ensemble from a model directory, validating the
    manifest fields and format version, and every member of the archive."""
    root = Path(model_dir)
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise DataError(f"{root} is not a model directory (no {_MANIFEST})")
    try:
        # Bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError.
        manifest = json.loads(manifest_path.read_bytes())
    except (OSError, ValueError) as exc:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {_MANIFEST} in {root}: missing or bad field {exc}") from None
    if isinstance(total_posts, bool) or not isinstance(total_posts, int):
        raise DataError(f"{_MANIFEST} training_posts must be an integer")

    n_cells = part.g * part.g
    a = _read_tables(root / _TABLES, n_cells)
    vocab = _words(a.pop("vocab"), "vocab")
    vocab_set = frozenset(vocab)
    if len(vocab_set) != len(vocab) or vocab != sorted(vocab):
        raise DataError(f"{_TABLES}: the vocabulary is not strictly increasing")
    try:
        artifacts = PipelineArtifacts(
            stopwords=frozenset(_words(a.pop("stopwords"), "stopwords")), vocab=vocab_set
        )
    except ValidationError as exc:
        raise DataError(f"bad stopword list in {_TABLES}: {exc}") from None
    stored = a.pop("discounts")
    try:
        tables = compile_tables(vocab, **a)
    except ValueError as exc:
        raise DataError(f"inconsistent count tables in {root}: {exc}") from None
    if tables.post_counts.sum() != total_posts:
        raise DataError("per-cell post counts disagree with the manifest training-set size")
    bad = np.flatnonzero(np.any(stored != _discount_array(tables.discounts), axis=1))
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
