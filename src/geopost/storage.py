"""Versioned on-disk model: one archive file in a model directory.

Layout (format version 6): the directory holds ``model.npz``, an
uncompressed ``np.savez`` archive with one array per member, with V
words and ``cell`` the row-major cell index:

    manifest      uint8    (bytes,)   JSON object, UTF-8: format version,
                                      bounds, g, alpha, d (null: every
                                      ring), training-set size, seed,
                                      creation time
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
discounts, back-off weights, continuation probabilities and their logs,
pair terms (discounted count over c(v)) and priors are recomputed from
the integer counts, and a load/save round trip reproduces the in-memory
model exactly. The tables name words by id, so the vocabulary is in the
archive too, under its CRC-32s. Each member is read whole, which makes
zipfile check its CRC-32 (``np.load`` of the archive stops at the end of
the array a member's header declares, and then never checks it). The
vocabulary alone decides query-time folding: a word outside it, a
training hapax included, folds to ``<misc>``.

Every failed check is a ``DataError``, and each has one owner. This
module refuses a directory without ``model.npz`` (format 5 and older
kept a ``manifest.json`` beside the tables), a model of another format
version (there is no reader for older layouts), a malformed manifest,
an unreadable archive (bad CRC-32, truncated, a member missing, extra,
compressed, pickled or of another dtype, ndim or length, cell tables
without g**2 rows), a vocabulary out of order, post counts that do not
sum to the manifest's training-set size, and stored n1..n4/d1..d3 that
differ from the values recomputed from the pair counts.
``PipelineArtifacts`` refuses a stopword not lowercase and a token
other than ``<misc>`` that is both a stopword and in the vocabulary.
``compile_tables`` refuses every flaw of the count arrays: a post count
below 0 or another count below 1, post counts that are all zero, keys
that repeat or are out of order, a key naming a word id outside the
vocabulary, a pair whose words have no entry in its cell, and a
vocabulary token never counted.

Saving renames a finished archive onto ``model.npz``, so a reader sees
the old model or the new one, never a mix and never none; see
``save_model``.
"""

from __future__ import annotations

import io
import json
import os
import uuid
import zipfile
from dataclasses import asdict
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ValidationError
from .estimator import GeoEnsemble, SmoothingConfig
from .grid import GeoBounds, GridPartition
from .lm import compile_tables
from .pipeline import PipelineArtifacts, vocab_agrees

FORMAT_VERSION = 6

_MODEL = "model.npz"
_discount_fields = attrgetter("n1", "n2", "n3", "n4", "d1", "d2", "d3")
# Archive member -> (dtype, ndim).
_MEMBERS = {
    "manifest": (np.uint8, 1),
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
        raise DataError(f"{_MODEL} member {name} is not UTF-8 text: {exc}") from None
    return joined.split("\n") if joined else []


def save_model(ens: GeoEnsemble, out_dir: str | Path, seed: Optional[int] = None) -> Path:
    """Persist an ensemble as ``model.npz`` in ``out_dir``, replacing any
    model already there, and creating the directory if it is missing.

    The archive is written to a hidden temporary file in the directory,
    which one ``os.replace`` then moves onto ``model.npz``; whatever
    fails, the temporary file is removed and the previous model is left
    as it was. Nothing else in the directory is touched."""
    out = Path(out_dir)
    if not vocab_agrees(ens.tables.vocab, ens.artifacts.vocab):
        raise ValidationError("the ensemble's pipeline vocabulary differs from its count tables")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise DataError(f"{out} exists and is not a directory") from None

    tmp = out / f".{_MODEL}.{os.getpid()}-{uuid.uuid4().hex[:8]}"
    f = open(tmp, "xb")  # before the try: a file already of that name is not ours to remove
    try:
        with f:
            _write_archive(ens, f, seed)
        os.replace(tmp, out / _MODEL)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out


def _write_archive(ens: GeoEnsemble, f, seed: Optional[int]) -> None:
    part, tables = ens.partition, ens.tables
    manifest = {
        "format_version": FORMAT_VERSION,
        "bounds": asdict(part.bounds),
        "grid_size": part.g,
        "alpha": ens.smoothing.alpha,
        "diameter": ens.smoothing.diameter,
        "training_posts": ens.total_posts,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    # A file object, since np.savez adds ".npz" to a path that lacks it.
    np.savez(
        f,
        manifest=_text([json.dumps(manifest, indent=2, sort_keys=True)]),
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
    path = root / _MODEL
    if not path.is_file():
        if (root / "manifest.json").is_file():
            raise DataError(f"{root} holds a model of format 5 or earlier; train it again")
        raise DataError(f"{root} is not a model directory (no {_MODEL})")
    try:
        manifest, a = _read_archive(path)
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise DataError(f"unreadable {_MODEL}: {exc}") from None

    try:
        b = manifest["bounds"]
        part = GridPartition(
            GeoBounds(b["south"], b["west"], b["north"], b["east"]), manifest["grid_size"]
        )
        smoothing = SmoothingConfig(alpha=manifest["alpha"], diameter=manifest["diameter"])
        total_posts = manifest["training_posts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed manifest in {path}: missing or bad field {exc}") from None
    if isinstance(total_posts, bool) or not isinstance(total_posts, int):
        raise DataError(f"{_MODEL}: manifest training_posts must be an integer")

    n_cells = part.g * part.g
    if len(a["post_counts"]) != n_cells or a["discounts"].shape != (n_cells, 7):
        raise DataError(f"{_MODEL}: the cell tables need one row per cell ({n_cells})")
    vocab = _words(a.pop("vocab"), "vocab")
    vocab_set = frozenset(vocab)
    if not vocab_agrees(vocab, vocab_set):
        raise DataError(f"{_MODEL}: the vocabulary is not strictly increasing")
    try:
        artifacts = PipelineArtifacts(
            stopwords=frozenset(_words(a.pop("stopwords"), "stopwords")), vocab=vocab_set
        )
    except ValidationError as exc:
        raise DataError(f"bad stopword list in {_MODEL}: {exc}") from None
    stored = a.pop("discounts")
    try:
        tables = compile_tables(vocab, **a)
    except ValueError as exc:
        raise DataError(f"inconsistent count tables in {path}: {exc}") from None
    if tables.post_counts.sum() != total_posts:
        raise DataError("per-cell post counts disagree with the manifest training-set size")
    bad = np.flatnonzero(np.any(stored != _discount_array(tables.discounts), axis=1))
    if len(bad):
        raise DataError(
            f"{_MODEL}: cell {bad[0]}: counts-of-counts or discounts disagree with the pair counts"
        )
    return GeoEnsemble(partition=part, tables=tables, smoothing=smoothing, artifacts=artifacts)


def _read_archive(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and every other member. The manifest is read first,
    so that a model of another format is refused by its version, not by
    its member list. Each member is read whole, so that zipfile checks
    its CRC-32, and must be an array of its dtype and ndim."""

    def member(name: str) -> np.ndarray:
        array = np.load(io.BytesIO(archive.read(f"{name}.npy")), allow_pickle=False)
        dtype, ndim = _MEMBERS[name]
        if not isinstance(array, np.ndarray) or array.dtype != dtype or array.ndim != ndim:
            raise DataError(f"{_MODEL} member {name} is not a {ndim}-D {np.dtype(dtype)} array")
        return array

    with zipfile.ZipFile(path) as archive:
        try:
            # Bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError.
            manifest = json.loads(member("manifest").tobytes())
        except (KeyError, ValueError) as exc:
            raise DataError(f"{_MODEL}: unreadable manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise DataError(f"{_MODEL}: the manifest does not hold a JSON object")
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise DataError(
                f"unsupported model format version {version!r} (this build reads {FORMAT_VERSION})"
            )
        expected = sorted(f"{name}.npy" for name in _MEMBERS)
        found = sorted(archive.namelist())
        if found != expected:
            raise DataError(f"{_MODEL} holds {found}, expected {expected}")
        if any(info.compress_type != zipfile.ZIP_STORED for info in archive.infolist()):
            raise DataError(f"{_MODEL} has a compressed member")
        a = {name: member(name) for name in _MEMBERS if name != "manifest"}
    for keys, counts in (("word_keys", "word_count"), ("pair_keys", "pair_count")):
        if len(a[keys]) != len(a[counts]):
            raise DataError(f"{_MODEL}: {keys} and {counts} differ in length")
    return manifest, a
