"""Versioned on-disk model directory.

Layout (format version 2), exactly seven files:

    manifest.json    format/version, bounds, g, alpha, d, K,
                     creation metadata, training-set size
    stopwords.txt    one token per line, sorted
    hapax.txt        one token per line, sorted
    vocab.txt        one token per line, sorted
    cells.tsv        line i is row-major cell i:
                     post_count n1 n2 n3 n4 d1 d2 d3
    unigrams.tsv     token <TAB> cell <TAB> count, by token, then cell
    bigrams.tsv      v <TAB> w <TAB> cell <TAB> count, by (v, w), then cell

``cell`` is the row-major cell index. The three tables are the rows of
the ensemble's compiled tables in the order those tables keep them, so
saving writes them straight from the arrays and loading parses them
straight back. Count tables are plain text for diffability. Discounts,
back-off weights and priors are recomputed from the integer counts on
load, so a load/save round trip reproduces the in-memory model exactly.
Any malformed field, count below 1, cell index outside the grid, row
that repeats or is out of order, token missing from vocab.txt (or
vocab.txt token never counted), cells.tsv line count other than g**2, or
stored n1..n4/d1..d3 that differ from the values recomputed from the
bigram counts is a ``DataError``. So is a model of another format
version; there is no reader for older layouts.

Saving writes into a fresh sibling directory and renames it into place,
so a reader sees the old model, the new one or (for the moment between
two renames) none, never a mix; see ``save_model``.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from datetime import datetime, timezone
from functools import partial
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ValidationError
from .estimator import GeoEnsemble, SmoothingConfig
from .grid import GeoBounds, GridPartition
from .lm import compile_tables
from .pipeline import PipelineArtifacts, PipelineConfig

FORMAT_VERSION = 2

_MANIFEST = "manifest.json"
_STOPWORDS = "stopwords.txt"
_HAPAX = "hapax.txt"
_VOCAB = "vocab.txt"
_CELLS = "cells.tsv"
_UNIGRAMS = "unigrams.tsv"
_BIGRAMS = "bigrams.tsv"
_discount_fields = attrgetter("n1", "n2", "n3", "n4", "d1", "d2", "d3")
# Tables are formatted and parsed a block of rows (on load, about this
# many characters) at a time, so that only one block of them is ever held
# as Python strings: a whole table of them would raise the peak memory of
# a save or load well above that of the arrays themselves.
_BLOCK = 1 << 16


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def _write_table(path: Path, *columns: np.ndarray) -> None:
    """One tab-separated line per row of the equal-length ``columns``."""
    line = "\t".join(["{}"] * len(columns)).format
    blocks = (
        map(line, *(column[lo : lo + _BLOCK].tolist() for column in columns))
        for lo in range(0, len(columns[0]), _BLOCK)
    )
    _write_lines(path, chain.from_iterable(blocks))


def _read_text(path: Path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise DataError(f"missing {path.name} in model directory") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path.name} is not UTF-8 text: {exc}") from None


def _read_lines(path: Path) -> list[str]:
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_table(path: Path, *parsers) -> list[np.ndarray]:
    """The columns of a TSV file with one field per parser, each made an
    array by its parser, which is called with the path and the fields."""
    width, text = len(parsers), _read_text(path)
    stop = len(text) - text.endswith("\n")
    blocks, start, lineno = [], 0, 1
    while start < stop:
        end = text.find("\n", start + _BLOCK, stop)
        end = stop if end < 0 else end
        lines = text[start:end].split("\n")
        if set(map(str.count, lines, repeat("\t"))) != {width - 1}:
            bad = next(i for i, line in enumerate(lines) if line.count("\t") != width - 1)
            raise DataError(f"{path.name} line {lineno + bad}: expected {width} tab-separated fields")
        fields = "\t".join(lines).split("\t")
        blocks.append([parse(path, fields[k::width]) for k, parse in enumerate(parsers)])
        start, lineno = end + 1, lineno + len(lines)
    if not blocks:
        return [parse(path, []) for parse in parsers]
    return [np.concatenate(column) for column in zip(*blocks)]


def _read_ints(path: Path, fields: list[str], minimum: int) -> np.ndarray:
    try:
        values = np.array(fields, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path.name}: bad integer field ({exc})") from None
    if len(values) and values.min() < minimum:
        raise DataError(f"{path.name}: fields must be >= {minimum}, found {values.min()}")
    return values


def _read_floats(path: Path, fields: list[str]) -> np.ndarray:
    try:
        return np.array(fields, dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path.name}: bad number field ({exc})") from None


def _ids(path: Path, fields: list[str], index: dict[str, int], what: str) -> np.ndarray:
    """The number ``index`` gives each field; a field it lacks is not ``what``."""
    try:
        return np.fromiter(map(index.__getitem__, fields), np.int64, len(fields))
    except KeyError as exc:
        raise DataError(f"{path.name}: {exc.args[0]!r} is not {what}") from None


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

    _write_lines(out / _STOPWORDS, sorted(ens.artifacts.config.stopwords))
    _write_lines(out / _HAPAX, sorted(ens.artifacts.hapax))
    _write_lines(out / _VOCAB, vocab)
    discounts = np.array([_discount_fields(d) for d in tables.discounts], dtype=object)
    _write_table(out / _CELLS, tables.post_counts, *discounts.T)
    token = np.array(vocab, dtype=object)
    words = np.repeat(np.arange(len(vocab)), np.diff(tables.word_ptr)[:-1])
    _write_table(out / _UNIGRAMS, token[words], tables.word_cell, tables.word_count)
    v, w = np.divmod(tables.pair_key, len(vocab) + 1)
    _write_table(out / _BIGRAMS, token[v], token[w], tables.pair_cell, tables.pair_count)


def load_model(model_dir: str | Path) -> GeoEnsemble:
    """Reconstruct an ensemble from a model directory, validating the
    manifest fields and format version, the cell table, and every count
    row."""
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
        config = PipelineConfig(
            stopword_count=manifest["stopword_count"],
            stopwords=tuple(_read_lines(root / _STOPWORDS)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {_MANIFEST} in {root}: missing or bad field {exc}") from None
    if not isinstance(total_posts, int) or total_posts < 1:
        raise DataError(f"{_MANIFEST} training_posts must be a positive integer")

    artifacts = PipelineArtifacts(
        config=config,
        hapax=frozenset(_read_lines(root / _HAPAX)),
        vocab=frozenset(_read_lines(root / _VOCAB)),
    )
    index = {t: i for i, t in enumerate(sorted(artifacts.vocab))}
    n_cells = part.g * part.g

    path = root / _CELLS
    post_counts, *stored = _read_table(path, partial(_read_ints, minimum=0), *[_read_floats] * 7)
    if len(post_counts) != n_cells:
        raise DataError(f"{_CELLS} has {len(post_counts)} lines, expected one per cell ({n_cells})")
    if post_counts.sum() != total_posts:
        raise DataError("per-cell post counts disagree with the manifest training-set size")

    token = partial(_ids, index=index, what=f"a token in {_VOCAB}")
    cell = partial(
        _ids, index={str(i): i for i in range(n_cells)}, what=f"a cell index below {n_cells}"
    )
    count = partial(_read_ints, minimum=1)
    word, word_cell, word_count = _read_table(root / _UNIGRAMS, token, cell, count)
    v, w, pair_cell, pair_count = _read_table(root / _BIGRAMS, token, token, cell, count)

    try:
        tables = compile_tables(
            index,
            post_counts,
            word * n_cells + word_cell,
            word_count,
            (v * (len(index) + 1) + w) * n_cells + pair_cell,
            pair_count,
        )
    except ValueError as exc:
        raise DataError(f"inconsistent count tables in {root}: {exc}") from None
    if np.count_nonzero(np.diff(tables.word_ptr)) != len(index):
        raise DataError(f"{_VOCAB} lists tokens that {_UNIGRAMS} never counts")
    # Counts-of-counts compare exactly as floats, far below 2**53.
    expected = np.array([_discount_fields(d) for d in tables.discounts], dtype=np.float64)
    bad = np.flatnonzero(np.any(np.column_stack(stored) != expected, axis=1))
    if len(bad):
        raise DataError(
            f"{_CELLS} line {bad[0] + 1}: counts-of-counts or discounts disagree with {_BIGRAMS}"
        )
    return GeoEnsemble(partition=part, tables=tables, smoothing=smoothing, artifacts=artifacts)
