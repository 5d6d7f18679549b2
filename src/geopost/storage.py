"""Versioned on-disk model directory.

Layout:

    manifest.json                  format/version, bounds, g, alpha, d, K,
                                   creation metadata, training-set size
    stopwords.txt                  one token per line, sorted
    hapax.txt                      one token per line, sorted
    vocab.txt                      one token per line, sorted
    priors.tsv                     row <TAB> col <TAB> post_count <TAB> prior
    cells/cell_RRR_CCC.unigrams.tsv   token <TAB> count
    cells/cell_RRR_CCC.bigrams.tsv    token <TAB> token <TAB> count
    cells/cell_RRR_CCC.meta.json      post_count, n1..n4, d1..d3

Count tables are plain sorted text for diffability. Discounts, back-off
weights and priors are recomputed from the integer counts on load, so a
load/save round trip reproduces the in-memory model exactly. The loader
parses the count files straight into the ensemble's compiled tables; any
malformed field, count below 1, duplicate row, token missing from
vocab.txt, or meta.json n1..n4/d1..d3 that differ from the values
recomputed from the bigram counts is a ``DataError``.
"""

from __future__ import annotations

import json
import shutil
from datetime import datetime, timezone
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .estimator import GeoEnsemble, SmoothingConfig
from .grid import CellId, GeoBounds, GridPartition
from .lm import compile_tables
from .pipeline import PipelineArtifacts, PipelineConfig

FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_STOPWORDS = "stopwords.txt"
_HAPAX = "hapax.txt"
_VOCAB = "vocab.txt"
_PRIORS = "priors.tsv"
_CELLS = "cells"
_LOCK = ".lock"
# Derived fields of cells/*.meta.json, checked against the discounts
# recomputed from the bigram counts on load.
_META_DISCOUNT_FIELDS = ("n1", "n2", "n3", "n4", "d1", "d2", "d3")
_discount_fields = attrgetter(*_META_DISCOUNT_FIELDS)


def _cell_stem(cell: CellId) -> str:
    return f"cell_{cell.row:03d}_{cell.col:03d}"


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def _read_text(path: Path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path.name} is not UTF-8 text: {exc}") from None


def _read_lines(path: Path) -> list[str]:
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"unreadable {path.name}: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path.name} does not hold a JSON object")
    return obj


def _read_columns(path: Path, width: int) -> list[list[str]]:
    """The ``width`` columns of a TSV file with ``width`` fields a line."""
    lines = _read_lines(path)
    if not lines:
        return [[] for _ in range(width)]
    if set(map(str.count, lines, repeat("\t"))) != {width - 1}:
        lineno = next(i for i, line in enumerate(lines, start=1) if line.count("\t") != width - 1)
        raise DataError(f"{path.name} line {lineno}: expected {width} tab-separated fields")
    fields = "\t".join(lines).split("\t")
    return [fields[k::width] for k in range(width)]


def _read_ints(path: Path, fields: list[str], minimum: int) -> np.ndarray:
    try:
        values = np.fromiter(map(int, fields), np.int64, len(fields))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{path.name}: bad integer field ({exc})") from None
    if len(values) and values.min() < minimum:
        raise DataError(f"{path.name}: counts must be >= {minimum}, found {values.min()}")
    return values


def _token_ids(path: Path, tokens: list[str], index: dict[str, int]) -> np.ndarray:
    try:
        return np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    except KeyError as exc:
        raise DataError(f"{path.name}: token {exc.args[0]!r} is not in {_VOCAB}") from None


def save_model(ens: GeoEnsemble, out_dir: str | Path, seed: Optional[int] = None) -> Path:
    """Persist an ensemble. Refuses to write while another writer holds
    the directory lock; an existing model in the directory is replaced."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / _LOCK
    try:
        lock_fd = open(lock, "x")
    except FileExistsError:
        raise DataError(f"model directory {out} is locked by another writer") from None
    try:
        part = ens.partition
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
        _write_lines(out / _VOCAB, sorted(ens.artifacts.vocab))
        tables = ens.tables
        post_counts = tables.post_counts.tolist()
        _write_lines(
            out / _PRIORS,
            (
                f"{cell.row}\t{cell.col}\t{n}\t{ens.priors[cell]!r}"
                for cell, n in zip(part.cells(), post_counts)
            ),
        )

        cells_dir = out / _CELLS
        if cells_dir.exists():
            shutil.rmtree(cells_dir)
        cells_dir.mkdir()
        for i, cell in enumerate(part.cells()):
            unigrams, bigrams = tables.cell_counts(i)
            stem = cells_dir / _cell_stem(cell)
            _write_lines(Path(f"{stem}.unigrams.tsv"), (f"{tok}\t{n}" for tok, n in unigrams))
            _write_lines(Path(f"{stem}.bigrams.tsv"), (f"{v}\t{w}\t{n}" for v, w, n in bigrams))
            d = tables.discounts[i]
            meta = {
                "row": cell.row,
                "col": cell.col,
                "post_count": post_counts[i],
                "n1": d.n1,
                "n2": d.n2,
                "n3": d.n3,
                "n4": d.n4,
                "d1": d.d1,
                "d2": d.d2,
                "d3": d.d3,
            }
            with open(f"{stem}.meta.json", "w", encoding="utf-8") as f:
                json.dump(meta, f, indent=2, sort_keys=True)
                f.write("\n")
    finally:
        lock_fd.close()
        lock.unlink()
    return out


def load_model(model_dir: str | Path) -> GeoEnsemble:
    """Reconstruct an ensemble from a model directory, validating the
    manifest fields and format version, cell completeness, and every
    count row."""
    root = Path(model_dir)
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise DataError(f"{root} is not a model directory (no {_MANIFEST})")
    manifest = _read_json(manifest_path)

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

    priors_path = root / _PRIORS
    rows, cols, counts = (
        _read_ints(priors_path, column, 0).tolist()
        for column in _read_columns(priors_path, 4)[:3]
    )
    post_count = dict(zip(zip(rows, cols), counts))
    if len(post_count) != len(rows):
        raise DataError("priors table has a duplicate cell row")
    cells = part.cells()
    if set(post_count) != {(cell.row, cell.col) for cell in cells}:
        raise DataError("priors table does not cover every grid cell exactly once")
    post_counts = [post_count[(cell.row, cell.col)] for cell in cells]
    if sum(post_counts) != total_posts:
        raise DataError("per-cell post counts disagree with the manifest training-set size")

    index = {t: i for i, t in enumerate(sorted(artifacts.vocab))}
    per_cell = [
        _load_cell(root / _CELLS, cell, i, len(cells), post_counts[i], index)
        for i, cell in enumerate(cells)
    ]
    *columns, metas = zip(*per_cell)
    word_keys, word_count, pair_keys, pair_count = (np.concatenate(c) for c in columns)
    word_order = np.argsort(word_keys, kind="stable")
    pair_order = np.argsort(pair_keys, kind="stable")
    try:
        tables = compile_tables(
            index,
            post_counts,
            word_keys[word_order],
            word_count[word_order],
            pair_keys[pair_order],
            pair_count[pair_order],
        )
    except ValueError as exc:
        raise DataError(f"inconsistent count tables in {root / _CELLS}: {exc}") from None
    for cell, stored, d in zip(cells, metas, tables.discounts):
        if stored != _discount_fields(d):
            raise DataError(
                f"{_cell_stem(cell)}.meta.json counts-of-counts or discounts disagree "
                "with its bigram table"
            )
    return GeoEnsemble(partition=part, tables=tables, smoothing=smoothing, artifacts=artifacts)


def _load_cell(
    cells_dir: Path, cell: CellId, i: int, n_cells: int, expected_posts: int, index: dict[str, int]
):
    """Word keys and counts, then pair keys and counts, of cell i, keyed
    as ``compile_tables`` expects, and the meta.json n1..n4, d1..d3."""
    stem = _cell_stem(cell)
    unigrams, bigrams, meta = paths = [
        cells_dir / f"{stem}{suffix}" for suffix in (".unigrams.tsv", ".bigrams.tsv", ".meta.json")
    ]
    for path in paths:
        if not path.is_file():
            raise DataError(f"missing {path.name} in model directory")

    tokens, counts = _read_columns(unigrams, 2)
    word_keys = _token_ids(unigrams, tokens, index) * n_cells + i
    word_count = _read_ints(unigrams, counts, 1)

    vs, ws, counts = _read_columns(bigrams, 3)
    pairs = _token_ids(bigrams, vs, index) * (len(index) + 1) + _token_ids(bigrams, ws, index)
    pair_count = _read_ints(bigrams, counts, 1)

    meta_obj = _read_json(meta)
    if meta_obj.get("post_count") != expected_posts:
        raise DataError(f"{meta.name} post_count disagrees with the priors table")
    stored = tuple(map(meta_obj.get, _META_DISCOUNT_FIELDS))
    return word_keys, word_count, pairs * n_cells + i, pair_count, stored
