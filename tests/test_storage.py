"""Model directory round trips, validation, and the atomic replace."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from geopost import (
    DataError,
    GeoBounds,
    GeoPoint,
    RawPost,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    ValidationError,
    build_ensemble,
    build_training_corpus,
    estimate_batch,
    estimates_csv,
    generate_synthetic,
    load_model,
    partition,
    save_model,
    split,
)
from geopost import storage

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)
MODEL_FILES = sorted(["manifest.json", "stopwords.txt", "vocab.txt",
                      "cells.tsv", "unigrams.tsv", "bigrams.tsv"])
HAPAX = "rareword"


@pytest.fixture()
def trained():
    spec = SyntheticSpec(g=2, vocab_per_cell=8, posts_per_cell=25, leakage=0.2, seed=31)
    raw = generate_synthetic(spec, BOUNDS)
    tr, ho, te = split(raw, SplitSpec(seed=1))
    # One token seen once, so it folds and the model has a <misc> entry.
    tr.append(RawPost("h", f"c0x0w1 {HAPAX} c0x0w2", GeoPoint(40.71, -74.01)))
    tok, arts = build_training_corpus(tr, stopword_count=3)
    assert HAPAX not in arts.vocab and "<misc>" in arts.vocab
    ens = build_ensemble(
        tok, partition(BOUNDS, 2), SmoothingConfig(alpha=0.9, diameter=2), arts
    )
    queries = [arts.preprocess(p) for p in te + [RawPost("q", f"{HAPAX} c0x0w2")]]
    return ens, queries


@pytest.fixture()
def model(trained, tmp_path):
    save_model(trained[0], tmp_path / "model", seed=1)
    return tmp_path / "model"


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)))


def _snapshot(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*") if p.is_file()
    }


def _assert_tables_equal(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


class TestRoundTrip:
    def test_structures_survive(self, trained, model):
        ens, _ = trained
        assert sorted(os.listdir(model)) == MODEL_FILES
        loaded = load_model(model)
        assert loaded.partition == ens.partition
        assert loaded.smoothing == ens.smoothing
        assert loaded.total_posts == ens.total_posts
        assert loaded.priors == ens.priors
        assert loaded.artifacts == ens.artifacts
        _assert_tables_equal(loaded.tables, ens.tables)
        for cell in ens.partition.cells():
            a, b = ens.models[cell], loaded.models[cell]
            assert a.counts.unigram == b.counts.unigram
            assert a.counts.bigram == b.counts.bigram
            assert a.counts.distinct_left == b.counts.distinct_left
            assert a.counts.total_tokens == b.counts.total_tokens
            assert a.counts.total_distinct_bigrams == b.counts.total_distinct_bigrams
            assert a.discounts == b.discounts
            assert a.post_count == b.post_count

    def test_estimates_identical_after_reload(self, trained, model):
        ens, queries = trained
        loaded = load_model(model)
        before = estimates_csv(queries, estimate_batch(ens, queries))
        after = estimates_csv(queries, estimate_batch(loaded, queries))
        assert before == after

    def test_tables_in_small_blocks(self, trained, model, monkeypatch):
        # Rows written and lines parsed a few at a time give the same files
        # and tables, and line numbers still count from the top of the file.
        ens, _ = trained
        monkeypatch.setattr(storage, "_BLOCK", 7)
        save_model(ens, model.parent / "blocks")
        blocks = _snapshot(model.parent / "blocks")
        assert {k: v for k, v in blocks.items() if k != "manifest.json"} == {
            k: v for k, v in _snapshot(model).items() if k != "manifest.json"
        }
        _assert_tables_equal(load_model(model.parent / "blocks").tables, ens.tables)
        n_lines = blocks["bigrams.tsv"].count(b"\n")
        _edit_lines(model / "bigrams.tsv", lambda lines: [*lines, "a\tb"])
        with pytest.raises(DataError, match=f"bigrams.tsv line {n_lines + 1}: expected 4"):
            load_model(model)

    def test_save_twice_overwrites(self, trained, model):
        ens, _ = trained
        save_model(ens, model)
        assert load_model(model).priors == ens.priors
        assert os.listdir(model.parent) == ["model"]


class TestValidation:
    def test_version_mismatch_refused(self, model):
        # A directory in the per-cell layout of format 1, or in format 2
        # (which also listed the training hapax in hapax.txt), must be
        # retrained.
        manifest_path = model / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="format version 1"):
            load_model(model)
        (model / "hapax.txt").write_text(f"{HAPAX}\n")
        manifest["format_version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="format version 2 .*reads 3"):
            load_model(model)

    @pytest.mark.parametrize(
        "key, value", [("diameter", 2.5), ("diameter", True), ("diameter", "3"), ("alpha", True)]
    )
    def test_smoothing_field_types_checked(self, model, key, value):
        # A float diameter failed at g >= 8 and ran as d = 2 at g = 3; a
        # bool diameter or alpha ran silently as 1.
        manifest_path = model / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"malformed manifest.json.*{key} must"):
            load_model(model)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="manifest"):
            load_model(tmp_path / "empty")

    def test_missing_cell_file(self, model):
        (model / "cells.tsv").unlink()
        with pytest.raises(DataError, match="missing cells.tsv"):
            load_model(model)

    def test_tampered_counts_detected(self, model):
        def add_posts(lines):
            count, *rest = lines[0].split("\t")
            return ["\t".join([str(int(count) + 5), *rest]), *lines[1:]]

        _edit_lines(model / "cells.tsv", add_posts)
        with pytest.raises(DataError, match="training-set size"):
            load_model(model)

    def test_duplicate_bigram_row(self, model):
        _edit_lines(model / "bigrams.tsv", lambda lines: lines[:1] + lines)
        with pytest.raises(DataError, match="bigram rows repeat"):
            load_model(model)

    def test_out_of_order_unigram_rows(self, model):
        _edit_lines(model / "unigrams.tsv", lambda lines: [lines[1], lines[0], *lines[2:]])
        with pytest.raises(DataError, match="unigram rows repeat or are out of order"):
            load_model(model)

    def test_bigram_token_missing_from_cell_unigrams(self, model):
        v, _, cell, _ = (model / "bigrams.tsv").read_text().splitlines()[0].split("\t")
        _edit_lines(
            model / "unigrams.tsv",
            lambda lines: [line for line in lines if line.split("\t")[:2] != [v, cell]],
        )
        with pytest.raises(DataError, match="missing from its cell"):
            load_model(model)

    def test_unreadable_cell_meta(self, model):
        (model / "cells.tsv").write_bytes(b"20\t\xe9\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_model(model)

    def test_cell_index_outside_grid(self, model):
        def move_last_row(lines):
            token, _, count = lines[-1].split("\t")
            return [*lines[:-1], f"{token}\t4\t{count}"]

        _edit_lines(model / "unigrams.tsv", move_last_row)
        with pytest.raises(DataError, match="'4' is not a cell index below 4"):
            load_model(model)

    def test_cells_table_needs_one_line_per_cell(self, model):
        _edit_lines(model / "cells.tsv", lambda lines: lines[:-1])
        with pytest.raises(DataError, match="3 lines, expected one per cell"):
            load_model(model)

    def test_shifted_discount_detected(self, model):
        def shift_d2(lines):
            fields = lines[0].split("\t")
            fields[6] = repr(float(fields[6]) + 0.125)
            return ["\t".join(fields), *lines[1:]]

        _edit_lines(model / "cells.tsv", shift_d2)
        with pytest.raises(DataError, match="cells.tsv line 1: counts-of-counts or discounts"):
            load_model(model)

    def test_vocab_token_never_counted(self, model):
        # The hapax moved into the vocabulary would be scored as a word the
        # model has never seen instead of being folded into <misc>.
        _edit_lines(model / "vocab.txt", lambda lines: sorted([*lines, HAPAX]))
        with pytest.raises(DataError, match="vocab.txt lists tokens that unigrams.tsv never"):
            load_model(model)

    @pytest.mark.parametrize(
        "source, target",
        [("vocab.txt", "stopwords.txt")],
    )
    def test_token_listed_twice(self, model, source, target):
        # A vocabulary token in stopwords.txt would be dropped from every
        # query.
        token = next(t for t in (model / source).read_text().split() if t != "<misc>")
        _edit_lines(model / target, lambda lines: sorted([*lines, token]))
        with pytest.raises(DataError, match=f"{token!r} is listed in both"):
            load_model(model)

    def test_literal_misc_in_corpus_round_trips(self, tmp_path):
        # A literal <misc> seen once is a hapax, folds to itself, and stays
        # in the vocabulary as the fold target.
        spec = SyntheticSpec(g=2, vocab_per_cell=8, posts_per_cell=25, seed=31)
        tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
        tr.append(RawPost("m", "c0x0w1 <misc> c0x0w2", GeoPoint(40.71, -74.01)))
        tok, arts = build_training_corpus(tr, stopword_count=3)
        assert "<misc>" in arts.vocab
        assert "<misc>" in next(p for p in tok if p.id == "m").tokens
        ens = build_ensemble(tok, partition(BOUNDS, 2), SmoothingConfig(), arts)
        save_model(ens, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.artifacts == arts
        queries = [arts.preprocess(p) for p in te]
        assert estimates_csv(queries, estimate_batch(loaded, queries)) == estimates_csv(
            queries, estimate_batch(ens, queries)
        )


class TestReplace:
    @pytest.mark.parametrize("step", ["write", "rename"])
    def test_failed_save_keeps_previous_model(self, trained, model, monkeypatch, step):
        ens, queries = trained
        before = _snapshot(model)
        if step == "write":
            write_lines = storage._write_lines

            def failing_write(path, lines):
                if Path(path).name.endswith("bigrams.tsv"):
                    raise OSError("disk full")
                write_lines(path, lines)

            monkeypatch.setattr(storage, "_write_lines", failing_write)
        else:
            rename, refused = Path.rename, []

            def failing_rename(self, target):
                # Refuse the new directory's move into place, not the rollback.
                if Path(target).name == "model" and not refused:
                    refused.append(self)
                    raise OSError("rename refused")
                return rename(self, target)

            monkeypatch.setattr(Path, "rename", failing_rename)
        with pytest.raises(OSError):
            save_model(ens, model)
        monkeypatch.undo()
        assert _snapshot(model) == before
        assert os.listdir(model.parent) == ["model"]
        loaded = load_model(model)
        assert estimates_csv(queries, estimate_batch(loaded, queries)) == estimates_csv(
            queries, estimate_batch(ens, queries)
        )

    def test_leftovers_of_a_killed_writer_do_not_block(self, trained, model):
        ens, _ = trained
        (model / ".lock").touch()
        leftover = model.parent / ".model.1-0badc0de.new"
        leftover.mkdir()
        (leftover / "bigrams.tsv").write_text("partial")
        save_model(ens, model)
        assert sorted(os.listdir(model)) == MODEL_FILES
        assert load_model(model).priors == ens.priors

    def test_refuses_directory_without_model(self, trained, tmp_path):
        ens, _ = trained
        target = tmp_path / "notes"
        target.mkdir()
        (target / "todo.txt").write_text("keep me\n")
        with pytest.raises(DataError, match="something other than a model"):
            save_model(ens, target)
        assert _snapshot(target) == {"todo.txt": b"keep me\n"}
        assert os.listdir(tmp_path) == ["notes"]

    def test_refuses_vocabulary_the_tables_do_not_count(self, trained, tmp_path):
        # Such a model could be written but not loaded back.
        ens, _ = trained
        arts = dataclasses.replace(ens.artifacts, vocab=ens.artifacts.vocab | {"extra"})
        with pytest.raises(ValidationError, match="vocabulary"):
            save_model(dataclasses.replace(ens, artifacts=arts), tmp_path / "model")
        assert os.listdir(tmp_path) == []

    def test_empty_directory_is_filled(self, trained, tmp_path):
        ens, _ = trained
        (tmp_path / "model").mkdir()
        save_model(ens, tmp_path / "model")
        assert sorted(os.listdir(tmp_path / "model")) == MODEL_FILES
