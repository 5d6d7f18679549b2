"""Model file round trips, validation, and the atomic replace."""

import dataclasses
import io
import os
import zipfile

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
from helpers import (
    MODEL_FILES,
    at,
    completion_outside_vocabulary,
    decode,
    edit_manifest,
    edit_tables,
    text,
    vocabulary_token_into_stopwords,
    words,
)

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)
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

    def test_numpy_scalar_smoothing_round_trips(self, trained, tmp_path):
        # A numpy alpha or diameter passes validation, so the manifest must
        # get the plain number: json.dumps refuses an np.int64.
        smoothing = SmoothingConfig(alpha=np.float32(0.5), diameter=np.int64(1))
        save_model(trained[0].with_smoothing(smoothing), tmp_path / "model", seed=1)
        loaded = load_model(tmp_path / "model").smoothing
        assert loaded == SmoothingConfig(alpha=0.5, diameter=1)
        assert (type(loaded.alpha), type(loaded.diameter)) == (float, int)

    def test_numpy_grid_size_round_trips(self, tmp_path):
        # partition stores a numpy grid size as the int, which the manifest
        # needs: json.dumps refuses an np.int64.
        spec = SyntheticSpec(g=2, vocab_per_cell=8, posts_per_cell=25, leakage=0.2, seed=31)
        tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
        tok, arts = build_training_corpus(tr, stopword_count=3)
        queries = [arts.preprocess(p) for p in te]
        ens, want = (
            build_ensemble(tok, partition(BOUNDS, g), SmoothingConfig(alpha=0.9), arts)
            for g in (np.int64(2), 2)
        )
        save_model(ens, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.partition == want.partition and type(loaded.partition.g) is int
        _assert_tables_equal(loaded.tables, want.tables)
        assert estimates_csv(queries, estimate_batch(loaded, queries)) == estimates_csv(
            queries, estimate_batch(want, queries)
        )

    def test_estimates_identical_after_reload(self, trained, model):
        ens, queries = trained
        loaded = load_model(model)
        before = estimates_csv(queries, estimate_batch(ens, queries))
        after = estimates_csv(queries, estimate_batch(loaded, queries))
        assert before == after

    def test_tables_survive_at_every_grid_size(self, tmp_path):
        # A planted 2 x 2 corpus on grids up to 13 x 13, where many cells
        # have no posts (and so no word or pair entries).
        spec = SyntheticSpec(g=2, vocab_per_cell=8, posts_per_cell=25, leakage=0.2, seed=31)
        tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
        tok, arts = build_training_corpus(tr, stopword_count=3)
        queries = [arts.preprocess(p) for p in te]
        empty_cells = 0
        for g in range(1, 14):
            ens = build_ensemble(tok, partition(BOUNDS, g), SmoothingConfig(alpha=0.9), arts)
            save_model(ens, tmp_path / f"g{g}")
            loaded = load_model(tmp_path / f"g{g}")
            _assert_tables_equal(loaded.tables, ens.tables)
            assert loaded.artifacts == ens.artifacts
            assert estimates_csv(queries, estimate_batch(loaded, queries)) == estimates_csv(
                queries, estimate_batch(ens, queries)
            )
            empty_cells += int(np.sum(ens.tables.post_counts == 0))
        assert empty_cells > 0

    def test_default_diameter_survives(self, trained, tmp_path):
        # A default (None) diameter was saved as g, so the loaded model's
        # smoothing differed from the saved one's.
        ens, queries = trained
        ens = ens.with_smoothing(SmoothingConfig())
        save_model(ens, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.smoothing == ens.smoothing == SmoothingConfig(alpha=0.9, diameter=None)
        assert estimates_csv(queries, estimate_batch(loaded, queries)) == estimates_csv(
            queries, estimate_batch(ens, queries)
        )

    def test_save_twice_overwrites(self, trained, model):
        ens, _ = trained
        save_model(ens, model)
        assert load_model(model).priors == ens.priors
        assert os.listdir(model.parent) == ["model"]


def _renumber(members, vocab):
    """Give the archive the sorted vocabulary ``vocab``, which holds every
    word of the old one, and renumber the keys to match."""
    old, n_cells = words(members["vocab"]), len(members["post_counts"])
    new_id = np.array([vocab.index(t) for t in old])
    word, cell = np.divmod(members["word_keys"], n_cells)
    members["word_keys"] = new_id[word] * n_cells + cell
    pair, cell = np.divmod(members["pair_keys"], n_cells)
    v, w = np.divmod(pair, len(old) + 1)
    members["pair_keys"] = (new_id[v] * (len(vocab) + 1) + new_id[w]) * n_cells + cell
    members["vocab"] = text(vocab)


class TestValidation:
    def test_version_mismatch_refused(self, model):
        # An archive of any other version is refused by its version, before
        # its member list: format 4's manifest also held the stopword count,
        # and a future format may add or drop members.
        edit_manifest(model, lambda m: m.update(format_version=1))
        with pytest.raises(DataError, match="format version 1"):
            load_model(model)
        edit_tables(model, lambda m: m.update(hapax=text([HAPAX])))
        edit_manifest(model, lambda m: m.update(stopword_count=3))
        for version in (2, 3, 4, 5, 7):
            edit_manifest(model, lambda m: m.update(format_version=version))
            with pytest.raises(DataError, match=f"format version {version} .*reads 6"):
                load_model(model)

    def test_format_5_directory_refused(self, model):
        # Format 5 and older kept manifest.json beside the tables, with no
        # model.npz: such a model must be trained again.
        (model / "model.npz").rename(model / "tables.npz")
        (model / "manifest.json").write_text('{"format_version": 5}\n')
        with pytest.raises(DataError, match="format 5 or earlier; train it again"):
            load_model(model)

    @pytest.mark.parametrize(
        "key, value",
        [("diameter", 2.5), ("diameter", True), ("diameter", "3"), ("diameter", 0), ("alpha", True)],
    )
    def test_smoothing_field_types_checked(self, model, key, value):
        # A float diameter failed at g >= 8 and ran as d = 2 at g = 3; a
        # bool diameter or alpha ran silently as 1.
        edit_manifest(model, lambda m: m.update({key: value}))
        with pytest.raises(DataError, match=f"malformed manifest in .*model.npz.*{key} must"):
            load_model(model)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_training_posts_must_be_an_integer(self, model, value):
        # One training post, so only the type of the total is wrong; True
        # is an int to isinstance and loaded.
        edit_tables(model, at("post_counts", slice(None), lambda _: [1, 0, 0, 0]))
        edit_manifest(model, lambda m: m.update(training_posts=value))
        with pytest.raises(DataError, match="training_posts must be an integer"):
            load_model(model)

    def test_missing_manifest(self, model):
        edit_tables(model, lambda m: m.pop("manifest"))
        with pytest.raises(DataError, match="unreadable manifest: .*no item named 'manifest.npy'"):
            load_model(model)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[1, 2]", "manifest does not hold a JSON object"),
            (b"{not json", "unreadable manifest: Expecting property name"),
            (b'{"format_version": 6, "a": "\xe9"}', "unreadable manifest: .*utf-8"),
        ],
    )
    def test_manifest_not_a_json_object(self, model, content, message):
        edit_tables(model, lambda m: m.update(manifest=np.frombuffer(content, dtype=np.uint8)))
        with pytest.raises(DataError, match=message):
            load_model(model)

    def test_missing_model_file(self, tmp_path, model):
        # An empty directory, and a model directory whose model.npz is gone.
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="not a model directory \\(no model.npz\\)"):
            load_model(tmp_path / "empty")
        (model / "model.npz").unlink()
        with pytest.raises(DataError, match="not a model directory \\(no model.npz\\)"):
            load_model(model)

    def test_tampered_counts_detected(self, model):
        edit_tables(model, at("post_counts", 0, lambda n: n + 5))
        with pytest.raises(DataError, match="training-set size"):
            load_model(model)

    def test_duplicate_bigram_row(self, model):
        def repeat_first(members):
            for name in ("pair_keys", "pair_count"):
                members[name] = np.concatenate((members[name][:1], members[name]))

        edit_tables(model, repeat_first)
        with pytest.raises(DataError, match="bigram rows repeat"):
            load_model(model)

    def test_out_of_order_unigram_rows(self, model):
        edit_tables(model, at("word_keys", [0, 1], lambda keys: keys[::-1]))
        with pytest.raises(DataError, match="unigram rows repeat or are out of order"):
            load_model(model)

    def test_bigram_token_missing_from_cell_unigrams(self, model):
        # Drop the word entry of the first pair's context in its cell.
        def drop_context(members):
            vocab_size, n_cells = len(words(members["vocab"])), len(members["post_counts"])
            pair, cell = divmod(int(members["pair_keys"][0]), n_cells)
            keep = members["word_keys"] != pair // (vocab_size + 1) * n_cells + cell
            for name in ("word_keys", "word_count"):
                members[name] = members[name][keep]

        edit_tables(model, drop_context)
        with pytest.raises(DataError, match="missing from its cell"):
            load_model(model)

    def test_bigram_completion_missing_from_cell_unigrams(self, model):
        # Drop the word entry of a pair's completion in its cell, one that
        # is no pair's context there, so only the completion side misses it.
        def drop_completion(members):
            vocab_size, n_cells = len(words(members["vocab"])), len(members["post_counts"])
            pair, cell = np.divmod(members["pair_keys"], n_cells)
            v, w = np.divmod(pair, vocab_size + 1)
            key = np.setdiff1d(w * n_cells + cell, v * n_cells + cell)[0]
            keep = members["word_keys"] != key
            for name in ("word_keys", "word_count"):
                members[name] = members[name][keep]

        edit_tables(model, drop_completion)
        with pytest.raises(DataError, match="missing from its cell"):
            load_model(model)

    def test_unreadable_cell_meta(self, model):
        # Post counts of another dtype are refused, not converted.
        edit_tables(model, lambda m: m.update(post_counts=m["post_counts"].astype(np.float64)))
        with pytest.raises(DataError, match="member post_counts is not a 1-D int64 array"):
            load_model(model)

    def test_cell_index_outside_grid(self, model):
        # A key holds the cell modulo g * g = 4, so the last word entry
        # moved to cell 4 (one past the grid) reads as a word past the
        # vocabulary, and is refused.
        edit_tables(model, at("word_keys", -1, lambda k: k - k % 4 + 4))
        with pytest.raises(DataError, match="word id outside the vocabulary"):
            load_model(model)

    def test_cells_table_needs_one_line_per_cell(self, model):
        edit_tables(model, lambda m: m.update(post_counts=m["post_counts"][:-1]))
        with pytest.raises(DataError, match=r"cell tables need one row per cell \(4\)"):
            load_model(model)

    def test_shifted_discount_detected(self, model):
        # Column 5 is d2.
        edit_tables(model, at("discounts", (0, 5), lambda d2: d2 + 0.125))
        with pytest.raises(DataError, match="cell 0: counts-of-counts or discounts"):
            load_model(model)

    def test_vocab_token_never_counted(self, model):
        # The hapax moved into the vocabulary would be scored as a word the
        # model has never seen instead of being folded into <misc>.
        edit_tables(model, lambda m: _renumber(m, sorted([*words(m["vocab"]), HAPAX])))
        with pytest.raises(DataError, match="vocabulary lists tokens that word_keys never"):
            load_model(model)

    def test_vocabulary_token_in_stopwords(self, model):
        # A vocabulary token among the stopwords would be dropped from
        # every query.
        edit_tables(model, vocabulary_token_into_stopwords)
        with pytest.raises(DataError, match="is listed in both the stopwords and the vocabulary"):
            load_model(model)

    def test_uppercase_stopword_names_the_stopword_list(self, model):
        edit_tables(model, lambda m: m.update(stopwords=text([*words(m["stopwords"]), "UPPER"])))
        with pytest.raises(DataError) as err:
            load_model(model)
        assert str(err.value) == (
            "bad stopword list in model.npz: stopword not lowercase: 'UPPER'"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda m: m.update(vocab=np.array(words(m["vocab"]), dtype=object)),
                "unreadable model.npz: .*allow_pickle",
                id="pickled-object-array",
            ),
            pytest.param(lambda m: m.pop("discounts"), "holds .*expected", id="missing-member"),
            pytest.param(
                lambda m: m.update(hapax=text([HAPAX])), "holds .*expected", id="extra-member"
            ),
            pytest.param(
                lambda m: m.update(pair_count=m["pair_count"][:-1]),
                "pair_keys and pair_count differ in length",
                id="unequal-lengths",
            ),
            pytest.param(
                lambda m: m.update(word_count=m["word_count"][:, None]),
                "word_count is not a 1-D int64",
                id="2-d-for-1-d",
            ),
            pytest.param(
                lambda m: m.update(word_count=m["word_count"] + 0.5),
                "word_count is not a 1-D int64",
                id="non-integer-counts",
            ),
            pytest.param(
                lambda m: m.update(pair_keys=m["pair_keys"].astype(">i8")),
                "pair_keys is not a 1-D int64",
                id="big-endian-keys",
            ),
            pytest.param(
                lambda m: m.update(discounts=m["discounts"][:, :6]),
                "cell tables need one row per cell",
                id="discount-column-missing",
            ),
            pytest.param(
                at("word_count", 0, lambda _: 0), "word_count must be >= 1", id="zero-count"
            ),
            pytest.param(
                at("pair_count", 0, lambda _: -3),
                "pair_count must be >= 1",
                id="negative-count",
            ),
            pytest.param(
                at("post_counts", 0, lambda _: -1),
                "post_counts must be >= 0",
                id="negative-post-count",
            ),
            pytest.param(
                at("word_keys", 0, lambda _: -1),
                "word id outside the vocabulary",
                id="negative-key",
            ),
            pytest.param(
                completion_outside_vocabulary,
                "word id outside the vocabulary",
                id="pair-word-outside-vocabulary",
            ),
            pytest.param(
                lambda m: m.update(vocab=text(words(m["vocab"])[1::-1] + words(m["vocab"])[2:])),
                "vocabulary is not strictly increasing",
                id="vocab-out-of-order",
            ),
            pytest.param(
                lambda m: m.update(vocab=text(words(m["vocab"])[:1] + words(m["vocab"]))),
                "vocabulary is not strictly increasing",
                id="vocab-repeated",
            ),
            pytest.param(
                lambda m: m.update(vocab=np.append(m["vocab"], np.uint8(0xFF))),
                "member vocab is not UTF-8",
                id="vocab-not-utf8",
            ),
        ],
    )
    def test_malformed_archive_refused(self, model, edit, message):
        edit_tables(model, edit)
        with pytest.raises(DataError, match=message):
            load_model(model)

    def test_compressed_member_refused(self, model):
        with np.load(model / "model.npz", allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        np.savez_compressed(model / "model.npz", **members)
        with pytest.raises(DataError, match="compressed member"):
            load_model(model)

    def test_member_that_is_an_archive_refused(self, model):
        # np.load would open such a member as an archive of its own.
        path = model / "model.npz"
        inner = io.BytesIO()
        np.savez(inner, vocab=np.zeros(3, dtype=np.uint8))
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        members["vocab.npy"] = inner.getvalue()
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        with pytest.raises(DataError, match="member vocab is not a 1-D uint8 array"):
            load_model(model)

    def test_shortened_member_header_fails_its_crc(self, model):
        # np.load of the archive reads exactly the bytes a member's header
        # declares (when that is 4 KiB or more), so a header with one digit
        # lowered would truncate the array before zipfile reached the
        # member's end and checked its CRC-32: here, the last of 1,000
        # stopwords would silently become "stop". Every member is read
        # whole instead.
        edit_tables(model, lambda m: m.update(stopwords=text(f"stop{i:05}" for i in range(1000))))
        load_model(model)
        path = model / "model.npz"
        data = path.read_bytes()
        start = data.index(b"'shape': (", data.index(b"stopwords.npy")) + 10
        assert data[start : start + 6] == b"9999,)"
        path.write_bytes(data[:start + 3] + b"4" + data[start + 4 :])
        with pytest.raises(DataError, match="Bad CRC-32 for file 'stopwords.npy'"):
            load_model(model)

    def test_flipped_and_truncated_archive(self, model):
        path = model / "model.npz"
        data = path.read_bytes()
        middle = data.index(b"pair_keys.npy") + 200
        path.write_bytes(data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1 :])
        with pytest.raises(DataError, match="unreadable model.npz: Bad CRC-32"):
            load_model(model)
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataError, match="unreadable model.npz"):
            load_model(model)

    def test_literal_misc_in_corpus_round_trips(self, tmp_path):
        # A literal <misc> seen once is a hapax, folds to itself, and stays
        # in the vocabulary as the fold target.
        spec = SyntheticSpec(g=2, vocab_per_cell=8, posts_per_cell=25, seed=31)
        tr, _, te = split(generate_synthetic(spec, BOUNDS), SplitSpec(seed=1))
        tr.append(RawPost("m", "c0x0w1 <misc> c0x0w2", GeoPoint(40.71, -74.01)))
        corpus, arts = build_training_corpus(tr, stopword_count=3)
        assert "<misc>" in arts.vocab
        assert "<misc>" in next(p for p in decode(corpus) if p.id == "m").tokens
        ens = build_ensemble(corpus, partition(BOUNDS, 2), SmoothingConfig(), arts)
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
            write_array, written = np.lib.format.write_array, []

            def failing_write(fp, array, *args, **kwargs):
                # The disk fills up partway through the seventh member.
                written.append(array)
                if len(written) == 7:
                    fp.write(b"\x93NUMPY partial")
                    raise OSError("disk full")
                write_array(fp, array, *args, **kwargs)

            monkeypatch.setattr(np.lib.format, "write_array", failing_write)
        else:

            def failing_replace(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_model(ens, model)
        monkeypatch.undo()
        assert _snapshot(model) == before
        assert os.listdir(model.parent) == ["model"]
        loaded = load_model(model)
        assert estimates_csv(queries, estimate_batch(loaded, queries)) == estimates_csv(
            queries, estimate_batch(ens, queries)
        )

    def test_overlapping_saves(self, trained, model, monkeypatch):
        # A second save to the same directory runs after the first has
        # written its archive and before the first's rename: both finish,
        # and the model is the one whose rename ran last.
        ens, _ = trained
        other = dataclasses.replace(ens, smoothing=SmoothingConfig(alpha=0.5, diameter=1))
        replace, calls, inner = os.replace, [], []

        def interleaved(src, dst):
            calls.append(src)
            if len(calls) == 1:
                inner.append(save_model(other, model))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        assert save_model(ens, model) == model
        monkeypatch.undo()
        assert inner == [model] and len(calls) == 2
        assert os.listdir(model) == MODEL_FILES
        assert os.listdir(model.parent) == ["model"]
        assert load_model(model).smoothing == ens.smoothing != other.smoothing

    def test_leftovers_of_a_killed_writer_do_not_block(self, trained, model):
        # A writer killed mid-save leaves its hidden temporary file, which
        # nothing removes and no later save reads.
        ens, _ = trained
        (model / ".lock").touch()
        leftover = model / ".model.npz.1-0badc0de"
        leftover.write_bytes(b"PK\x03\x04partial")
        save_model(ens, model)
        assert sorted(os.listdir(model)) == sorted([".lock", leftover.name, *MODEL_FILES])
        assert leftover.read_bytes() == b"PK\x03\x04partial"
        assert load_model(model).priors == ens.priors

    def test_other_files_in_the_directory_are_left_alone(self, trained, tmp_path):
        # Only model.npz and the save's own temporary file are written,
        # renamed or removed: a note, and the files of a format 5 model,
        # stay as they were.
        ens, _ = trained
        target = tmp_path / "notes"
        target.mkdir()
        kept = {"todo.txt": b"keep me\n", "manifest.json": b"{}\n", "tables.npz": b"PK"}
        for name, data in kept.items():
            (target / name).write_bytes(data)
        save_model(ens, target)
        snapshot = _snapshot(target)
        assert sorted(snapshot) == sorted([*kept, *MODEL_FILES])
        assert {name: snapshot[name] for name in kept} == kept
        assert os.listdir(tmp_path) == ["notes"]
        assert load_model(target).priors == ens.priors

    def test_refuses_a_regular_file(self, trained, tmp_path):
        ens, _ = trained
        target = tmp_path / "notes"
        target.write_bytes(b"keep me\n")
        with pytest.raises(DataError, match="exists and is not a directory"):
            save_model(ens, target)
        assert target.read_bytes() == b"keep me\n"
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
