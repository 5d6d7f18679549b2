"""End-to-end CLI behavior: workflows, formats, and exit codes."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopost import cli, evaluation, load_model
from geopost.cli import main
from helpers import (
    MODEL_FILES,
    at,
    completion_outside_vocabulary,
    edit_tables,
    vocabulary_token_into_stopwords,
)

BOUNDS_FLAG = "40.70,-74.02,40.77,-73.93"


def _synth(tmp_path, name="corpus.jsonl", grid=2, posts=30, seed=42, **extra):
    path = tmp_path / name
    argv = [
        "synth",
        "--bounds", BOUNDS_FLAG,
        "--grid", str(grid),
        "--posts-per-cell", str(posts),
        "--seed", str(seed),
        "--out", str(path),
    ]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return path


def _train(tmp_path, corpus, name="model", grid=2, alpha=0.0, extra=()):
    model = tmp_path / name
    argv = [
        "train",
        "--corpus", str(corpus),
        "--bounds", BOUNDS_FLAG,
        "--grid", str(grid),
        "--alpha", str(alpha),
        "--stopwords-k", "0",
        "--seed", "1",
        "--out", str(model),
        *extra,
    ]
    assert main(argv) == 0
    return model


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_missing_corpus_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["train", "--corpus", str(tmp_path / "nope.jsonl"), "--bounds", BOUNDS_FLAG,
             "--out", str(tmp_path / "m")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_bounds_is_usage_error(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        code = main(["train", "--corpus", str(corpus), "--bounds", "1,2,3",
                     "--out", str(tmp_path / "m")])
        assert code == 1

    def test_bad_leakage_is_usage_error(self, tmp_path):
        code = main(["synth", "--bounds", BOUNDS_FLAG, "--grid", "2",
                     "--leakage", "1.5", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1

    def test_unexpected_exception_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_synth", broken)
        code = main(["synth", "--bounds", BOUNDS_FLAG, "--grid", "2",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 3
        assert capsys.readouterr().err == "internal error: boom\n"


class TestSynth:
    def test_line_count(self, tmp_path):
        path = _synth(tmp_path, grid=2, posts=10)
        assert len(path.read_text().splitlines()) == 40

    def test_same_seed_byte_identical(self, tmp_path):
        a = _synth(tmp_path, name="a.jsonl", seed=9)
        b = _synth(tmp_path, name="b.jsonl", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_lines_are_valid_corpus_records(self, tmp_path):
        path = _synth(tmp_path, posts=5)
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert isinstance(obj["id"], str) and isinstance(obj["text"], str)
            assert isinstance(obj["lat"], float) and isinstance(obj["lon"], float)


def _insert_latin1_line(corpus):
    """Make line 2 a record whose text is Latin-1 encoded (invalid UTF-8)."""
    lines = corpus.read_bytes().splitlines()
    lines.insert(1, b'{"id": "x", "text": "caf\xe9", "lat": 40.72, "lon": -73.95}')
    corpus.write_bytes(b"\n".join(lines) + b"\n")


class TestTrain:
    def test_prints_split_sizes_and_cell_counts(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        _train(tmp_path, corpus)
        out = capsys.readouterr().out
        assert "split: train=84 holdout=18 test=18" in out
        assert "cell (0,0):" in out
        assert "cell (1,1):" in out

    def test_model_directory_layout(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        assert sorted(p.name for p in model.iterdir()) == MODEL_FILES
        assert len(load_model(model).tables.post_counts) == 4

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        lines = corpus.read_text().splitlines()
        lines.insert(2, "{not json")
        corpus.write_text("\n".join(lines) + "\n")
        code = main(["train", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_skip_bad_continues(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        lines = corpus.read_text().splitlines()
        lines.insert(2, "{not json")
        corpus.write_text("\n".join(lines) + "\n")
        _train(tmp_path, corpus, extra=("--skip-bad",))
        assert "skipping line 3" in capsys.readouterr().err

    def test_invalid_utf8_line_is_data_error(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        _insert_latin1_line(corpus)
        code = main(["train", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err == "error: line 2: invalid UTF-8 (byte 0xe9)\n"

    def test_skip_bad_skips_invalid_utf8_line(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        clean = _train(tmp_path, corpus, name="clean")
        _insert_latin1_line(corpus)
        capsys.readouterr()
        skipped = _train(tmp_path, corpus, name="skipped", extra=("--skip-bad",))
        err = capsys.readouterr().err
        assert "skipping line 2: invalid UTF-8" in err
        assert "skipped 1 malformed lines" in err
        assert load_model(skipped).artifacts == load_model(clean).artifacts

    def test_unlocated_posts_dropped_with_note(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        with open(corpus, "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "x", "text": "no location"}) + "\n")
        _train(tmp_path, corpus)
        assert "without coordinates" in capsys.readouterr().err


def _drop_manifest_key(model):
    manifest = json.loads((model / "manifest.json").read_text())
    del manifest["grid_size"]
    (model / "manifest.json").write_text(json.dumps(manifest))


def _set_manifest(key, value):
    def corrupt(model):
        manifest = json.loads((model / "manifest.json").read_text())
        manifest[key] = value
        (model / "manifest.json").write_text(json.dumps(manifest))

    return corrupt


def _tables(edit):
    return lambda model: edit_tables(model, edit)


# The model is 2 x 2, so every key holds its cell modulo 4.
CORRUPTIONS = {
    "unequal-member-lengths": _tables(lambda m: m.update(word_count=m["word_count"][:-1])),
    "non-integer-count": _tables(lambda m: m.update(word_count=m["word_count"] + 0.5)),
    "missing-manifest-key": _drop_manifest_key,
    "meta-d2-disagrees": _tables(at("discounts", (0, 5), lambda d2: d2 + 0.125)),
    "negative-count": _tables(at("pair_count", 0, lambda _: -3)),
    "zero-count": _tables(at("word_count", 0, lambda _: 0)),
    "token-not-in-vocab": _tables(completion_outside_vocabulary),
    # The last word entry moved to cell 4, one past the grid.
    "cell-index-outside-grid": _tables(at("word_keys", -1, lambda k: k - k % 4 + 4)),
    "cells-line-count": _tables(lambda m: m.update(post_counts=m["post_counts"][:3])),
    "vocab-token-in-stopwords": _tables(vocabulary_token_into_stopwords),
    "diameter-not-integer": _set_manifest("diameter", 2.5),
    "diameter-bool": _set_manifest("diameter", True),
    "alpha-bool": _set_manifest("alpha", True),
    "grid-size-bool": _set_manifest("grid_size", True),
}


def _damage(model, kind, name, at, byte):
    """Truncate a file of the model, overwrite one byte, repeat one line
    (bytes up to a newline), or delete the file; ``at`` in [0, 1) picks the
    position."""
    path = model / name
    data = path.read_bytes()
    pos = int(at * len(data))
    if kind == "truncate":
        path.write_bytes(data[:pos])
    elif kind == "overwrite":
        path.write_bytes(data[:pos] + bytes([byte]) + data[pos + 1:])
    elif kind == "duplicate":
        lines = data.splitlines(keepends=True)
        if lines:
            i = int(at * len(lines))
            lines.insert(i, lines[i])
        path.write_bytes(b"".join(lines))
    else:
        path.unlink()


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A model, its corpus, and the corpus's estimates CSV under it."""
    root = tmp_path_factory.mktemp("saved")
    corpus = _synth(root)
    model = _train(root, corpus)
    assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                 "--out", str(root / "est.csv")]) == 0
    return model, corpus, (root / "est.csv").read_bytes()


class TestCorruptModel:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_estimate_reports_data_error(self, tmp_path, capsys, corruption):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        CORRUPTIONS[corruption](model)
        capsys.readouterr()
        code = main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / "est.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["truncate", "overwrite", "duplicate", "delete"]),
        name=st.sampled_from(MODEL_FILES),
        at=st.floats(0, 1, exclude_max=True),
        byte=st.integers(0, 255),
    )
    def test_damaged_model_is_estimate_or_data_error(self, saved_model, kind, name, at, byte):
        # A damaged manifest may still hold a valid model (another alpha,
        # say); a damaged archive must give the undamaged model's estimates
        # or a data error, never other estimates.
        model, corpus, undamaged = saved_model
        with tempfile.TemporaryDirectory(dir=model.parent) as work:
            damaged = shutil.copytree(model, Path(work) / "model")
            _damage(damaged, kind, name, at, byte)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["estimate", "--model", str(damaged), "--corpus", str(corpus),
                             "--out", str(Path(work) / "est.csv")])
            estimates = (Path(work) / "est.csv").read_bytes() if code == 0 else None
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
        elif name == "tables.npz":
            assert estimates == undamaged
        assert "Traceback" not in err.getvalue()


class TestEstimate:
    def test_training_post_from_isolated_cell_maps_to_its_center(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        first = json.loads(corpus.read_text().splitlines()[0])
        query = tmp_path / "query.jsonl"
        query.write_text(json.dumps({"id": "q", "text": first["text"]}) + "\n")
        out = tmp_path / "est.csv"
        assert main(["estimate", "--model", str(model), "--corpus", str(query),
                     "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "post_id,est_lat,est_lon,cell_row,cell_col,posterior,smoothed_score"
        fields = row.split(",")
        # Cell (0,0) posts carry that cell's vocabulary only.
        assert fields[0] == "q"
        assert (fields[3], fields[4]) == ("0", "0")

    def test_empty_text_gets_argmax_prior_cell(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        priors = {
            divmod(i, 2): n for i, n in enumerate(load_model(model).tables.post_counts.tolist())
        }
        best = min(sorted(priors), key=lambda k: -priors[k])
        query = tmp_path / "query.jsonl"
        query.write_text(json.dumps({"id": "q", "text": ""}) + "\n")
        out = tmp_path / "est.csv"
        assert main(["estimate", "--model", str(model), "--corpus", str(query),
                     "--out", str(out)]) == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert (int(fields[3]), int(fields[4])) == best

    def test_empty_input_writes_header_only(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        query = tmp_path / "query.jsonl"
        query.write_text("")
        out = tmp_path / "est.csv"
        assert main(["estimate", "--model", str(model), "--corpus", str(query),
                     "--out", str(out)]) == 0
        assert out.read_text() == "post_id,est_lat,est_lon,cell_row,cell_col,posterior,smoothed_score\n"

    def test_version_mismatch_refused(self, tmp_path, capsys):
        # Any other version is refused, format 2 (which also held
        # hapax.txt) and format 4 (whose manifest also held the stopword
        # count) included: such a model must be retrained.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        (model / "hapax.txt").write_text("")
        manifest = json.loads((model / "manifest.json").read_text())
        manifest["stopword_count"] = 0
        for version in (99, 2, 4):
            manifest["format_version"] = version
            (model / "manifest.json").write_text(json.dumps(manifest))
            capsys.readouterr()
            code = main(["estimate", "--model", str(model), "--corpus", str(corpus),
                         "--out", str(tmp_path / "est.csv")])
            err = capsys.readouterr().err
            assert code == 2
            assert err == (
                f"error: unsupported model format version {version} (this build reads 5)\n"
            )

    def test_format_3_directory_refused(self, tmp_path, capsys):
        # The six text files of format 3 have no reader: retrain.
        model = tmp_path / "model"
        model.mkdir()
        manifest = {
            "format_version": 3, "bounds": {"south": 40.70, "west": -74.02, "north": 40.77,
                                            "east": -73.93},
            "grid_size": 1, "alpha": 0.9, "diameter": 1, "stopword_count": 0,
            "training_posts": 1, "seed": 1, "created_utc": "2026-01-01T00:00:00+00:00",
        }
        (model / "manifest.json").write_text(json.dumps(manifest))
        for name, content in [("stopwords.txt", ""), ("vocab.txt", "a\nb\n"),
                              ("cells.tsv", "1\t1\t0\t0\t0\t1.0\t0.75\t0.75\n"),
                              ("unigrams.tsv", "a\t0\t1\nb\t0\t1\n"),
                              ("bigrams.tsv", "a\tb\t0\t1\n")]:
            (model / name).write_text(content)
        query = tmp_path / "query.jsonl"
        query.write_text(json.dumps({"id": "q", "text": "a b"}) + "\n")
        code = main(["estimate", "--model", str(model), "--corpus", str(query),
                     "--out", str(tmp_path / "est.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: unsupported model format version 3 (this build reads 5)\n"

    def test_repeat_runs_byte_identical(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        outs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_baseline_flag_selects_interpolated_scoring(self, tmp_path):
        corpus = _synth(tmp_path, leakage=0.4)
        model = _train(tmp_path, corpus)
        mkn_out = tmp_path / "mkn.csv"
        base_out = tmp_path / "base.csv"
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(mkn_out)]) == 0
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--baseline-lambda1", "0.7", "--out", str(base_out)]) == 0
        mkn_rows = mkn_out.read_text().splitlines()
        base_rows = base_out.read_text().splitlines()
        assert len(mkn_rows) == len(base_rows) == 121
        assert mkn_rows != base_rows

    def test_smoothing_overrides_change_scores(self, tmp_path):
        corpus = _synth(tmp_path, leakage=0.4)
        model = _train(tmp_path, corpus, alpha=0.9)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(a)]) == 0
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--alpha", "0.0", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()


class TestEvaluate:
    def test_report_files_and_summary_line(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        report = tmp_path / "report"
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "mean_error_km=" in out
        for name in ("errors.csv", "cdf.csv", "density.csv"):
            assert (report / name).is_file()
        assert (report / "errors.csv").read_text().splitlines()[0] == "post_id,error_km"

    def test_posts_without_truth_are_skipped_with_note(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        mixed = tmp_path / "mixed.jsonl"
        lines = corpus.read_text().splitlines()[:5]
        lines.append(json.dumps({"id": "untruthed", "text": "hello"}))
        mixed.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--model", str(model), "--corpus", str(mixed),
                     "--out", str(tmp_path / "rep")]) == 0
        assert "lack truth coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["nan", "inf", "0"])
    def test_bad_bin_width_is_usage_error(self, tmp_path, capsys, monkeypatch, width):
        # NaN ended in an internal error (exit 3) and inf wrote the density
        # row "nan,180,1.0"; the width is now checked before any scoring.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        capsys.readouterr()
        monkeypatch.setattr(evaluation, "estimate_all", lambda *args: pytest.fail("scored"))
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / "rep"), "--bin-width", width]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bin width must be a finite number > 0, got {float(width)}\n"
        assert not (tmp_path / "rep").exists()

    def test_no_located_posts_is_data_error(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        bare = tmp_path / "bare.jsonl"
        bare.write_text(json.dumps({"id": "a", "text": "hello"}) + "\n")
        assert main(["evaluate", "--model", str(model), "--corpus", str(bare),
                     "--out", str(tmp_path / "rep")]) == 2


class TestTune:
    def test_singleton_space_single_g(self, tmp_path, capsys):
        corpus = _synth(tmp_path, posts=40)
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--g-values", "2", "--alpha-values", "0.5",
                     "--stopwords-k", "0", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "g,alpha,d,mean_error_km"
        assert len(lines) == 3  # d in {1, 2}
        assert "best: g=2" in capsys.readouterr().out

    def test_planted_grid_selected(self, tmp_path, capsys):
        corpus = _synth(tmp_path, grid=4, posts=150, vocab_per_cell=20, seed=13)
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--g-values", "2,4,8", "--alpha-values", "0.0,0.9",
                     "--stopwords-k", "0", "--seed", "4", "--out", str(out)]) == 0
        assert "best: g=4" in capsys.readouterr().out
