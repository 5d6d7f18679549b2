"""End-to-end CLI behavior: workflows, formats, and exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopost import (
    DataError,
    GeoPoint,
    RawCorpus,
    RawPost,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
    ValidationError,
    build_training_corpus,
    cli,
    evaluation,
    grid_search,
    load_model,
)
from geopost.cli import main
from helpers import (
    MODEL_FILES,
    at,
    completion_outside_vocabulary,
    edit_manifest,
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

    def test_module_entry_point(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "geopost.cli", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: geopost")

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
        for bounds, message in [
            ("1,2,3", "--bounds wants south,west,north,east; got '1,2,3'"),
            ("1,2,x,4", "--bounds values must be numeric; got '1,2,x,4'"),
        ]:
            code = main(["train", "--corpus", str(corpus), "--bounds", bounds,
                         "--out", str(tmp_path / "m")])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"

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


def _default(function, name):
    return inspect.signature(function).parameters[name].default


class TestDefaults:
    """Each default the CLI offers is the library's, read from the constant
    that owns it, and its help line states it as it always has."""

    def test_parsed_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        located = ["--corpus", "c.jsonl", "--bounds", BOUNDS_FLAG, "--out", "o"]
        train = parser.parse_args(["train", *located])
        tune = parser.parse_args(["tune", *located])
        ev = parser.parse_args(["evaluate", "--model", "m", "--corpus", "c.jsonl", "--out", "o"])
        stopwords = _default(build_training_corpus, "stopword_count")
        assert train.stopwords_k == tune.stopwords_k == stopwords == 200
        assert _default(grid_search, "stopword_count") == stopwords
        assert train.alpha == SmoothingConfig().alpha == 0.9
        assert ev.bin_width == _default(evaluation.evaluate, "bin_width_km") == 0.25
        assert _default(evaluation.error_report, "bin_width_km") == ev.bin_width

    def test_synth_and_seed_defaults_are_the_spec_fields(self):
        parser = cli.build_parser()
        synth = parser.parse_args(["synth", "--bounds", BOUNDS_FLAG, "--grid", "2", "--out", "o"])
        parsed = {f.name: getattr(synth, f.name) for f in dataclasses.fields(SyntheticSpec)[1:]}
        assert parsed == {f.name: f.default for f in dataclasses.fields(SyntheticSpec)[1:]}
        assert parsed == dict(vocab_per_cell=20, shared_vocab=0, posts_per_cell=100,
                              tokens_per_post=6, leakage=0.0, neighbor_overlap=0.0, seed=0)
        assert [type(v) for v in parsed.values()] == [int, int, int, int, float, float, int]
        located = ["--corpus", "c.jsonl", "--bounds", BOUNDS_FLAG, "--out", "o"]
        train, tune = (parser.parse_args([cmd, *located]) for cmd in ("train", "tune"))
        assert train.seed == tune.seed == SplitSpec.seed == SplitSpec().seed == 0

    def test_every_synth_flag_reaches_the_spec(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "generate_synthetic", lambda spec, bounds: specs.append(spec) or [])
        assert main(["synth", "--bounds", BOUNDS_FLAG, "--grid", "3", "--vocab-per-cell", "7",
                     "--shared-vocab", "5", "--posts-per-cell", "11", "--tokens-per-post", "4",
                     "--leakage", "0.3", "--neighbor-overlap", "0.2", "--seed", "5",
                     "--out", str(tmp_path / "s.jsonl")]) == 0
        assert specs == [SyntheticSpec(3, 7, 5, 11, 4, 0.3, 0.2, 5)]

    @pytest.mark.parametrize(
        "command, line",
        [
            ("train", "size of the induced stopword list (default 200)"),
            ("tune", "size of the induced stopword list (default 200)"),
            ("train", "smoothing weight (default 0.9)"),
            ("evaluate", "error histogram bin width in km (default 0.25)"),
            ("tune", "comma-separated grid sizes (default 5..15)"),
            ("tune", "comma-separated alphas (default 0.1..1.0)"),
            ("synth", "probability a token comes from a random other cell"),
            ("synth", "probability a token comes from an adjacent cell"),
        ],
    )
    def test_help_states_the_default(self, command, line, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one option to a line
        assert main([command, "--help"]) == 0
        assert line in capsys.readouterr().out


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

    def test_region_edges_are_inside(self, tmp_path, capsys):
        # One post on each of the four bounds is kept, and one a float
        # step north of the north edge is dropped.
        corpus = _synth(tmp_path)
        south, west, north, east = (float(x) for x in BOUNDS_FLAG.split(","))
        points = [(south, -74.0), (north, -74.0), (40.73, west), (40.73, east),
                  (float(np.nextafter(north, 90.0)), -74.0)]
        with open(corpus, "a", encoding="utf-8") as f:
            for i, (lat, lon) in enumerate(points):
                f.write(json.dumps({"id": f"edge{i}", "text": "c0x0w1", "lat": lat, "lon": lon}))
                f.write("\n")
        capsys.readouterr()
        _train(tmp_path, corpus)
        out, err = capsys.readouterr()
        assert err == "dropped 1 posts outside the region\n"
        # 120 planted posts and the 4 on the edges
        assert "split: train=86 holdout=18 test=20" in out
        counts = [int(line.split(": ")[1].split()[0]) for line in out.splitlines()
                  if line.startswith("cell (")]
        assert sum(counts) == 86

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

    def test_out_onto_a_regular_file_exits_2(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        target = tmp_path / "notes"
        target.write_bytes(b"keep me\n")
        code = main(["train", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {target} exists and is not a directory\n"
        assert target.read_bytes() == b"keep me\n"

    def test_unlocated_posts_dropped_with_note(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        with open(corpus, "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "x", "text": "no location"}) + "\n")
            f.write(json.dumps({"id": "y", "text": "far away", "lat": 0.0, "lon": 0.0}) + "\n")
        capsys.readouterr()
        _train(tmp_path, corpus)
        assert capsys.readouterr().err == (
            "dropped 1 posts without coordinates\ndropped 1 posts outside the region\n"
        )

    @pytest.mark.parametrize(
        "records, message",
        [
            # Nothing usable: one post unlocated, one outside the region.
            (
                [{"id": "x", "text": "a"}, {"id": "y", "text": "b", "lat": 0.0, "lon": 0.0}],
                "no located posts inside the region; nothing to train on",
            ),
            # One usable post: the 70% training split rounds down to none.
            (
                [{"id": "z", "text": "a", "lat": 40.71, "lon": -74.0}],
                "training split is empty; corpus too small",
            ),
        ],
    )
    def test_too_few_usable_posts_is_data_error(self, tmp_path, capsys, records, message):
        corpus = tmp_path / "small.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = main(["train", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (tmp_path / "m").exists()


def _reference_parse_post(line, lineno):
    """The reader as a plain ``json.loads`` per line: the oracle for
    ``cli._parse_post``."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise DataError(f"line {lineno}: invalid UTF-8 (byte 0x{byte:02x})") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: expected a JSON object")
    post_id = obj.get("id")
    text = obj.get("text")
    if not isinstance(post_id, str) or not isinstance(text, str):
        raise DataError(f"line {lineno}: 'id' and 'text' must be strings")
    for char in post_id:
        if 0xD800 <= ord(char) <= 0xDFFF:
            raise DataError(f"line {lineno}: 'id' is not valid UTF-8 (U+{ord(char):04X})")
    has_lat = "lat" in obj
    has_lon = "lon" in obj
    if has_lat != has_lon:
        raise DataError(f"line {lineno}: 'lat' and 'lon' must appear together")
    location = None
    if has_lat:
        lat, lon = obj["lat"], obj["lon"]
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (lat, lon)):
            raise DataError(f"line {lineno}: 'lat'/'lon' must be numbers")
        try:
            location = GeoPoint(float(lat), float(lon))
        except ValidationError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    return RawPost(id=post_id, text=text, location=location)


def _read_post(line, lineno):
    """``cli._parse_post``'s (id, text, lat, lon) row, read back as the
    ``RawPost`` of a one-post ``RawCorpus``."""
    return RawCorpus(*zip(cli._parse_post(line, lineno)))[0]


def _outcome(parse, line):
    """A parser's RawPost, or its DataError message."""
    try:
        return parse(line, 7)
    except DataError as exc:
        return str(exc)


def _assert_reads_as_reference(line):
    assert _outcome(_read_post, line) == _outcome(_reference_parse_post, line), line


RECORD = '{"id": "a", "text": "caf\u00e9 day", "lat": 40.72, "lon": -73.95}'


# Lines on which a plain json.loads reader ends in an internal error.
CRASHING_LINES = [
    pytest.param('{"id": "x", "text": "t", "lat": 1%s, "lon": 0}' % ("0" * 400),
                 "'lat'/'lon' outside the float range", id="lat-overflows-float"),
    pytest.param('{"id": "x", "text": "t", "n": %s}' % ("9" * 5000),
                 "invalid JSON (Exceeds the limit", id="int-digit-limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python has no int digit limit")),
    pytest.param("[" * 100_000, "invalid JSON (nested too deeply)", id="deep-nesting"),
]


class TestReader:
    @pytest.mark.parametrize(
        "line",
        [
            RECORD + "\n",
            RECORD,
            RECORD + "\x0b\n",
            RECORD + "\x0c\n",
            RECORD + "\x1c\n",
            RECORD + "\x1f",
            RECORD + " \t \r\n",
            "   " + RECORD + "\n",
            "\t\r" + RECORD,
            RECORD + "\r\n",
            "\ufeff" + RECORD + "\n",
            '{"id": "a", "text": "t", "lat": NaN, "lon": 1.0}\n',
            '{"id": "a", "text": "t", "lat": 1.0, "lon": Infinity}\n',
            '{"id": "a", "text": "t", "lat": -Infinity, "lon": 1.0}\n',
            '{"id": "a", "text": "t", "lat": 40, "lon": -74}\n',
            '{"id": "a", "text": "t", "lat": 1e2, "lon": 0}\n',
            '{"id": "a", "text": "t", "lat": true, "lon": 1.0}\n',
            '{"id": "a", "text": "t", "lat": 1.0, "lon": false}\n',
            '{"id": "a", "text": "t", "lat": "1.0", "lon": 1.0}\n',
            '{"id": "a", "text": "t", "lat": null, "lon": 1.0}\n',
            '{"id": "a", "id": "b", "text": "t", "text": "u", "lat": 1, "lat": 2, "lon": 3}\n',
            '{"id": "a", "text": "t", "meta": {"x": [1, {"y": null}], "z": [[[]]]}}\n',
            '{"id": "a", "text": ["t"]}\n',
            '{"id": "a", "text": "\\ud800 \\udfff"}\n',
            '{"id": "\\udc80", "text": "t"}\n',
            '{"id": "q\\ud83d\\ude00", "text": "t"}\n',
            '{"id": "q\\udfff\\ud800", "text": "t"}\n',
            '{"id": "a", "text": "t", "lat": 1.0}\n',
            '{"id": "a", "text": "t", "lon": 1.0}\n',
            '[{"id": "a", "text": "t"}]\n',
            '"a string"\n',
            "5\n",
            "{}\n",
            RECORD + " " + RECORD + "\n",
            RECORD + "x\n",
            RECORD[:-1] + "\n",
            "{not json\n",
            '{"id": "a", "text": "t", "lat": 95.0, "lon": 1.0}\n',
            '{"id": "a", "text": "caf\udce9"}\n',
        ],
    )
    def test_reads_as_json_loads(self, line):
        _assert_reads_as_reference(line)

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from([RECORD, '{"id": "b", "text": "x y", "lat": 1, "lon": -2.5e1}',
                              '{"id": "c", "text": ""}']),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "replace"]),
                st.floats(0, 1, exclude_max=True),
                st.sampled_from(list(' \t\r\n\x0b\x0c\x1c\x1f\ufeff\udce9"\\{}[],:0123456789eE.-+tnfNI')),
            ),
            min_size=1,
            max_size=4,
        ),
        newline=st.sampled_from(["", "\n", "\r\n"]),
    )
    def test_mutated_lines_read_as_json_loads(self, base, edits, newline):
        line = base
        for kind, at, char in edits:
            i = int(at * (len(line) + (kind == "insert")))
            if kind == "insert":
                line = line[:i] + char + line[i:]
            elif kind == "delete":
                line = line[:i] + line[i + 1:]
            else:
                line = line[:i] + char + line[i + 1:]
        _assert_reads_as_reference(line + newline)

    @pytest.mark.parametrize("space", ["\x0c", "\x1c", "\x1f", "\x0b", "\xa0", " \x0c\t"])
    def test_line_of_other_whitespace_is_malformed(self, tmp_path, space):
        # json.loads refuses a line of whitespace other than JSON's, so
        # the reader does not drop it as blank.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(f"{RECORD}\n{space}\n{RECORD}\n", encoding="utf-8")
        with pytest.raises(DataError, match="^line 2: invalid JSON \\(Expecting value\\)$"):
            cli.read_corpus(corpus)
        posts, skipped = cli.read_corpus(corpus, skip_bad=True)
        assert (len(posts), skipped) == (2, 1)

    def test_line_of_json_whitespace_is_blank(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(f"{RECORD}\n \t \r\n\n\t\r\n{RECORD}\n", encoding="utf-8")
        posts, skipped = cli.read_corpus(corpus)
        assert (len(posts), skipped) == (2, 0)
        assert cli.read_corpus(corpus, skip_bad=True) == (posts, 0)

    @pytest.mark.parametrize("bad, message", CRASHING_LINES)
    def test_crashing_lines_exit_2_or_are_skipped(self, tmp_path, capsys, bad, message):
        _assert_bad_line_exits_2_or_is_skipped(tmp_path, capsys, bad, message)

    @pytest.mark.parametrize("lon", ["200", "-180.5"])
    def test_longitude_out_of_range_exits_2_or_is_skipped(self, tmp_path, capsys, lon):
        bad = '{"id": "x", "text": "t", "lat": 40.72, "lon": %s}' % lon
        message = f"longitude out of range [-180, 180]: {float(lon)}\n"
        _assert_bad_line_exits_2_or_is_skipped(tmp_path, capsys, bad, message)

    def test_longitude_180_is_read(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "e", "text": "t", "lat": 0, "lon": 180}\n'
                          '{"id": "w", "text": "t", "lat": 0, "lon": -180}\n')
        posts, skipped = cli.read_corpus(corpus)
        assert [p.location.lon for p in posts] == [180.0, -180.0] and skipped == 0

    def test_result_is_a_raw_corpus_of_the_reference_posts(self, tmp_path):
        corpus = _synth(tmp_path, posts=5)
        with open(corpus, "a", encoding="utf-8") as f:
            f.write('{"id": "u", "text": "no place"}\n')
            f.write('{"id": "i", "text": "t", "lat": 40, "lon": -74}\n')
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        want = [_reference_parse_post(line, n) for n, line in enumerate(lines, start=1)]
        posts, skipped = cli.read_corpus(corpus)
        assert isinstance(posts, RawCorpus) and skipped == 0
        assert len(posts) == len(want) == 22
        assert list(posts) == want
        assert [posts[i] for i in range(-len(posts), len(posts))] == want + want
        assert isinstance(posts[3:9:2], RawCorpus) and list(posts[3:9:2]) == want[3:9:2]
        gathered = [want[0]]
        gathered += posts
        assert gathered == want[:1] + want
        assert cli.read_corpus(corpus, skip_bad=True) == (posts, 0)

    def test_training_path_makes_no_post_or_point(self, tmp_path, monkeypatch, capsys):
        # train's read, located-in-region mask, split, training corpus and
        # model run on columns; only an item taken from a RawCorpus is
        # made on access.
        path = _synth(tmp_path)
        made = []
        for cls in (RawPost, GeoPoint):
            monkeypatch.setattr(cls, "__init__", _counting_init(cls.__init__, cls.__name__, made))
        _train(tmp_path, path)
        assert made == []
        assert "split: train=84 holdout=18 test=18" in capsys.readouterr().out
        cli.read_corpus(path)[0][0]
        assert made == ["GeoPoint", "RawPost"]

    @pytest.mark.parametrize("command", ["train", "estimate", "evaluate", "tune"])
    def test_skipped_lines_noted_once_after_the_warning(self, tmp_path, capsys, command):
        # The corpus also holds an unlocated and an out-of-region post, so
        # train and tune print drop notes and evaluate its truth note; the
        # count comes first, as the reader prints it.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        lines = corpus.read_text().splitlines()
        lines[2:2] = ["{not json", json.dumps({"id": "x", "text": "no location"}),
                      json.dumps({"id": "y", "text": "far away", "lat": 0.0, "lon": 0.0})]
        corpus.write_text("\n".join(lines) + "\n")
        argv = {
            "train": ["--bounds", BOUNDS_FLAG, "--grid", "2"],
            "estimate": ["--model", str(model)],
            "evaluate": ["--model", str(model)],
            "tune": ["--bounds", BOUNDS_FLAG, "--g-values", "2", "--alpha-values", "0.5"],
        }[command]
        capsys.readouterr()
        assert main([command, "--corpus", str(corpus), "--skip-bad", *argv,
                     "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == [
            "warning: skipping line 3: invalid JSON"
            " (Expecting property name enclosed in double quotes)",
            "skipped 1 malformed lines",
        ]
        assert err.count("skipped 1 malformed lines") == 1


def _counting_init(init, name, made):
    """``init``, appending ``name`` to ``made`` on every call."""
    def counting(self, *args, **kwargs):
        made.append(name)
        init(self, *args, **kwargs)
    return counting


def _assert_bad_line_exits_2_or_is_skipped(tmp_path, capsys, bad, message):
    """A corpus with ``bad`` as its line 4 ends ``train`` with exit 2 and
    ``message``; with --skip-bad it trains the model the clean corpus gives."""
    corpus = _synth(tmp_path)
    clean = _train(tmp_path, corpus, name="clean")
    lines = corpus.read_text().splitlines()
    lines.insert(3, bad)
    corpus.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["train", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                 "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: line 4: {message}") and "Traceback" not in err
    skipped = _train(tmp_path, corpus, name="skipped", extra=("--skip-bad",))
    err = capsys.readouterr().err
    assert f"warning: skipping line 4: {message}" in err
    assert "skipped 1 malformed lines" in err
    assert _tables_and_manifest(skipped) == _tables_and_manifest(clean)


def _tables_and_manifest(model):
    """A saved model's members, the manifest without its creation time."""
    with np.load(model / "model.npz", allow_pickle=False) as archive:
        members = {name: archive[name].tobytes() for name in archive.files}
    manifest = json.loads(members.pop("manifest"))
    del manifest["created_utc"]
    return members, manifest


def _drop_manifest_key(model):
    edit_manifest(model, lambda m: m.pop("grid_size"))


def _set_manifest(key, value):
    return lambda model: edit_manifest(model, lambda m: m.update({key: value}))


def _tables(edit):
    return lambda model: edit_tables(model, edit)


def _no_training_posts(total):
    """All-zero post counts, with ``total`` as the manifest's training-set
    size: compile_tables refuses them whether or not the sizes agree."""

    def corrupt(model):
        edit_tables(model, lambda m: m.update(post_counts=m["post_counts"] * 0))
        _set_manifest("training_posts", total)(model)

    return corrupt


def _set_bound(edge, value):
    return lambda model: edit_manifest(model, lambda m: m["bounds"].update({edge: value}))


def _one_training_post(total):
    """One training post, in cell 0, with ``total`` as the manifest's
    training-set size."""

    def corrupt(model):
        edit_tables(model, at("post_counts", slice(None), lambda _: [1, 0, 0, 0]))
        _set_manifest("training_posts", total)(model)

    return corrupt


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
    "zero-post-counts": _no_training_posts(1),
    "zero-post-counts-and-total": _no_training_posts(0),
    "grid-size-bool": _set_manifest("grid_size", True),
    # True passes every range check as 1.0: east = true loaded a model
    # whose cells end at longitude 1.
    "bounds-bool": _set_bound("east", True),
    # True is an int to isinstance, and loaded a one-post model.
    "training-posts-bool": _one_training_post(True),
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
        # Every member, the manifest included, is under a CRC-32, so a
        # damaged model must give the undamaged model's estimates or a data
        # error, never other estimates.
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
        else:
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
        # Any other version is refused, format 4 (whose manifest also held
        # the stopword count) and format 5 included: such a model must be
        # retrained.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        edit_manifest(model, lambda m: m.update(stopword_count=0))
        for version in (99, 2, 4, 5):
            edit_manifest(model, lambda m: m.update(format_version=version))
            capsys.readouterr()
            code = main(["estimate", "--model", str(model), "--corpus", str(corpus),
                         "--out", str(tmp_path / "est.csv")])
            err = capsys.readouterr().err
            assert code == 2
            assert err == (
                f"error: unsupported model format version {version} (this build reads 6)\n"
            )

    def test_format_3_directory_refused(self, tmp_path, capsys):
        # The six text files of format 3 have no reader: retrain. Formats
        # 1 to 5 all kept a manifest.json, and none has a model.npz.
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
        assert err == f"error: {model} holds a model of format 5 or earlier; train it again\n"

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

    def test_console_output(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        out = tmp_path / "est.csv"
        capsys.readouterr()
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"estimated 120 posts -> {out}\n", "")

    def test_console_output_under_skip_bad(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        lines = corpus.read_text().splitlines()
        lines.insert(2, "{not json")
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "est.csv"
        capsys.readouterr()
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(out), "--skip-bad"]) == 0
        assert capsys.readouterr() == (
            f"estimated 120 posts -> {out}\n",
            "warning: skipping line 3: invalid JSON"
            " (Expecting property name enclosed in double quotes)\n"
            "skipped 1 malformed lines\n",
        )

    def test_unpaired_surrogate_in_id_is_data_error(self, tmp_path, capsys):
        # The id could not be written to the CSV: an internal error (exit
        # 3) that left an empty file, with or without --skip-bad.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        query = _with_surrogate_id(tmp_path, corpus, located=False)
        out = tmp_path / "est.csv"
        capsys.readouterr()
        assert main(["estimate", "--model", str(model), "--corpus", str(query),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {SURROGATE_ID_ERROR}\n"
        assert not out.exists()
        assert main(["estimate", "--model", str(model), "--corpus", str(query),
                     "--out", str(out), "--skip-bad"]) == 0
        assert capsys.readouterr() == (
            f"estimated 2 posts -> {out}\n",
            f"warning: skipping {SURROGATE_ID_ERROR}\nskipped 1 malformed lines\n",
        )
        ids = [row.split(",")[0] for row in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert ids == ["synth-r0c0-0", "synth-r0c0-2"]


    @pytest.mark.parametrize("command, report", [("estimate", None), ("evaluate", "errors.csv")])
    def test_carriage_return_in_id_reads_back(self, tmp_path, command, report):
        # A bare \r was written unquoted, and csv.reader split its row in two.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        posts = [json.loads(line) for line in corpus.read_text().splitlines()[:3]]
        ids = ["a\rb", "c\r\nd", "e\n"]
        query = tmp_path / "query.jsonl"
        query.write_text("".join(json.dumps({**post, "id": post_id}) + "\n"
                                 for post, post_id in zip(posts, ids)))
        out = tmp_path / "out"
        assert main([command, "--model", str(model), "--corpus", str(query),
                     "--out", str(out)]) == 0
        with open(out / report if report else out, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows[1:]] == ids
        assert {len(row) for row in rows} == {len(rows[0])}


SURROGATE_ID_ERROR = "line 2: 'id' is not valid UTF-8 (U+DC80)"


def _with_surrogate_id(tmp_path, corpus, located):
    """A copy of the corpus's first three posts whose second post has the
    id "q\\udc80", written as a JSON escape; without truth coordinates
    unless ``located``."""
    posts = [json.loads(line) for line in corpus.read_text().splitlines()[:3]]
    posts[1]["id"] = "q\udc80"
    if not located:
        for post in posts:
            del post["lat"], post["lon"]
    path = tmp_path / "query.jsonl"
    path.write_text("".join(json.dumps(post) + "\n" for post in posts), encoding="ascii")
    return path


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
        monkeypatch.setattr(evaluation, "estimate_batch", lambda *args: pytest.fail("scored"))
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / "rep"), "--bin-width", width]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bin width must be a finite number > 0, got {float(width)}\n"
        assert not (tmp_path / "rep").exists()

    def test_bin_width_past_the_bin_limit_is_usage_error(self, tmp_path, capsys):
        # The histogram list was sized with no limit: an internal error
        # (exit 3, OverflowError) at 1e-300.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / "rep"), "--bin-width", "1e-300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bin width 1e-300 km would need more than 1000000")
        assert not (tmp_path / "rep").exists()

    def test_no_located_posts_is_data_error(self, tmp_path):
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        bare = tmp_path / "bare.jsonl"
        bare.write_text(json.dumps({"id": "a", "text": "hello"}) + "\n")
        assert main(["evaluate", "--model", str(model), "--corpus", str(bare),
                     "--out", str(tmp_path / "rep")]) == 2

    def test_unpaired_surrogate_in_id_is_data_error(self, tmp_path, capsys):
        # errors.csv could not be written: an internal error (exit 3) that
        # left a header-only file.
        corpus = _synth(tmp_path)
        model = _train(tmp_path, corpus)
        query = _with_surrogate_id(tmp_path, corpus, located=True)
        report = tmp_path / "rep"
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--corpus", str(query),
                     "--out", str(report)]) == 2
        assert capsys.readouterr().err == f"error: {SURROGATE_ID_ERROR}\n"
        assert not report.exists()
        assert main(["evaluate", "--model", str(model), "--corpus", str(query),
                     "--out", str(report), "--skip-bad"]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: skipping {SURROGATE_ID_ERROR}\nskipped 1 malformed lines\n"
        rows = (report / "errors.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["synth-r0c0-0", "synth-r0c0-2"]


class TestPinnedOutputs:
    """The estimates CSV and the evaluate reports of a small planted model,
    under Kneser-Ney and under the interpolation baseline, the tune surface
    and a default-flag synth corpus, pinned by SHA-256: a change that
    alters one byte of an output fails here."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pinned")
        corpus = _synth(tmp_path, grid=3, leakage=0.3, shared_vocab=15, neighbor_overlap=0.2)
        return corpus, _train(tmp_path, corpus, grid=3, alpha=0.9), tmp_path

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ((), "ddeadee3aa88604a68cc92f1176697a70a1be3a086587f677807cf591a240e45"),
            (("--baseline-lambda1", "0.7"), "4127fad713a13af511fe3b692334fe2a53d62d7f32d658ea9f5fca861cb0eea7"),
        ],
        ids=["kneser-ney", "baseline-0.7"],
    )
    def test_estimates_csv(self, trained, flags, digest):
        corpus, model, tmp_path = trained
        out = tmp_path / f"estimates{len(flags)}.csv"
        assert main(["estimate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(out), *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ((), "fd73f2f2877fdcafcad367a877f93dc73e5081e68b5dc09479e6ce1829c5a703"),
            (("--baseline-lambda1", "0.7"), "967c0d4f16873f625eb77570bc6b740e6eaca8dcdfed5c109da1aba2c6d62672"),
        ],
        ids=["kneser-ney", "baseline-0.7"],
    )
    def test_evaluate_reports(self, trained, flags, digest):
        corpus, model, tmp_path = trained
        out = tmp_path / f"report{len(flags)}"
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(out), *flags]) == 0
        h = hashlib.sha256()
        for name in ("errors.csv", "cdf.csv", "density.csv"):
            h.update((out / name).read_bytes())
        assert h.hexdigest() == digest

    def test_tune_surface_csv(self, trained):
        corpus, _, tmp_path = trained
        out = tmp_path / "surface.csv"
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--stopwords-k", "0", "--g-values", "2,3", "--out", str(out)]) == 0
        digest = "1ec3e09a1c53c1e41cc0f105a4d7ff1a81f0301e94035536d6418e73fcb0c268"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_default_flag_synth_corpus(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        assert main(["synth", "--bounds", BOUNDS_FLAG, "--grid", "3", "--out", str(out)]) == 0
        digest = "1cdb741ca7c50860629a042e17cc50f48870319a98abd93bc8dd1c19b4e69e77"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    def test_dropped_posts_and_skipped_lines_reported(self, tmp_path, capsys):
        corpus = _synth(tmp_path, posts=40)
        with open(corpus, "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "x", "text": "no location"}) + "\n")
            f.write(json.dumps({"id": "y", "text": "far away", "lat": 0.0, "lon": 0.0}) + "\n")
            f.write("{not json\n")
        capsys.readouterr()
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--g-values", "2", "--alpha-values", "0.5", "--stopwords-k", "0",
                     "--skip-bad", "--out", str(tmp_path / "tuning.csv")]) == 0
        assert capsys.readouterr().err == (
            "warning: skipping line 163: invalid JSON"
            " (Expecting property name enclosed in double quotes)\n"
            "skipped 1 malformed lines\n"
            "dropped 1 posts without coordinates\n"
            "dropped 1 posts outside the region\n"
        )

    def test_no_usable_posts_is_data_error(self, tmp_path, capsys):
        # The refusal train gives, not the too-small-split one.
        corpus = tmp_path / "far.jsonl"
        corpus.write_text(json.dumps({"id": "y", "text": "b", "lat": 0.0, "lon": 0.0}) + "\n")
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "dropped 1 posts outside the region\n"
            "error: no located posts inside the region; nothing to train on\n"
        )
        assert not out.exists()

    def test_corpus_too_small_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "small.jsonl"
        corpus.write_text(json.dumps({"id": "z", "text": "a", "lat": 40.71, "lon": -74.0}) + "\n")
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: corpus too small to form train and holdout splits\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--g-values", "4,x", "expected comma-separated integers, got '4,x'"),
            ("--alpha-values", "0.5,", "expected comma-separated numbers, got '0.5,'"),
            ("--g-values", "", "expected comma-separated integers, got ''"),
            ("--alpha-values", "", "expected comma-separated numbers, got ''"),
        ],
    )
    def test_bad_search_values_are_usage_errors(self, tmp_path, capsys, flag, value, message):
        corpus = _synth(tmp_path, posts=40)
        capsys.readouterr()
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG, flag, value,
                     "--out", str(tmp_path / "tuning.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_planted_grid_selected(self, tmp_path, capsys):
        corpus = _synth(tmp_path, grid=4, posts=150, vocab_per_cell=20, seed=13)
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--corpus", str(corpus), "--bounds", BOUNDS_FLAG,
                     "--g-values", "2,4,8", "--alpha-values", "0.0,0.9",
                     "--stopwords-k", "0", "--seed", "4", "--out", str(out)]) == 0
        assert "best: g=4" in capsys.readouterr().out
