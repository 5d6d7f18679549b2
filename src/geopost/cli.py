"""Command-line interface: train, estimate, evaluate, tune, synth.

Corpora are JSON-lines files, one object per line with "id" and "text"
fields and optional "lat"/"lon" (present together or absent together).
``read_corpus`` returns them as a ``RawCorpus``: id, text and float
lat/lon columns, NaN for a post without a location, so no per-post
object is made between the file and the training corpus.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from math import nan
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ValidationError
from .estimator import (
    DEFAULT_ALPHA,
    SmoothingConfig,
    build_ensemble,
    estimate_batch,
    estimates_csv,
)
from .evaluation import (
    DEFAULT_BIN_WIDTH_KM,
    SplitSpec,
    SyntheticSpec,
    evaluate,
    generate_synthetic,
    split,
    write_cdf_csv,
    write_density_csv,
    write_errors_csv,
)
from .grid import GeoBounds, check_coordinates, partition
from .lm import BaselineInterpolation
from .pipeline import DEFAULT_STOPWORD_COUNT, RawCorpus, build_training_corpus
from .storage import load_model, save_model
from .tuning import (
    DEFAULT_ALPHA_VALUES,
    DEFAULT_G_VALUES,
    SearchSpace,
    grid_search,
    write_surface_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def parse_bounds(text: str) -> GeoBounds:
    """Parse a 'south,west,north,east' degree quadruple."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(f"--bounds wants south,west,north,east; got {text!r}")
    try:
        south, west, north, east = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--bounds values must be numeric; got {text!r}") from None
    return GeoBounds(south, west, north, east)


def read_corpus(path: str | Path, skip_bad: bool = False) -> tuple[RawCorpus, int]:
    """Read a JSON-lines corpus into a ``RawCorpus``, with the number of
    lines skipped. Malformed lines, invalid UTF-8 included, raise
    DataError with the line number, or are skipped under --skip-bad: a
    warning on stderr for each, then one note with their count."""
    rows = []
    skipped = 0
    try:
        # Undecodable bytes become lone surrogates (U+DC80..U+DCFF), so a
        # bad line is caught by _parse_post instead of ending the read.
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip(_JSON_SPACE):
                    continue
                try:
                    rows.append(_parse_post(line, lineno))
                except DataError as exc:
                    if not skip_bad:
                        raise
                    skipped += 1
                    print(f"warning: skipping {exc}", file=sys.stderr)
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    if skipped:
        print(f"skipped {skipped} malformed lines", file=sys.stderr)
    ids, texts, lats, lons = zip(*rows) if rows else ((), (), (), ())
    return RawCorpus(ids, texts, lats, lons), skipped


_raw_decode = json.JSONDecoder().raw_decode
# The whitespace json.loads allows around a value; str.strip() would also
# take \x0b, \x0c and \x1c-\x1f, which json.loads rejects as "Extra data".
_JSON_SPACE = " \t\n\r"


def _decode_line(line: str, lineno: int):
    """``json.loads(line)``, with its failures as DataError. A line that
    starts with its value and ends in JSON whitespace is decoded once by
    ``raw_decode``; every other line goes through ``json.loads`` itself,
    so each message is the one it gives."""
    try:
        obj, end = _raw_decode(line)
        if not line[end:].strip(_JSON_SPACE):
            return obj
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer past the int digit limit
        raise DataError(f"line {lineno}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise DataError(f"line {lineno}: invalid JSON (nested too deeply)") from None


def _parse_post(line: str, lineno: int) -> tuple[str, str, float, float]:
    """One corpus line as (id, text, lat, lon), lat and lon NaN when the
    post has no location; a malformed line raises DataError."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise DataError(f"line {lineno}: invalid UTF-8 (byte 0x{byte:02x})") from None
    obj = _decode_line(line, lineno)
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: expected a JSON object")
    post_id = obj.get("id")
    text = obj.get("text")
    if not isinstance(post_id, str) or not isinstance(text, str):
        raise DataError(f"line {lineno}: 'id' and 'text' must be strings")
    # A \udXXX escape decodes to a lone surrogate, which no output file
    # can encode; cleanup already drops one from the text.
    if not post_id.isascii():
        try:
            post_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            char = ord(post_id[exc.start])
            raise DataError(f"line {lineno}: 'id' is not valid UTF-8 (U+{char:04X})") from None
    has_lat = "lat" in obj
    has_lon = "lon" in obj
    if has_lat != has_lon:
        raise DataError(f"line {lineno}: 'lat' and 'lon' must appear together")
    if not has_lat:
        return post_id, text, nan, nan
    lat, lon = obj["lat"], obj["lon"]
    # A JSON number decodes to exactly int or float, and true/false to
    # bool, which is refused.
    if type(lat) not in (int, float) or type(lon) not in (int, float):
        raise DataError(f"line {lineno}: 'lat'/'lon' must be numbers")
    try:
        lat, lon = float(lat), float(lon)
    except OverflowError:
        raise DataError(f"line {lineno}: 'lat'/'lon' outside the float range") from None
    # The range check refuses a NaN literal, which the columns would
    # read as a post without a location.
    try:
        check_coordinates(lat, lon)
    except ValidationError as exc:
        raise DataError(f"line {lineno}: {exc}") from exc
    return post_id, text, lat, lon


def _located_split(args) -> tuple[GeoBounds, tuple[RawCorpus, RawCorpus, RawCorpus]]:
    """The ``--bounds`` region and the seeded split of the ``--corpus``
    posts located inside it (edges included), for ``train`` and ``tune``.
    Each kind of post left out gets a note on stderr; a corpus with none
    inside is a DataError."""
    bounds = parse_bounds(args.bounds)
    posts, _ = read_corpus(args.corpus, args.skip_bad)
    inside = np.flatnonzero(bounds.covers(posts.lats, posts.lons))
    n_unlocated = int(np.count_nonzero(np.isnan(posts.lats)))
    n_outside = len(posts) - n_unlocated - len(inside)
    if n_unlocated:
        print(f"dropped {n_unlocated} posts without coordinates", file=sys.stderr)
    if n_outside:
        print(f"dropped {n_outside} posts outside the region", file=sys.stderr)
    if not len(inside):
        raise DataError("no located posts inside the region; nothing to train on")
    return bounds, split(posts.take(inside), SplitSpec(seed=args.seed))


def _load_with_overrides(args) -> object:
    ens = load_model(args.model)
    alpha = ens.smoothing.alpha if args.alpha is None else args.alpha
    diameter = ens.smoothing.diameter if args.diameter is None else args.diameter
    ens = ens.with_smoothing(SmoothingConfig(alpha=alpha, diameter=diameter))
    if args.baseline_lambda1 is not None:
        ens = ens.with_baseline(BaselineInterpolation(args.baseline_lambda1))
    return ens


def cmd_train(args) -> int:
    bounds, (train_raw, holdout_raw, test_raw) = _located_split(args)
    print(f"split: train={len(train_raw)} holdout={len(holdout_raw)} test={len(test_raw)}")
    if not train_raw:
        raise DataError("training split is empty; corpus too small")

    corpus, artifacts = build_training_corpus(train_raw, args.stopwords_k)
    part = partition(bounds, args.grid)
    smoothing = SmoothingConfig(alpha=args.alpha, diameter=args.diameter)
    ens = build_ensemble(corpus, part, smoothing, artifacts)
    save_model(ens, args.out, seed=args.seed)

    for cell, n in zip(part.cells(), ens.tables.post_counts.tolist()):
        print(f"cell ({cell.row},{cell.col}): {n} posts")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    ens = _load_with_overrides(args)
    posts, _ = read_corpus(args.corpus, args.skip_bad)
    tokenized = [ens.artifacts.preprocess(p) for p in posts]
    estimates = estimate_batch(ens, tokenized)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write(estimates_csv(tokenized, estimates))
    print(f"estimated {len(estimates)} posts -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ens = _load_with_overrides(args)
    posts, _ = read_corpus(args.corpus, args.skip_bad)
    located = [p for p in posts if p.location is not None]
    n_missing = len(posts) - len(located)
    if n_missing:
        print(f"{n_missing} posts lack truth coordinates; evaluating the rest", file=sys.stderr)
    if not located:
        raise DataError("no posts with truth coordinates to evaluate")

    tokenized = [ens.artifacts.preprocess(p) for p in located]
    report = evaluate(ens, tokenized, bin_width_km=args.bin_width)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_errors_csv(report, out / "errors.csv")
    write_cdf_csv(report, out / "cdf.csv")
    write_density_csv(report, out / "density.csv")
    print(f"mean_error_km={report.mean_error_km!r}")
    return EXIT_OK


def cmd_tune(args) -> int:
    bounds, (train_raw, holdout_raw, _) = _located_split(args)
    if not train_raw or not holdout_raw:
        raise DataError("corpus too small to form train and holdout splits")

    space = SearchSpace(
        g_values=_parse_list(args.g_values, int, "integers", DEFAULT_G_VALUES),
        alpha_values=_parse_list(args.alpha_values, float, "numbers", DEFAULT_ALPHA_VALUES),
    )
    result = grid_search(train_raw, holdout_raw, space, bounds, stopword_count=args.stopwords_k)
    write_surface_csv(result, args.out)
    g, alpha, d = result.best
    print(f"best: g={g} alpha={alpha!r} d={d} mean_error_km={result.best_error_km!r}")
    return EXIT_OK


def cmd_synth(args) -> int:
    bounds = parse_bounds(args.bounds)
    spec = SyntheticSpec(args.grid, **{f.name: getattr(args, f.name) for f in _SYNTH_FIELDS})
    posts = generate_synthetic(spec, bounds)
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        for post in posts:
            record = {
                "id": post.id,
                "text": post.text,
                "lat": post.location.lat,
                "lon": post.location.lon,
            }
            f.write(json.dumps(record))
            f.write("\n")
    print(f"wrote {len(posts)} synthetic posts -> {args.out}")
    return EXIT_OK


def _parse_list(text: Optional[str], convert, kind: str, default: tuple) -> tuple:
    """The comma-separated values of ``text``, or ``default`` for None."""
    if text is None:
        return default
    try:
        return tuple(convert(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated {kind}, got {text!r}") from None


# The SyntheticSpec fields after g, in option order; each is a synth
# option of its field's name, type and default.
_SYNTH_FIELDS = fields(SyntheticSpec)[1:]
_SYNTH_HELP = {
    "leakage": "probability a token comes from a random other cell",
    "neighbor_overlap": "probability a token comes from an adjacent cell",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopost",
        description="Estimate geo-coordinates of short posts from their text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    region = "region as south,west,north,east degrees"
    # Options shared by every command that reads a corpus, by the two that
    # split a located corpus (train, tune), and by the two that load a model.
    reading = argparse.ArgumentParser(add_help=False)
    reading.add_argument("--skip-bad", action="store_true", help="skip malformed corpus lines")
    located = argparse.ArgumentParser(add_help=False, parents=[reading])
    located.add_argument("--corpus", required=True, help="JSONL corpus with lat/lon")
    located.add_argument("--bounds", required=True, help=region)
    located.add_argument("--stopwords-k", type=int, default=DEFAULT_STOPWORD_COUNT,
                         help="size of the induced stopword list (default %(default)s)")
    located.add_argument("--seed", type=int, default=SplitSpec.seed, help="split shuffle seed")
    loading = argparse.ArgumentParser(add_help=False, parents=[reading])
    loading.add_argument("--model", required=True, help="model directory")
    loading.add_argument("--alpha", type=float, help="override stored smoothing weight")
    loading.add_argument("--diameter", type=int, help="override stored smoothing diameter")
    loading.add_argument("--baseline-lambda1", type=float,
                         help="score with the plain interpolated baseline using this bigram weight")

    train = sub.add_parser("train", parents=[located], help="train a model from a located corpus")
    train.add_argument("--grid", type=int, default=8, help="grid dimension g (default %(default)s)")
    train.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                       help="smoothing weight (default %(default)s)")
    train.add_argument("--diameter", type=int, help="smoothing diameter (default g)")
    train.add_argument("--out", required=True, help="model directory to write")
    train.set_defaults(func=cmd_train)

    est = sub.add_parser("estimate", parents=[loading], help="estimate coordinates for a corpus")
    est.add_argument("--corpus", required=True, help="JSONL corpus to locate")
    est.add_argument("--out", required=True, help="output CSV path")
    est.set_defaults(func=cmd_estimate)

    ev = sub.add_parser("evaluate", parents=[loading],
                        help="measure estimation error on a located corpus")
    ev.add_argument("--corpus", required=True, help="JSONL corpus with truth lat/lon")
    ev.add_argument("--out", required=True, help="directory for errors.csv, cdf.csv, density.csv")
    ev.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KM,
                    help="error histogram bin width in km (default %(default)s)")
    ev.set_defaults(func=cmd_evaluate)

    tune = sub.add_parser("tune", parents=[located],
                          help="grid-search g, alpha, d on a hold-out split")
    tune.add_argument("--g-values", help="comma-separated grid sizes (default"
                      f" {DEFAULT_G_VALUES[0]}..{DEFAULT_G_VALUES[-1]})")
    tune.add_argument("--alpha-values", help="comma-separated alphas (default"
                      f" {DEFAULT_ALPHA_VALUES[0]}..{DEFAULT_ALPHA_VALUES[-1]})")
    tune.add_argument("--out", required=True, help="output CSV path for the error surface")
    tune.set_defaults(func=cmd_tune)

    synth = sub.add_parser("synth", help="generate a planted-vocabulary synthetic corpus")
    synth.add_argument("--bounds", required=True, help=region)
    synth.add_argument("--grid", type=int, required=True, help="grid dimension g")
    for f in _SYNTH_FIELDS:
        synth.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           default=f.default, help=_SYNTH_HELP.get(f.name))
    synth.add_argument("--out", required=True, help="output JSONL path")
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
