"""Command-line interface: train, estimate, evaluate, tune, synth.

Corpora are JSON-lines files, one object per line with "id" and "text"
fields and optional "lat"/"lon" (present together or absent together).
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .errors import DataError, ValidationError
from .estimator import (
    SmoothingConfig,
    build_ensemble,
    estimate_batch,
    estimates_csv,
)
from .evaluation import (
    SplitSpec,
    SyntheticSpec,
    evaluate,
    generate_synthetic,
    split,
    write_cdf_csv,
    write_density_csv,
    write_errors_csv,
)
from .grid import GeoBounds, GeoPoint, partition
from .lm import BaselineInterpolation
from .pipeline import RawPost, build_training_corpus
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


def read_corpus(path: str | Path, skip_bad: bool = False) -> tuple[list[RawPost], int]:
    """Read a JSON-lines corpus. Malformed lines, invalid UTF-8 included,
    raise DataError with the line number, or are counted and skipped
    under --skip-bad."""
    posts = []
    skipped = 0
    try:
        # Undecodable bytes become lone surrogates (U+DC80..U+DCFF), so a
        # bad line is caught by _parse_post instead of ending the read.
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    posts.append(_parse_post(line, lineno))
                except DataError as exc:
                    if not skip_bad:
                        raise
                    skipped += 1
                    print(f"warning: skipping {exc}", file=sys.stderr)
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    return posts, skipped


def _parse_post(line: str, lineno: int) -> RawPost:
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


def _located_in_bounds(posts, bounds) -> tuple[list[RawPost], int, int]:
    located = [p for p in posts if p.location is not None]
    in_bounds = [p for p in located if bounds.contains(p.location)]
    return in_bounds, len(posts) - len(located), len(located) - len(in_bounds)


def _load_with_overrides(args) -> object:
    ens = load_model(args.model)
    alpha = ens.smoothing.alpha if args.alpha is None else args.alpha
    diameter = ens.smoothing.diameter if args.diameter is None else args.diameter
    ens = ens.with_smoothing(SmoothingConfig(alpha=alpha, diameter=diameter))
    if getattr(args, "baseline_lambda1", None) is not None:
        ens = ens.with_baseline(BaselineInterpolation(args.baseline_lambda1))
    return ens


def cmd_train(args) -> int:
    bounds = parse_bounds(args.bounds)
    posts, skipped = read_corpus(args.corpus, args.skip_bad)
    usable, n_unlocated, n_outside = _located_in_bounds(posts, bounds)
    if n_unlocated:
        print(f"dropped {n_unlocated} posts without coordinates", file=sys.stderr)
    if n_outside:
        print(f"dropped {n_outside} posts outside the region", file=sys.stderr)
    if not usable:
        raise DataError("no located posts inside the region; nothing to train on")

    train_raw, holdout_raw, test_raw = split(usable, SplitSpec(seed=args.seed))
    print(f"split: train={len(train_raw)} holdout={len(holdout_raw)} test={len(test_raw)}")
    if not train_raw:
        raise DataError("training split is empty; corpus too small")

    tokenized, artifacts = build_training_corpus(train_raw, args.stopwords_k)
    part = partition(bounds, args.grid)
    smoothing = SmoothingConfig(alpha=args.alpha, diameter=args.diameter)
    ens = build_ensemble(tokenized, part, smoothing, artifacts)
    save_model(ens, args.out, seed=args.seed)

    for cell, n in zip(part.cells(), ens.tables.post_counts.tolist()):
        print(f"cell ({cell.row},{cell.col}): {n} posts")
    if skipped:
        print(f"skipped {skipped} malformed lines", file=sys.stderr)
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    ens = _load_with_overrides(args)
    posts, skipped = read_corpus(args.corpus, args.skip_bad)
    tokenized = [ens.artifacts.preprocess(p) for p in posts]
    estimates = estimate_batch(ens, tokenized)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write(estimates_csv(tokenized, estimates))
    n_failed = sum(1 for e in estimates if e is None)
    if n_failed:
        print(f"{n_failed} posts could not be estimated", file=sys.stderr)
    if skipped:
        print(f"skipped {skipped} malformed lines", file=sys.stderr)
    print(f"estimated {len(estimates) - n_failed} posts -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ens = _load_with_overrides(args)
    posts, skipped = read_corpus(args.corpus, args.skip_bad)
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
    if skipped:
        print(f"skipped {skipped} malformed lines", file=sys.stderr)
    print(f"mean_error_km={report.mean_error_km!r}")
    return EXIT_OK


def cmd_tune(args) -> int:
    bounds = parse_bounds(args.bounds)
    posts, skipped = read_corpus(args.corpus, args.skip_bad)
    usable, n_unlocated, n_outside = _located_in_bounds(posts, bounds)
    if n_unlocated or n_outside:
        print(
            f"dropped {n_unlocated} unlocated and {n_outside} out-of-region posts",
            file=sys.stderr,
        )
    train_raw, holdout_raw, _ = split(usable, SplitSpec(seed=args.seed))
    if not train_raw or not holdout_raw:
        raise DataError("corpus too small to form train and holdout splits")

    space = SearchSpace(
        g_values=_parse_ints(args.g_values) if args.g_values else DEFAULT_G_VALUES,
        alpha_values=_parse_floats(args.alpha_values) if args.alpha_values else DEFAULT_ALPHA_VALUES,
    )
    result = grid_search(train_raw, holdout_raw, space, bounds, stopword_count=args.stopwords_k)
    write_surface_csv(result, args.out)
    if skipped:
        print(f"skipped {skipped} malformed lines", file=sys.stderr)
    g, alpha, d = result.best
    print(f"best: g={g} alpha={alpha!r} d={d} mean_error_km={result.best_error_km!r}")
    return EXIT_OK


def cmd_synth(args) -> int:
    bounds = parse_bounds(args.bounds)
    spec = SyntheticSpec(
        g=args.grid,
        vocab_per_cell=args.vocab_per_cell,
        shared_vocab=args.shared_vocab,
        posts_per_cell=args.posts_per_cell,
        tokens_per_post=args.tokens_per_post,
        leakage=args.leakage,
        neighbor_overlap=args.neighbor_overlap,
        seed=args.seed,
    )
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


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopost",
        description="Estimate geo-coordinates of short posts from their text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a located corpus")
    train.add_argument("--corpus", required=True, help="JSONL corpus with lat/lon")
    train.add_argument("--bounds", required=True, help="region as south,west,north,east degrees")
    train.add_argument("--grid", type=int, default=8, help="grid dimension g (default 8)")
    train.add_argument("--alpha", type=float, default=0.9, help="smoothing weight (default 0.9)")
    train.add_argument("--diameter", type=int, default=None, help="smoothing diameter (default g)")
    train.add_argument("--stopwords-k", type=int, default=200, dest="stopwords_k",
                       help="size of the induced stopword list (default 200)")
    train.add_argument("--seed", type=int, default=0, help="split shuffle seed")
    train.add_argument("--out", required=True, help="model directory to write")
    train.add_argument("--skip-bad", action="store_true", help="skip malformed corpus lines")
    train.set_defaults(func=cmd_train)

    est = sub.add_parser("estimate", help="estimate coordinates for a corpus")
    est.add_argument("--model", required=True, help="model directory")
    est.add_argument("--corpus", required=True, help="JSONL corpus to locate")
    est.add_argument("--out", required=True, help="output CSV path")
    est.add_argument("--alpha", type=float, default=None, help="override stored smoothing weight")
    est.add_argument("--diameter", type=int, default=None, help="override stored smoothing diameter")
    est.add_argument("--baseline-lambda1", type=float, default=None, dest="baseline_lambda1",
                     help="score with the plain interpolated baseline using this bigram weight")
    est.add_argument("--skip-bad", action="store_true", help="skip malformed corpus lines")
    est.set_defaults(func=cmd_estimate)

    ev = sub.add_parser("evaluate", help="measure estimation error on a located corpus")
    ev.add_argument("--model", required=True, help="model directory")
    ev.add_argument("--corpus", required=True, help="JSONL corpus with truth lat/lon")
    ev.add_argument("--out", required=True, help="directory for errors.csv, cdf.csv, density.csv")
    ev.add_argument("--alpha", type=float, default=None, help="override stored smoothing weight")
    ev.add_argument("--diameter", type=int, default=None, help="override stored smoothing diameter")
    ev.add_argument("--baseline-lambda1", type=float, default=None, dest="baseline_lambda1",
                    help="score with the plain interpolated baseline using this bigram weight")
    ev.add_argument("--bin-width", type=float, default=0.25, dest="bin_width",
                    help="error histogram bin width in km (default 0.25)")
    ev.add_argument("--skip-bad", action="store_true", help="skip malformed corpus lines")
    ev.set_defaults(func=cmd_evaluate)

    tune = sub.add_parser("tune", help="grid-search g, alpha, d on a hold-out split")
    tune.add_argument("--corpus", required=True, help="JSONL corpus with lat/lon")
    tune.add_argument("--bounds", required=True, help="region as south,west,north,east degrees")
    tune.add_argument("--g-values", default=None, dest="g_values",
                      help="comma-separated grid sizes (default 5..15)")
    tune.add_argument("--alpha-values", default=None, dest="alpha_values",
                      help="comma-separated alphas (default 0.1..1.0)")
    tune.add_argument("--stopwords-k", type=int, default=200, dest="stopwords_k",
                      help="size of the induced stopword list (default 200)")
    tune.add_argument("--seed", type=int, default=0, help="split shuffle seed")
    tune.add_argument("--out", required=True, help="output CSV path for the error surface")
    tune.add_argument("--skip-bad", action="store_true", help="skip malformed corpus lines")
    tune.set_defaults(func=cmd_tune)

    synth = sub.add_parser("synth", help="generate a planted-vocabulary synthetic corpus")
    synth.add_argument("--bounds", required=True, help="region as south,west,north,east degrees")
    synth.add_argument("--grid", type=int, required=True, help="grid dimension g")
    synth.add_argument("--vocab-per-cell", type=int, default=20, dest="vocab_per_cell")
    synth.add_argument("--shared-vocab", type=int, default=0, dest="shared_vocab")
    synth.add_argument("--posts-per-cell", type=int, default=100, dest="posts_per_cell")
    synth.add_argument("--tokens-per-post", type=int, default=6, dest="tokens_per_post")
    synth.add_argument("--leakage", type=float, default=0.0,
                       help="probability a token comes from a random other cell")
    synth.add_argument("--neighbor-overlap", type=float, default=0.0, dest="neighbor_overlap",
                       help="probability a token comes from an adjacent cell")
    synth.add_argument("--seed", type=int, default=0)
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
