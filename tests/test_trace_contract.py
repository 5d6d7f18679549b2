"""The traced benchmark's contract: every function it wraps still exists
and is reached by train -> estimate -> grid_search.

``perfbench/spans.py`` wraps geopost functions by module and name, and a
traced run fails with ``MissingTarget`` when one is gone or never called.
This runs the same check on a tiny corpus, in well under a second.
"""

import importlib.util
from pathlib import Path

from geopost import cli, estimator, evaluation, grid, pipeline, storage, tuning

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
BOUNDS = grid.GeoBounds(40.70, -74.02, 40.77, -73.93)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pipeline_run(tmp_path):
    """Train, save, load, estimate (a batch pass, then a per-post pass),
    evaluate and tune, calling every stage through its module attribute
    so that installed wrappers see it."""
    corpus = tmp_path / "corpus.jsonl"
    assert cli.main(["synth", "--bounds", "40.70,-74.02,40.77,-73.93", "--grid", "2",
                     "--posts-per-cell", "15", "--seed", "3", "--out", str(corpus)]) == 0
    posts, _ = cli.read_corpus(corpus)
    tr, ho, te = evaluation.split(posts, evaluation.SplitSpec(seed=1))
    tok, arts = pipeline.build_training_corpus(tr, 0)
    ens = estimator.build_ensemble(tok, grid.partition(BOUNDS, 2), estimator.SmoothingConfig(), arts)
    storage.save_model(ens, tmp_path / "model")
    ens = storage.load_model(tmp_path / "model")
    queries = [ens.artifacts.preprocess(p) for p in te]
    estimates = estimator.estimate_batch(ens, queries)
    estimator.estimates_csv(queries, estimates)
    # The benchmark's latency pass: one ``estimate`` per post, which is
    # where ``estimate`` and the one-post scorer are reached.
    assert [estimator.estimate(ens, q) for q in queries] == estimates
    evaluation.error_report(
        [(p.id, evaluation.estimation_error_km(p.location, e)) for p, e in zip(queries, estimates)]
    )
    tuning.grid_search(tr, ho, tuning.SearchSpace(g_values=(2,), alpha_values=(0.5,)), BOUNDS, 0)


def test_every_wrapped_function_is_recorded(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        _pipeline_run(tmp_path)
    recorded = {name for _, name, _, _, _, _ in tracer.spans}
    wanted = {name for _, _, name, _ in spans.WRAPS}
    assert wanted - recorded == set()
