"""Model directory round trips, validation, and the write lock."""

import json

import pytest

from geopost import (
    DataError,
    GeoBounds,
    SmoothingConfig,
    SplitSpec,
    SyntheticSpec,
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

BOUNDS = GeoBounds(40.70, -74.02, 40.77, -73.93)


@pytest.fixture()
def trained():
    spec = SyntheticSpec(g=2, vocab_per_cell=8, posts_per_cell=25, leakage=0.2, seed=31)
    raw = generate_synthetic(spec, BOUNDS)
    tr, ho, te = split(raw, SplitSpec(seed=1))
    tok, arts = build_training_corpus(tr, stopword_count=3)
    ens = build_ensemble(
        tok, partition(BOUNDS, 2), SmoothingConfig(alpha=0.9, diameter=2), arts
    )
    queries = [arts.preprocess(p) for p in te]
    return ens, queries


class TestRoundTrip:
    def test_structures_survive(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model", seed=1)
        loaded = load_model(tmp_path / "model")
        assert loaded.partition == ens.partition
        assert loaded.smoothing == ens.smoothing
        assert loaded.total_posts == ens.total_posts
        assert loaded.priors == ens.priors
        assert loaded.artifacts.hapax == ens.artifacts.hapax
        assert loaded.artifacts.vocab == ens.artifacts.vocab
        assert set(loaded.artifacts.config.stopwords) == set(ens.artifacts.config.stopwords)
        for cell in ens.partition.cells():
            a, b = ens.models[cell], loaded.models[cell]
            assert a.counts.unigram == b.counts.unigram
            assert a.counts.bigram == b.counts.bigram
            assert a.counts.distinct_left == b.counts.distinct_left
            assert a.counts.total_tokens == b.counts.total_tokens
            assert a.counts.total_distinct_bigrams == b.counts.total_distinct_bigrams
            assert a.discounts == b.discounts
            assert a.post_count == b.post_count

    def test_estimates_identical_after_reload(self, trained, tmp_path):
        ens, queries = trained
        save_model(ens, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        before = estimates_csv(queries, estimate_batch(ens, queries))
        after = estimates_csv(queries, estimate_batch(loaded, queries))
        assert before == after

    def test_save_twice_overwrites(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        save_model(ens, tmp_path / "model")
        assert load_model(tmp_path / "model").priors == ens.priors


class TestValidation:
    def test_version_mismatch_refused(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="format version"):
            load_model(tmp_path / "model")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="manifest"):
            load_model(tmp_path / "empty")

    def test_missing_cell_file(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        (tmp_path / "model" / "cells" / "cell_000_000.bigrams.tsv").unlink()
        with pytest.raises(DataError, match="missing"):
            load_model(tmp_path / "model")

    def test_tampered_counts_detected(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        priors_path = tmp_path / "model" / "priors.tsv"
        lines = priors_path.read_text().splitlines()
        r, c, count, prior = lines[0].split("\t")
        lines[0] = "\t".join([r, c, str(int(count) + 5), prior])
        priors_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_model(tmp_path / "model")


    def test_duplicate_bigram_row(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        path = tmp_path / "model" / "cells" / "cell_000_000.bigrams.tsv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[:1]) + "\n")
        with pytest.raises(DataError, match="twice"):
            load_model(tmp_path / "model")

    def test_bigram_token_missing_from_cell_unigrams(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        cells = tmp_path / "model" / "cells"
        context = (cells / "cell_000_000.bigrams.tsv").read_text().split("\t")[0]
        path = cells / "cell_000_000.unigrams.tsv"
        kept = [line for line in path.read_text().splitlines() if line.split("\t")[0] != context]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(DataError, match="missing"):
            load_model(tmp_path / "model")

    def test_unreadable_cell_meta(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        (tmp_path / "model" / "cells" / "cell_000_000.meta.json").write_text("{not json")
        with pytest.raises(DataError, match="unreadable"):
            load_model(tmp_path / "model")


class TestWriteLock:
    def test_existing_lock_blocks_save(self, trained, tmp_path):
        ens, _ = trained
        target = tmp_path / "model"
        target.mkdir()
        (target / ".lock").touch()
        with pytest.raises(DataError, match="locked"):
            save_model(ens, target)

    def test_lock_removed_after_save(self, trained, tmp_path):
        ens, _ = trained
        save_model(ens, tmp_path / "model")
        assert not (tmp_path / "model" / ".lock").exists()
