import numpy as np
import pytest

from conftest import history_of
from paydev import labels as lab
from paydev import ml
from paydev.evaluation import cross_validate, roc_auc, stratified_kfold
from paydev.features import compute_features, feature_matrix
from paydev.identity import merge_identities
from paydev.ingest import Commits
from paydev.ml import forest_seed
from paydev.synth import SynthSpec, generate_synthetic_corpus, spec_with_profiles


def _small_spec(**kw):
    defaults = dict(n_devs=30, commits_low=30, commits_high=60)
    defaults.update(kw)
    return SynthSpec(**defaults)


def _dataset(records, labels, mode="all"):
    identities = merge_identities(Commits.from_records(records))
    feats = compute_features({i.id: history_of([records[r] for r in i.rows])
                              for i in identities})
    X, ids, columns = feature_matrix(feats, mode)
    y = [1 if labels[i] == "hired" else 0 for i in ids]
    return ml.make_dataset(X, y, columns, ids)


def _forest(n_trees):
    """cross_validate's classifiers: one forest seeded per (seed, repeat, fold)."""
    return {"forest": lambda d, parts: ml.fit_forest(d, seed=forest_seed(parts), n_trees=n_trees)}


class TestGenerator:
    def test_deterministic(self):
        a_records, a_labels = generate_synthetic_corpus(_small_spec(), seed=5)
        b_records, b_labels = generate_synthetic_corpus(_small_spec(), seed=5)
        assert a_records == b_records
        assert a_labels == b_labels

    def test_seed_changes_output(self):
        a_records, _ = generate_synthetic_corpus(_small_spec(), seed=5)
        b_records, _ = generate_synthetic_corpus(_small_spec(), seed=6)
        assert a_records != b_records

    def test_shapes_and_classes(self):
        records, labels = generate_synthetic_corpus(_small_spec(), seed=1)
        assert len(labels) == 30
        assert sum(1 for s in labels.values() if s == "hired") == 15
        assert len({r.sha for r in records}) == len(records)
        counts = [30 <= sum(1 for r in records if r.author_name == f"Dev {d:04d}") <= 60
                  for d in range(30)]
        assert all(counts)

    def test_labels_join_identities(self):
        records, labels = generate_synthetic_corpus(_small_spec(), seed=2)
        identities = merge_identities(Commits.from_records(records))
        ids = {i.id for i in identities}
        assert set(labels) == ids

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            spec_with_profiles(SynthSpec(), "weird")


class TestSeparability:
    def test_separable_profiles_near_perfect(self):
        records, labels = generate_synthetic_corpus(_small_spec(n_devs=40), seed=3)
        data = _dataset(records, labels)
        folds = stratified_kfold(len(data.y), data.y, k=4, repeats=1, seed=3)
        report = cross_validate(
            data,
            _forest(30),
            folds,
            seed=3,
        )
        assert report.aggregate()["forest"]["auc_mean"] >= 0.97

    def test_overlapping_profiles_strictly_between(self):
        aucs = []
        for seed in range(10):
            spec = spec_with_profiles(_small_spec(n_devs=24), "overlapping")
            records, labels = generate_synthetic_corpus(spec, seed=seed)
            data = _dataset(records, labels)
            folds = stratified_kfold(len(data.y), data.y, k=3, repeats=1, seed=seed)
            report = cross_validate(
                data,
                _forest(20),
                folds,
                seed=seed,
            )
            aucs.append(report.aggregate()["forest"]["auc_mean"])
        mean_auc = float(np.mean(aucs))
        assert 0.5 < mean_auc < 1.0
        assert any(a < 1.0 for a in aucs)

    def test_weekend_share_discriminates_inversely(self):
        # volunteers commit more on weekends, so the raw share ranks them higher
        spec = spec_with_profiles(_small_spec(n_devs=30), "overlapping")
        records, labels = generate_synthetic_corpus(spec, seed=4)
        data = _dataset(records, labels)
        X = np.asarray(data.X).reshape(len(data.y), len(data.columns))
        y = np.asarray(data.y)
        assert roc_auc(X[:, data.columns.index("weekend")], y) < 0.5
