"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the PASS lines
inline). Every tolerance is pinned here; the oracles live in the
tests/oracle_*.py modules and were written before the implementation.
"""

import json
import sys
import time

import numpy as np
import pytest

from conftest import history_of, loss_and_grad, make_record, sha_of
from oracle_auc import pairwise_auc
from oracle_features import brute_force_features
from oracle_split import exhaustive_best_split
from paydev import ml
from paydev.cli import main as cli_main
from paydev.evaluation import developer_baselines, roc_auc, stratified_kfold
from paydev.features import FEATURE_COLUMNS, developer_features
from paydev.ml import fit_forest, fit_tree, make_dataset, predict_proba
from paydev.synth import ClassProfile, SynthSpec, generate_synthetic_corpus


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip(), file=sys.stderr)


def _elapsed_under(t0, budget, criterion):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    return elapsed


# --------------------------------------------------------------------------
# 1. Base-rate rows of the no-ML baseline table on a 668/332 label set.
# --------------------------------------------------------------------------
def test_criterion_1_baseline_base_rates():
    t0 = time.monotonic()
    # two commits per developer: one weekday office hour, one weekend,
    # so every office share is exactly 0.5 (inside (0.05, 0.95))
    commits_by_id = {}
    truth = np.zeros(1000, dtype=np.int8)
    ids = []
    for i in range(1000):
        ident = f"dev{i:04d}@example.org"
        ids.append(ident)
        truth[i] = 1 if i < 668 else 0
        commits_by_id[ident] = history_of([
            make_record(sha=sha_of(2 * i), timestamp_utc=1483347600),  # Mon 09:00
            make_record(sha=sha_of(2 * i + 1), timestamp_utc=1483826400),  # Sat 22:00
        ])

    cells = {c.classifier: c for c in developer_baselines(commits_by_id, ids, truth)}
    allhired = cells["allhired"]
    assert allhired.precision == pytest.approx(0.668, abs=0.0005)
    assert allhired.recall == 1.0
    assert allhired.auc == 0.5

    strict = cells["95%officehours"]
    assert strict.recall == 0.0
    assert strict.precision is None

    loose = cells["5%officehours"]
    assert (loose.auc, loose.precision, loose.recall) == (
        allhired.auc,
        allhired.precision,
        allhired.recall,
    )
    assert (loose.tp, loose.fp, loose.tn, loose.fn) == (
        allhired.tp,
        allhired.fp,
        allhired.tn,
        allhired.fn,
    )
    elapsed = _elapsed_under(t0, 1.0, 1)
    _report(1, f"(base-rate rows exact, {elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 2. roc_auc equals the O(n^2) pairwise oracle within 1e-12, with ties.
# --------------------------------------------------------------------------
def test_criterion_2_auc_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 2001))
        if trial % 2:
            scores = rng.choice(np.round(rng.normal(size=6), 3), size=n)  # heavy ties
        else:
            scores = rng.normal(size=n)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        delta = abs(roc_auc(scores, labels) - pairwise_auc(scores, labels))
        worst = max(worst, delta)
        assert delta <= 1e-12
    elapsed = _elapsed_under(t0, 30.0, 2)
    _report(2, f"(200 instances, max |delta| {worst:.2e}, {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 3. Logit gradient vs central finite differences, rel. error < 1e-4.
# --------------------------------------------------------------------------
def test_criterion_3_logit_gradient():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    n, p = 80, 10
    X1 = np.hstack([rng.normal(size=(n, p)), np.ones((n, 1))])
    y = (rng.random(n) < 0.5).astype(np.float64)
    l2 = 0.25
    worst = 0.0
    for _ in range(20):
        w = rng.normal(scale=0.7, size=p + 1)
        _, grad = loss_and_grad(w, X1, y, l2)
        eps = 1e-6
        for j in range(p + 1):
            e = np.zeros(p + 1)
            e[j] = eps
            lp, _ = loss_and_grad(w + e, X1, y, l2)
            lm, _ = loss_and_grad(w - e, X1, y, l2)
            numeric = (lp - lm) / (2 * eps)
            rel = abs(grad[j] - numeric) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4
    elapsed = _elapsed_under(t0, 5.0, 3)
    _report(3, f"(20 points, max rel err {worst:.2e}, {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 4. fit_tree's first split equals exhaustive (feature, threshold) search.
# --------------------------------------------------------------------------
def test_criterion_4_tree_split_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(5, 201))
        p = int(rng.integers(1, 9))
        if trial % 3 == 0:
            X = rng.integers(0, 4, size=(n, p)).astype(np.float64)  # tied values
        else:
            X = rng.normal(size=(n, p))
        y = (rng.random(n) < 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        data = make_dataset(X, y, [f"f{i}" for i in range(p)], [str(i) for i in range(n)])
        model = fit_tree(data, minsplit=2, cp=0.0, maxdepth=1)
        exp_f, exp_t, _ = exhaustive_best_split(np.ascontiguousarray(X), y)
        if exp_f < 0:
            assert len(model.root.n) == 1 and model.root.feature[0] == -1
        else:
            assert model.root.feature[0] == exp_f, f"trial {trial}"
            assert model.root.threshold[0] == exp_t, f"trial {trial}"
            checked += 1
    elapsed = _elapsed_under(t0, 60.0, 4)
    _report(4, f"({checked} splits matched exhaustive search, {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 5. Degenerate forest (B=1, mtry=p, no bootstrap) equals the full tree.
# --------------------------------------------------------------------------
def test_criterion_5_degenerate_forest():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 6))
    y = ((X[:, 0] + X[:, 3] > 0.2)).astype(int)
    data = make_dataset(X, y, [f"f{i}" for i in range(6)], [str(i) for i in range(300)])
    forest = fit_forest(data, n_trees=1, mtry=6, seed=42, bootstrap=False)
    tree = fit_tree(data, minsplit=2, cp=0.0, maxdepth=None)
    Xt = rng.normal(size=(500, 6))
    assert np.array_equal(predict_proba(forest, Xt), predict_proba(tree, Xt))
    elapsed = _elapsed_under(t0, 5.0, 5)
    _report(5, f"(predictions identical on 500 rows, {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 6. The 4-commit feature fixture, against frozen values and the oracle.
# --------------------------------------------------------------------------
def test_criterion_6_feature_fixture(fixture_commits):
    t0 = time.monotonic()
    expected = {
        "period": 6,
        "days": 3,
        "weeks": 1,
        "commits": 4,
        "loc_per_commit": 5.0,
        "weekend": 0.5,
        "night": 0.25,
        "morning": 0.25,
        "afternoon": 0.25,
        "evening": 0.25,
        "office": 0.5,
        "most_active_hour": 2,
        "beginning_regular": 9,
        "end_regular": 14,
        "length_regular": 5,
    }
    feats = developer_features(history_of(fixture_commits))
    for name, value in expected.items():
        assert getattr(feats, name) == value, name
    assert feats.timediff == pytest.approx(0.2292, abs=1e-4)

    oracle = brute_force_features(
        [(c.sha, c.timestamp_utc, c.tz_offset_minutes, c.lines_added, c.lines_deleted)
         for c in fixture_commits]
    )
    for name in FEATURE_COLUMNS:
        assert getattr(feats, name) == pytest.approx(oracle[name], abs=1e-12), name
    elapsed = _elapsed_under(t0, 5.0, 6)
    _report(6, f"(all 16 metrics exact, {elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 7. End-to-end synthetic experiment through the CLI.
# --------------------------------------------------------------------------
def _run_evaluate(tmp_path, tag, profiles, seed):
    records = tmp_path / f"{tag}.jsonl"
    labels = tmp_path / f"{tag}-labels.csv"
    out = tmp_path / f"{tag}-report.json"
    assert cli_main([
        "synth", "--out", str(records), "--labels-out", str(labels),
        "--seed", str(seed), "--profiles", profiles,
    ]) == 0
    assert cli_main([
        "evaluate", str(records), "--labels", str(labels), "--seed", str(seed),
        "--folds", "5", "--repeats", "2", "--forest-trees", "50",
        "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    return report["aggregate"]


def test_criterion_7_end_to_end(tmp_path):
    t0 = time.monotonic()
    separable = _run_evaluate(tmp_path, "sep", "separable", seed=7)
    assert separable["randomforest"]["auc_mean"] >= 0.95
    assert separable["logit"]["auc_mean"] >= 0.90

    overlapping = _run_evaluate(tmp_path, "ovl", "overlapping", seed=7)
    assert overlapping["allhired"]["auc_mean"] == 0.5
    margins = {}
    for name in ("logit", "rpart", "randomforest"):
        margins[name] = overlapping[name]["auc_mean"] - 0.5
        assert margins[name] >= 0.15, f"{name} beat allhired by only {margins[name]:.3f}"
    elapsed = _elapsed_under(t0, 120.0, 7)
    _report(
        7,
        "(separable rf {:.3f} logit {:.3f}; overlap margins {}; {:.0f}s)".format(
            separable["randomforest"]["auc_mean"],
            separable["logit"]["auc_mean"],
            {k: round(v, 2) for k, v in margins.items()},
            elapsed,
        ),
    )


# --------------------------------------------------------------------------
# 8. Stratified folds stay within one of proportional allocation.
# --------------------------------------------------------------------------
def test_criterion_8_stratification():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(40, 400))
        rate = float(rng.uniform(0.15, 0.85))
        labels = (rng.random(n) < rate).astype(int)
        k = int(rng.integers(2, 11))
        minority = min(labels.sum(), n - labels.sum())
        if minority < k:
            continue
        folds = stratified_kfold(n, labels, k=k, repeats=2, seed=int(rng.integers(1e9)))
        for repeat in folds:
            assert sorted(np.concatenate(repeat).tolist()) == list(range(n))
            for cls in (0, 1):
                total = int((labels == cls).sum())
                for fold in repeat:
                    got = int((labels[fold] == cls).sum())
                    assert abs(got - total / k) <= 1.0
    elapsed = _elapsed_under(t0, 10.0, 8)
    _report(8, f"(100 label sets within +/-1 of proportional, {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 9. Determinism: byte-identical reports.
# --------------------------------------------------------------------------
def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    records = tmp_path / "det.jsonl"
    labels = tmp_path / "det-labels.csv"
    assert cli_main([
        "synth", "--out", str(records), "--labels-out", str(labels),
        "--seed", "9", "--devs", "24", "--commits-low", "110",
        "--commits-high", "160",
    ]) == 0
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli_main([
            "evaluate", str(records), "--labels", str(labels), "--seed", "9",
            "--folds", "3", "--repeats", "2", "--forest-trees", "20",
            "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    elapsed = _elapsed_under(t0, 120.0, 9)
    _report(9, f"(byte-identical reports, {elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 10. CART root on weekend-separable data names the weekend share.
# --------------------------------------------------------------------------
def test_criterion_10_introspection():
    t0 = time.monotonic()
    spec = SynthSpec(
        n_devs=60,
        commits_low=40,
        commits_high=80,
        # same hour habits; only the weekend rate separates the classes
        hired=ClassProfile(weekend_beta=(1.0, 50.0), hour_mu_range=(9.0, 20.0),
                           hour_sigma=4.0, corp_email_prob=0.0),
        volunteer=ClassProfile(weekend_beta=(50.0, 18.0), hour_mu_range=(9.0, 20.0),
                               hour_sigma=4.0, corp_email_prob=0.0),
    )
    records, labels = generate_synthetic_corpus(spec, seed=10)
    from paydev.features import compute_features, feature_matrix
    from paydev.identity import merge_identities
    from paydev.ingest import Commits

    identities = merge_identities(Commits.from_records(records))
    feats = compute_features({i.id: history_of([records[r] for r in i.rows])
                              for i in identities})
    X, ids, columns = feature_matrix(feats, "all")
    y = [1 if labels[i] == "hired" else 0 for i in ids]
    model = fit_tree(make_dataset(X, y, columns, ids))
    assert model.columns[model.nodes.feature[0]] == "weekend"
    assert "weekend" in ml.introspect(model).splitlines()[1]
    elapsed = _elapsed_under(t0, 10.0, 10)
    _report(10, f"(root split on weekend share, {elapsed:.1f}s)")
