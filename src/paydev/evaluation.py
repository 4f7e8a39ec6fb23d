"""Metrics, cross-validation, baseline classifiers and the per-commit
experiment.

AUC is the Mann-Whitney statistic (ties get half credit), precision is NA
when nothing is predicted positive, and every random decision derives from
a master seed through numpy's PCG64 so repeated runs are identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from paydev import features as feat
from paydev import labels as lab
from paydev import ml
from paydev.errors import SingleClassError, StratificationError
from paydev.features import to_local  # noqa: F401  perfbench/tracing.py counts calls here


def roc_auc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie) over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("roc_auc needs both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_rank = (ends - counts + 1 + ends) / 2.0  # 1-based average rank per value
    ranks = avg_rank[inverse]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def confusion(predictions, labels):
    """(tp, fp, tn, fn) with 1 = hired as the positive class."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    return tp, fp, tn, fn


def precision_recall(predictions, labels):
    """(precision, recall); precision is None when tp+fp = 0."""
    tp, fp, _, fn = confusion(predictions, labels)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return precision, recall


def stratified_kfold(n, labels, k=10, repeats=10, seed=0):
    """Per repeat, a list of k test-index arrays.

    Each class is shuffled and dealt round-robin starting at a random fold,
    so every fold's class count is within one of the proportional share.
    """
    labels = np.asarray(labels)
    if len(labels) != n:
        raise ValueError("labels length must be n")
    classes, counts = np.unique(labels, return_counts=True)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > counts.min():
        raise StratificationError(
            f"k={k} exceeds the minority class count {int(counts.min())}"
        )
    all_repeats = []
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), r]))
        folds = [[] for _ in range(k)]
        for cls in classes:
            cls_idx = np.flatnonzero(labels == cls)
            rng.shuffle(cls_idx)
            start = int(rng.integers(k))
            for i, sample in enumerate(cls_idx):
                folds[(start + i) % k].append(int(sample))
        all_repeats.append([np.array(sorted(f), dtype=np.int64) for f in folds])
    return all_repeats


def forest_seed(seed_parts) -> int:
    """The forest seed of one fit, derived from (master seed, repeat, fold)."""
    return int(np.random.SeedSequence(entropy=list(seed_parts)).generate_state(1)[0])


@dataclass
class Cell:
    classifier: str
    repeat: int
    fold: int
    auc: float
    precision: float | None
    recall: float | None
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    cells: list[Cell]
    config: dict

    def classifiers(self):
        seen = []
        for cell in self.cells:
            if cell.classifier not in seen:
                seen.append(cell.classifier)
        return seen

    def aggregate(self):
        """Unweighted mean and sd over (repeat, fold) cells per classifier;
        NA precisions are skipped."""
        out = {}
        for name in self.classifiers():
            rows = [c for c in self.cells if c.classifier == name]
            aucs = [c.auc for c in rows]
            precisions = [c.precision for c in rows if c.precision is not None]
            recalls = [c.recall for c in rows if c.recall is not None]

            def _mean(xs):
                return float(np.mean(xs)) if xs else None

            def _sd(xs):
                return float(np.std(xs)) if len(xs) > 1 else 0.0

            out[name] = {
                "auc_mean": _mean(aucs),
                "auc_sd": _sd(aucs),
                "precision_mean": _mean(precisions),
                "precision_sd": _sd(precisions) if precisions else None,
                "recall_mean": _mean(recalls),
                "recall_sd": _sd(recalls) if recalls else None,
                "cells": len(rows),
                "na_precision_cells": sum(1 for c in rows if c.precision is None),
            }
        return out

    def as_dict(self):
        return {
            "config": self.config,
            "cells": [asdict(c) for c in self.cells],
            "aggregate": self.aggregate(),
        }


def _cell_from_scores(name, repeat, fold, scores, truth, predictions=None) -> Cell:
    """One report row; predictions default to scores >= 0.5."""
    if predictions is None:
        predictions = (np.asarray(scores) >= 0.5).astype(np.int8)
    tp, fp, tn, fn = confusion(predictions, truth)
    precision, recall = precision_recall(predictions, truth)
    return Cell(
        classifier=name,
        repeat=repeat,
        fold=fold,
        auc=roc_auc(scores, truth),
        precision=precision,
        recall=recall,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def cross_validate(data: ml.Dataset, classifiers, folds, seed=0, config=None) -> EvalReport:
    """Repeated k-fold evaluation of every classifier.

    classifiers maps each report name to fit(data, seed_parts), which gets
    (seed, repeat, fold). folds comes from stratified_kfold; each cell
    trains on k-1 folds and scores the held-out one.
    """
    cells = []
    for name, fit in classifiers.items():
        for r, fold_list in enumerate(folds):
            for f, test_idx in enumerate(fold_list):
                train_mask = np.ones(len(data.y), dtype=bool)
                train_mask[test_idx] = False
                train = ml.make_dataset(
                    data.X[train_mask],
                    data.y[train_mask],
                    data.columns,
                    [data.ids[i] for i in np.flatnonzero(train_mask)],
                )
                try:
                    model = fit(train, (seed, r, f))
                except Exception as exc:
                    exc.args = (f"{exc} (repeat {r}, fold {f})",)
                    raise
                scores = ml.predict_proba(model, data.X[test_idx])
                cells.append(
                    _cell_from_scores(name, r, f, scores, data.y[test_idx])
                )
    return EvalReport(cells=cells, config=dict(config or {}))


OFFICE_START, OFFICE_END = 9, 17  # weekday window of the office-hours rule
OFFICE_THRESHOLDS = (0.05, 0.5, 0.95)  # office-hours shares that predict hired


def commit_flags(h, domains):
    """Per commit of History h, (whether its author address is at one of
    the domains, whether it falls on a weekday between OFFICE_START and
    OFFICE_END in its local time)."""
    domains = set(domains)
    email = np.array([e.rsplit("@", 1)[-1] in domains for e in h.email], dtype=bool)
    local = h.local
    return email, (local.weekday < 5) & (OFFICE_START <= local.hour) & (local.hour < OFFICE_END)


def baseline_cell(name, scores, predictions, truth) -> Cell:
    """One full-dataset evaluation row for a baseline."""
    return _cell_from_scores(name, 0, 0, scores, truth, predictions)


def developer_baselines(histories, ids, truth, domains=("mozilla.com",)):
    """The baseline rows over the developers ids, each scored from its
    History: allhired predicts everyone hired; email scores the share of
    commits from one of the domains and predicts hired when one exists;
    N%officehours scores the weekday 9-17 share and predicts hired at N% or
    more, for each of OFFICE_THRESHOLDS."""
    shares = np.array([[flags.mean() for flags in commit_flags(histories[i], domains)]
                       for i in ids])
    email, office = shares.T
    n = len(ids)
    cells = [baseline_cell("allhired", np.ones(n), np.ones(n, dtype=np.int8), truth),
             baseline_cell("email", email, (email > 0).astype(np.int8), truth)]
    for threshold in OFFICE_THRESHOLDS:
        cells.append(baseline_cell(f"{int(round(threshold * 100))}%officehours", office,
                                   (office >= threshold).astype(np.int8), truth))
    return cells


def per_commit_experiment(
    histories,
    label_set,
    classifiers,
    coverage=0.5,
    domains=("mozilla.com",),
    seed=0,
    config=None,
):
    """Train on the most active developers' commits, test per commit.

    histories maps each studied identity id to its History, and classifiers
    each report name to fit(data, seed_parts) as in cross_validate. The
    training set is the smallest prefix of developers (by commit count
    descending, id ascending) whose commits reach `coverage` of the total.
    Returns (report over all commits, report over held-out developers'
    commits); both follow the classifiers with the allpaid, email and
    officehours commit baselines.
    """
    labeled = [i for i, h in histories.items() if lab.resolve_status(i, h, label_set) is not None]
    if not labeled:
        raise SingleClassError("no labeled developers")
    labeled.sort(key=lambda i: (-len(histories[i].ts), i))
    total = sum(len(histories[i].ts) for i in labeled)
    train_devs, cum = [], 0
    for ident_id in labeled:
        train_devs.append(ident_id)
        cum += len(histories[ident_id].ts)
        if cum >= coverage * total:
            break
    held_out = labeled[len(train_devs):]

    per_dev = {}  # identity id -> (X, y, shas, email flags, office-hours flags)
    for ident_id in labeled:
        h = histories[ident_id]
        X, shas, _ = feat.commit_features(h)
        statuses = lab.commit_labels(ident_id, h, label_set)
        per_dev[ident_id] = (X, [1 if s == lab.HIRED else 0 for s in statuses], shas,
                             *commit_flags(h, domains))

    def build(devs):
        X, ys, shas, email, office = zip(*(per_dev[i] for i in devs))
        data = ml.make_dataset(np.vstack(X), list(chain(*ys)), feat.COMMIT_FEATURE_COLUMNS,
                               list(chain(*shas)))
        return data, np.concatenate(email), np.concatenate(office)

    train_data, _, _ = build(train_devs)
    if len(np.unique(train_data.y)) < 2:
        raise SingleClassError("training developers carry a single class")
    models = {name: fit(train_data, (seed, 0, 0)) for name, fit in classifiers.items()}

    def report(devs):
        cells = []
        if devs:
            data, email, office = build(devs)
            for name, model in models.items():
                scores = ml.predict_proba(model, data.X)
                cells.append(_cell_from_scores(name, 0, 0, scores, data.y))
            allpaid = np.ones(len(data.y), dtype=bool)
            for name, flags in (("allpaid", allpaid), ("email", email), ("officehours", office)):
                cells.append(_cell_from_scores(name, 0, 0, flags.astype(np.float64), data.y))
        return EvalReport(cells=cells, config=dict(config or {}))

    return report(labeled), report(held_out)
