"""Metrics, cross-validation, baseline classifiers and the per-commit
experiment.

AUC is the Mann-Whitney statistic (ties get half credit), precision is NA
when nothing is predicted positive, and every random decision derives from
a master seed through numpy's PCG64, which native.fold_draws repeats, so
repeated runs are identical. Scores, labels and flags are stdlib arrays:
native.auc ranks scores (the compiled one, or without the library its
twin auc_py here), and the report's means and standard deviations sum as
numpy does (pairwise_sum), so this module needs no numpy.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from math import nan, sqrt
from operator import getitem

from paydev import features as feat
from paydev import labels as lab
from paydev import ml, native
from paydev.errors import SingleClassError, StratificationError
from paydev.features import to_local  # noqa: F401  perfbench/tracing.py counts calls here


def auc_py(scores, labels):
    """native.auc in Python."""
    if len(scores) != len(labels):
        raise TypeError("auc needs scores as array('d') and labels as array('b') of one length")
    pairs = [(s, l == 1) for s, l in zip(scores, labels)]
    ranked = sorted(pair for pair in pairs if pair[0] == pair[0])
    ranked += [(nan, pos) for s, pos in pairs if s != s]  # NaN ties NaN and ranks last
    n, n_pos = len(ranked), sum(pos for _, pos in ranked)
    if n_pos in (0, n):
        raise ValueError("auc needs both classes")
    rank_sum, i = 0.0, 0
    while i < n:
        j, score, pos = i, ranked[i][0], 0
        while j < n and (ranked[j][0] == score or score != score):
            pos += ranked[j][1]
            j += 1
        rank_sum += pos * ((i + 1 + j) / 2.0)
        i = j
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))


def roc_auc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie) over all pos/neg pairs, with 1
    the positive label: the positives' rank sum, each run of tied scores at
    its average rank."""
    if not (type(scores) is array and scores.typecode == "d"):
        scores = array("d", map(float, scores))
    if not (type(labels) is array and labels.typecode == "b"):
        labels = array("b", [1 if label == 1 else 0 for label in labels])
    try:
        return native.auc(scores, labels)
    except ValueError:  # one class only
        raise SingleClassError("roc_auc needs both classes") from None


def _bits(flags) -> int:
    """flags, each 0 or 1, as an int whose bit 8 i is flag i."""
    if not (type(flags) is bytes or type(flags) is array and flags.itemsize == 1):
        flags = bytes(map(int, flags))
    return int.from_bytes(flags, "little")


def confusion(predictions, labels):
    """(tp, fp, tn, fn) of predictions against labels, each 0 or 1, with
    1 = hired as the positive class."""
    predicted, hired = _bits(predictions), _bits(labels)
    tp = (predicted & hired).bit_count()
    fp, fn = predicted.bit_count() - tp, hired.bit_count() - tp
    return tp, fp, len(labels) - tp - fp - fn, fn


def precision_recall(predictions, labels):
    """(precision, recall); precision is None when tp+fp = 0."""
    tp, fp, _, fn = confusion(predictions, labels)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return precision, recall


def stratified_kfold(n, labels, k=10, repeats=10, seed=0):
    """Per repeat, a list of k test-index arrays (array("q"), ascending).

    Each class is shuffled and dealt round-robin starting at a random fold,
    so every fold's class count is within one of the proportional share.
    Repeat r draws from numpy's default_rng(SeedSequence([seed, r])), the
    classes in ascending order, each shuffled (Generator.shuffle) and then
    given its start (Generator.integers(k)), through native.fold_draws.
    """
    labels = list(labels)
    if len(labels) != n:
        raise ValueError("labels length must be n")
    members = {}
    for i, label in enumerate(labels):
        members.setdefault(label, []).append(i)
    classes = sorted(members)
    sizes = [len(members[c]) for c in classes]
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > min(sizes):
        raise StratificationError(f"k={k} exceeds the minority class count {min(sizes)}")
    all_repeats = []
    for r in range(repeats):
        draws, at = native.fold_draws([int(seed), r], sizes, k), 0
        fold_of = [0] * n
        for c in classes:
            rows = members[c]
            start = draws[at + len(rows)]
            for i, j in enumerate(draws[at:at + len(rows)]):
                fold_of[rows[j]] = (start + i) % k
            at += len(rows) + 1
        folds = [array("q") for _ in range(k)]
        for i, f in enumerate(fold_of):
            folds[f].append(i)
        all_repeats.append(folds)
    return all_repeats


def pairwise_sum(xs) -> float:
    """The sum of the floats xs as numpy's add.reduce (and so np.mean and
    np.std) takes it: 0.0 plus their pairwise sum."""
    return 0.0 + _pairwise(xs)


def _pairwise(xs):
    """numpy's pairwise summation: under 8 values one sum in order; up to
    128, eight running sums of every eighth value combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; past 128,
    the sums of the halves split at n/2 rounded down to a multiple of 8."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        r, end = list(xs[:8]), n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += xs[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[end:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(xs[:half]) + _pairwise(xs[half:])


def _mean(xs):
    """np.mean(xs) of a list of floats, None for an empty one."""
    return pairwise_sum(xs) / len(xs) if xs else None


def _sd(xs):
    """np.std(xs), the population standard deviation, of a list of floats,
    0.0 for fewer than two."""
    if len(xs) < 2:
        return 0.0
    mean = _mean(xs)
    return sqrt(pairwise_sum([(x - mean) * (x - mean) for x in xs]) / len(xs))


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
        predictions = bytes([score >= 0.5 for score in scores])
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


def _subset(data: ml.Dataset, rows) -> ml.Dataset:
    """The Dataset of data's rows `rows`, in that order."""
    p, X = len(data.columns), array("d")
    for i in rows:
        X += data.X[i * p:(i + 1) * p]
    return ml.Dataset(X=X, y=array("b", map(data.y.__getitem__, rows)),
                      columns=list(data.columns), ids=[data.ids[i] for i in rows])


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
                held_out = set(test_idx)
                train = _subset(data, [i for i in range(len(data.y)) if i not in held_out])
                try:
                    model = fit(train, (seed, r, f))
                except Exception as exc:
                    exc.args = (f"{exc} (repeat {r}, fold {f})",)
                    raise
                test = _subset(data, test_idx)
                scores = ml.predict_proba(model, ml.matrix(test.X, len(test.columns)))
                cells.append(_cell_from_scores(name, r, f, scores, test.y))
    return EvalReport(cells=cells, config=dict(config or {}))


OFFICE_START, OFFICE_END = 9, 17  # weekday window of the office-hours rule
OFFICE_THRESHOLDS = (0.05, 0.5, 0.95)  # office-hours shares that predict hired
# per weekday (Monday = 0), each hour's office-hours flag
_OFFICE = [bytes(w < 5 and OFFICE_START <= h < OFFICE_END for h in range(24)) for w in range(7)]


def commit_flags(h, domains):
    """Per commit of History h, as two array("b") of 0 and 1: whether its
    author address is at one of the domains, and whether it falls on a
    weekday between OFFICE_START and OFFICE_END in its local time."""
    domains = set(domains)
    at_domain = {e: e.rsplit("@", 1)[-1] in domains for e in set(h.email)}
    office = map(getitem, map(_OFFICE.__getitem__, h.local.weekday), h.local.hour)
    return array("b", bytes(map(at_domain.__getitem__, h.email))), array("b", bytes(office))


def baseline_cell(name, scores, predictions, truth) -> Cell:
    """One full-dataset evaluation row for a baseline."""
    return _cell_from_scores(name, 0, 0, scores, truth, predictions)


def developer_baselines(histories, ids, truth, domains=("mozilla.com",)):
    """The baseline rows over the developers ids, each scored from its
    History: allhired predicts everyone hired; email scores the share of
    commits from one of the domains and predicts hired when one exists;
    N%officehours scores the weekday 9-17 share and predicts hired at N% or
    more, for each of OFFICE_THRESHOLDS."""
    shares = [[sum(flags) / len(flags) for flags in commit_flags(histories[i], domains)]
              for i in ids]
    email, office = (array("d", column) for column in zip(*shares))
    n = len(ids)
    cells = [baseline_cell("allhired", array("d", [1.0]) * n, b"\x01" * n, truth),
             baseline_cell("email", email, bytes(share > 0 for share in email), truth)]
    for threshold in OFFICE_THRESHOLDS:
        cells.append(baseline_cell(f"{int(round(threshold * 100))}%officehours", office,
                                   bytes(share >= threshold for share in office), truth))
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
    labelled developers' commits form one table, developer after developer
    by commit count descending, id ascending. The training rows are the
    table's first rows up to a cut: the commits of the smallest prefix of
    developers that reach `coverage` of the total. Returns (report over the
    whole table, report over the held-out rows from the cut on); both follow
    the classifiers with the allpaid, email and officehours commit
    baselines.
    """
    labeled = [i for i in histories if i in label_set]  # commit_labels resolves periods, once
    if not labeled:
        raise SingleClassError("no labeled developers")
    labeled.sort(key=lambda i: (-len(histories[i].ts), i))
    total = sum(len(histories[i].ts) for i in labeled)
    cut = 0  # the training developers' commits
    for ident_id in labeled:
        cut += len(histories[ident_id].ts)
        if cut >= coverage * total:
            break

    X, y, shas, email, office = array("d"), array("b"), [], array("b"), array("b")
    for ident_id in labeled:
        h = histories[ident_id]
        X_i, shas_i, _ = feat.commit_features(h)
        X += X_i
        y += array("b", bytes(map(lab.HIRED.__eq__, lab.commit_labels(ident_id, h, label_set))))
        shas += shas_i
        email_i, office_i = commit_flags(h, domains)
        email += email_i
        office += office_i
    p = len(feat.COMMIT_FEATURE_COLUMNS)

    train = ml.make_dataset(X[:cut * p], y[:cut], feat.COMMIT_FEATURE_COLUMNS, shas[:cut])
    if len(set(train.y)) < 2:
        raise SingleClassError("training developers carry a single class")
    models = {name: fit(train, (seed, 0, 0)) for name, fit in classifiers.items()}

    def report(X, y, email, office):
        cells = []
        if y:
            rows = ml.matrix(X, p)
            for name, model in models.items():
                cells.append(_cell_from_scores(name, 0, 0, ml.predict_proba(model, rows), y))
            allpaid = array("b", [1]) * len(y)
            for name, flags in (("allpaid", allpaid), ("email", email), ("officehours", office)):
                cells.append(_cell_from_scores(name, 0, 0, array("d", flags.tolist()), y, flags))
        return EvalReport(cells=cells, config=dict(config or {}))

    return (report(X, y, email, office),
            report(X[cut * p:], y[cut:], email[cut:], office[cut:]))
