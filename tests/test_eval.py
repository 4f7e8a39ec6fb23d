from array import array
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNEL_MODES, history_of, make_record, sha_of, twins
from paydev import evaluation, native
from paydev.errors import SingleClassError, StratificationError
from paydev.evaluation import (
    Cell,
    EvalReport,
    commit_flags,
    confusion,
    cross_validate,
    developer_baselines,
    per_commit_experiment,
    precision_recall,
    roc_auc,
    stratified_kfold,
)
from paydev.labels import LabelSet
from paydev.ml import fit_logit, fit_tree, make_dataset


from oracle_auc import pairwise_auc
from oracle_calendar import local_civil
from oracle_kfold import numpy_stratified_kfold


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_three_point_example(self):
        # pairs: (0.9 vs 0.8) win, (0.7 vs 0.8) loss -> 1/2
        assert roc_auc([0.9, 0.8, 0.7], [1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 500))
            scores = rng.choice([0.1, 0.25, 0.5, 0.9], size=n)  # plenty of ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(min_value=4, max_value=60))
        # a coarse grid keeps exp/affine strictly monotone in float64
        scores = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-5, max_value=5, allow_nan=False).map(
                        lambda x: round(x, 3)
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n,
                                             max_size=n)))
        if labels.min() == labels.max():
            return
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)


_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
                    st.floats(allow_nan=False, width=64))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_auc_kernels_match_pairwise_oracle(data):
    """The compiled AUC and its twin give the pairwise oracle's value bit for
    bit: with ties, signed zeros, infinities, all-equal scores and n = 2."""
    n = data.draw(st.integers(2, 60))
    scores = data.draw(st.lists(_SCORES, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        scores = [scores[0]] * n
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[:2] = data.draw(st.permutations([0, 1]))
    expected = pairwise_auc(scores, labels)
    for on in KERNEL_MODES:
        with twins(*() if on else ("auc",)):
            assert native.auc(array("d", scores), array("b", labels)) == expected
            assert roc_auc(scores, labels) == expected


def test_report_mean_and_sd_sum_as_numpy():
    """EvalReport.aggregate's mean and sd equal np.mean and np.std bit for
    bit, for 1 to 300 cells, where a sum in order differs."""
    rng = np.random.default_rng(23)
    for n in range(1, 301):
        for values in (rng.random(n), rng.random(n) * 10.0 ** rng.uniform(-6, 6, n)):
            cells = [Cell("c", 0, i, v, v, v, 0, 0, 0, 0) for i, v in enumerate(values.tolist())]
            agg = EvalReport(cells=cells, config={}).aggregate()["c"]
            assert agg["auc_mean"] == agg["precision_mean"] == np.mean(values), n
            assert agg["auc_sd"] == agg["recall_sd"] == (np.std(values) if n > 1 else 0.0), n
    assert evaluation.pairwise_sum([-0.0] * 9) == np.add.reduce(np.array([-0.0] * 9))


class TestPrecisionRecall:
    def test_all_positive_on_base_rate(self):
        labels = np.array([1] * 668 + [0] * 332)
        preds = np.ones(1000, dtype=int)
        precision, recall = precision_recall(preds, labels)
        assert precision == pytest.approx(0.668, abs=5e-4)
        assert recall == 1.0

    def test_no_positive_predictions(self):
        precision, recall = precision_recall([0, 0, 0], [1, 1, 0])
        assert precision is None
        assert recall == 0.0

    def test_perfect(self):
        assert precision_recall([1, 0, 1], [1, 0, 1]) == (1.0, 1.0)

    def test_confusion_counts(self):
        tp, fp, tn, fn = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (tp, fp, tn, fn) == (1, 1, 1, 1)


class TestStratifiedKFold:
    def test_fold_balance(self):
        labels = np.array([1] * 67 + [0] * 33)
        folds = stratified_kfold(100, labels, k=10, repeats=3, seed=1)
        for repeat in folds:
            for fold in repeat:
                n_pos = int(labels[fold].sum())
                assert n_pos in (6, 7)
                assert len(fold) - n_pos in (3, 4)

    def test_partition(self):
        labels = np.array([1] * 40 + [0] * 20)
        folds = stratified_kfold(60, labels, k=5, repeats=2, seed=3)
        for repeat in folds:
            joined = np.concatenate(repeat)
            assert sorted(joined.tolist()) == list(range(60))

    def test_deterministic(self):
        labels = np.array([1] * 30 + [0] * 30)
        a = stratified_kfold(60, labels, k=5, repeats=2, seed=9)
        b = stratified_kfold(60, labels, k=5, repeats=2, seed=9)
        for ra, rb in zip(a, b):
            for fa, fb in zip(ra, rb):
                assert np.array_equal(fa, fb)

    def test_k_exceeding_minority_rejected(self):
        labels = np.array([1] * 50 + [0] * 5)
        with pytest.raises(StratificationError):
            stratified_kfold(55, labels, k=10, repeats=1, seed=1)

    def test_balance_over_random_label_sets(self, rng):
        for _ in range(50):
            n = int(rng.integers(30, 200))
            rate = float(rng.uniform(0.2, 0.8))
            labels = (rng.random(n) < rate).astype(int)
            k = int(rng.integers(2, 6))
            if min(labels.sum(), n - labels.sum()) < k:
                continue
            folds = stratified_kfold(n, labels, k=k, repeats=1, seed=int(rng.integers(1e6)))
            for cls in (0, 1):
                total = int((labels == cls).sum())
                ideal = total / k
                for fold in folds[0]:
                    got = int((labels[fold] == cls).sum())
                    assert abs(got - ideal) <= 1.0


    @pytest.mark.parametrize("seed", [1, 2**32, 2**70])
    @pytest.mark.parametrize("on", KERNEL_MODES)
    def test_matches_numpy_folds(self, seed, on):
        """The folds numpy's Generator dealt, from the compiled generator and
        from its twin: two or three classes, n up to 10,000, k from 2 to 10,
        several repeats."""
        rng = np.random.default_rng(seed % 2**32)
        cases = [(n, k) for k in range(2, 11) for n in (2 * k, 3 * k + 1, 97)]
        cases += [(1000, 3), (10_000, 10), (10_000, 2)]
        for n, k in cases:
            labels = rng.integers(0, 2 if n < 97 else 3, size=n)
            labels[:2 * k] = np.arange(2 * k) % (2 if n < 97 else 3)
            if np.bincount(labels).min() < k:
                continue
            with twins(*() if on else ("fold_draws",)):
                got = stratified_kfold(n, labels.tolist(), k=k, repeats=3, seed=seed)
            assert [[f.tolist() for f in r] for r in got] == numpy_stratified_kfold(
                n, labels, k, 3, seed), (n, k)


class TestCrossValidate:
    def _data(self, rng, n=60):
        X = rng.normal(size=(n, 3))
        y = (rng.random(n) < 0.5).astype(int)  # independent of the noise columns
        X[:, 2] = y  # plant the answer so the oracle column wins
        return make_dataset(X, y, ["a", "b", "answer"], [str(i) for i in range(n)])

    def test_oracle_classifier_scores_one(self, rng):
        data = self._data(rng)
        folds = stratified_kfold(len(data.y), data.y, k=5, repeats=2, seed=2)
        report = cross_validate(
            data, {"rpart": lambda d, _: fit_tree(d, minsplit=2)}, folds, seed=2
        )
        agg = report.aggregate()["rpart"]
        assert agg["auc_mean"] == 1.0
        assert agg["precision_mean"] == 1.0
        assert agg["recall_mean"] == 1.0

    def test_constant_positive_classifier(self, rng):
        n = 60
        X = np.zeros((n, 2))  # nothing to learn: constant features
        y = np.array([1] * 40 + [0] * 20)
        data = make_dataset(X, y, ["a", "b"], [str(i) for i in range(n)])
        folds = stratified_kfold(n, y, k=5, repeats=1, seed=4)
        report = cross_validate(
            data, {"logit": lambda d, _: fit_logit(d)}, folds, seed=4
        )
        agg = report.aggregate()["logit"]
        assert agg["recall_mean"] == 1.0
        assert agg["auc_mean"] == 0.5
        assert agg["precision_mean"] == pytest.approx(2 / 3, abs=0.01)

    def test_cells_carry_fold_indices(self, rng):
        data = self._data(rng, 40)
        folds = stratified_kfold(len(data.y), data.y, k=4, repeats=2, seed=5)
        report = cross_validate(
            data, {"rpart": lambda d, _: fit_tree(d, minsplit=2)}, folds, seed=5
        )
        assert len(report.cells) == 8
        assert {(c.repeat, c.fold) for c in report.cells} == {
            (r, f) for r in range(2) for f in range(4)
        }


def _office_commit(i, weekday_hour=None, weekend=False, email="dev@example.org"):
    # Mon 2017-01-02 base; Saturday offset for weekend commits
    if weekend:
        ts = 1483826400  # Sat 22:00
    else:
        ts = 1483315200 + weekday_hour * 3600  # Mon at given hour
    return make_record(sha=sha_of(i), timestamp_utc=ts, author_email=email)


def _baselines(histories, ids, truth):
    """developer_baselines' cells by name."""
    cells = developer_baselines(histories, ids, np.array(truth), ("mozilla.com",))
    return {c.classifier: c for c in cells}


class TestBaselines:
    # with truth [1, 0], a cell's (tp, fp) is the two developers' predictions
    def _commits_by_id(self):
        # dev1: office share 0.6 (3 of 5); dev2: share 0.0
        dev1 = [_office_commit(i, weekday_hour=h) for i, h in enumerate([10, 11, 12])]
        dev1 += [_office_commit(3, weekday_hour=20), _office_commit(4, weekend=True)]
        dev2 = [
            _office_commit(10, weekend=True),
            _office_commit(11, weekday_hour=22,
                           email="dev2@mozilla.com"),
        ]
        return {"dev1": history_of(dev1), "dev2": history_of(dev2)}

    def test_five_cells_in_report_order(self):
        cells = developer_baselines(self._commits_by_id(), ["dev1", "dev2"], np.array([1, 0]))
        assert [c.classifier for c in cells] == [
            "allhired", "email", "5%officehours", "50%officehours", "95%officehours"]
        assert {(c.repeat, c.fold) for c in cells} == {(0, 0)}

    def test_officehours_thresholds(self):
        commits = self._commits_by_id()
        assert np.mean(commit_flags(commits["dev1"], ())[1]) == pytest.approx(0.6)
        cells = _baselines(commits, ["dev1", "dev2"], [1, 0])
        assert [cells["50%officehours"].tp, cells["50%officehours"].fp] == [1, 0]
        assert [cells["95%officehours"].tp, cells["95%officehours"].fp] == [0, 0]

    def test_email_at_least_one(self):
        commits = self._commits_by_id()
        cells = _baselines(commits, ["dev1", "dev2"], [1, 0])
        assert [cells["email"].tp, cells["email"].fp] == [0, 1]
        assert np.mean(commit_flags(commits["dev2"], ("mozilla.com",))[0]) == pytest.approx(0.5)

    def test_allhired_recall_one_auc_half(self):
        cell = _baselines(self._commits_by_id(), ["dev1", "dev2"], [1, 0])["allhired"]
        assert cell.recall == 1.0
        assert cell.auc == 0.5

    def test_extreme_thresholds_on_midrange_shares(self):
        commits = self._commits_by_id()
        # dev office shares are 0.6 and 0.0; use dev1-like devs only
        commits = {"dev1": commits["dev1"], "dev3": commits["dev1"]}
        cells = _baselines(commits, ["dev1", "dev3"], [1, 0])
        p05, p95 = cells["5%officehours"], cells["95%officehours"]
        assert [p05.tp, p05.fp] == [1, 1]  # everybody hired
        assert [p95.tp, p95.fp] == [0, 0]  # nobody hired


def test_office_flags_match_calendar_oracle(rng):
    """Per commit and per developer, on a multi-timezone corpus spanning
    years 1-9999: weekday and 9 <= local hour < 17."""
    commits = sorted((  # in History order, which the flags follow
        make_record(sha=sha_of(i), timestamp_utc=int(ts), tz_offset_minutes=int(off))
        for i, (ts, off) in enumerate(zip(
            np.concatenate([rng.integers(-6.2e10, 2.5e11, 400),
                            rng.integers(1.4e9, 1.6e9, 400)]),
            rng.integers(-1440, 1441, 800),
        ))
    ), key=lambda c: (c.timestamp_utc, c.sha))
    expected = []
    for c in commits:
        *_, hour, _, weekday, _, _ = local_civil(c.timestamp_utc, c.tz_offset_minutes)
        expected.append(weekday < 5 and 9 <= hour < 17)
    assert commit_flags(history_of(commits), ())[1].tolist() == expected
    by_dev = {f"d{k}": history_of(commits[k::7]) for k in range(7)}
    shares = np.array([np.mean(expected[k::7]) for k in range(7)])
    truth = np.array([1, 0, 1, 0, 1, 0, 1])
    cell = _baselines(by_dev, sorted(by_dev), truth)["50%officehours"]
    assert cell.auc == roc_auc(shares, truth)
    assert (cell.tp, cell.fp, cell.tn, cell.fn) == confusion(shares >= 0.5, truth)


class TestPerCommitExperiment:
    def _setup(self, rng, n_devs=8, per_dev=30):
        commits_by_id = {}
        label_set = LabelSet()
        sha = 0
        for d in range(n_devs):
            hired = d % 2 == 0
            commits = []
            for _ in range(per_dev + (20 if d < 2 else 0)):
                if hired:
                    ts = 1483315200 + int(rng.integers(9, 17)) * 3600 + int(
                        rng.integers(5)) * 86400 * 7
                else:
                    ts = 1483826400 + int(rng.integers(0, 5)) * 3600 + int(
                        rng.integers(5)) * 86400 * 7
                commits.append(make_record(sha=sha_of(sha), timestamp_utc=ts))
                sha += 1
            commits_by_id[f"dev{d}"] = commits
            label_set.entries[f"dev{d}"] = "hired" if hired else "volunteer"
        return commits_by_id, label_set

    @staticmethod
    def _histories(commits_by_id):
        return {ident_id: history_of(c) for ident_id, c in commits_by_id.items()}

    def test_training_prefix_and_reports(self, rng):
        commits_by_id, label_set = self._setup(rng)
        specs = {"rpart": lambda d, _: fit_tree(d, minsplit=5)}
        all_report, rest_report = per_commit_experiment(
            self._histories(commits_by_id), label_set, specs, coverage=0.5, seed=1
        )
        names = all_report.classifiers()
        assert names == ["rpart", "allpaid", "email", "officehours"]
        allpaid = next(c for c in all_report.cells if c.classifier == "allpaid")
        assert allpaid.recall == 1.0
        total = sum(len(c) for c in commits_by_id.values())
        assert allpaid.tp + allpaid.fp == total  # evaluated on every commit

    def test_trains_on_the_prefix_developers_commits(self, rng):
        """dev0 and dev1 have 50 commits, the rest 30 each: half of the 280
        commits takes dev0..dev3 in activity order, ties by id, whatever
        order the histories come in; the other developers are held out."""
        commits_by_id, label_set = self._setup(rng)
        histories = dict(reversed(self._histories(commits_by_id).items()))
        trained = []

        def fit(data, _):
            trained.append(data.ids)
            return fit_tree(data, minsplit=5)

        _, rest_report = per_commit_experiment(histories, label_set, {"rpart": fit},
                                               coverage=0.5, seed=1)
        prefix = ["dev0", "dev1", "dev2", "dev3"]
        assert trained == [[sha for i in prefix for sha in histories[i].sha]]
        allpaid = next(c for c in rest_report.cells if c.classifier == "allpaid")
        assert allpaid.tp + allpaid.fp == sum(
            len(c) for ident_id, c in commits_by_id.items() if ident_id not in prefix)

    def test_coverage_one_trains_on_everyone(self, rng):
        commits_by_id, label_set = self._setup(rng, n_devs=4)
        specs = {"rpart": lambda d, _: fit_tree(d, minsplit=5)}
        all_report, rest_report = per_commit_experiment(
            self._histories(commits_by_id), label_set, specs, coverage=1.0, seed=1
        )
        assert rest_report.cells == []

    def test_dated_developers_resolve_their_periods_once(self, rng, monkeypatch):
        """Each developer with hired periods has them resolved once, for its
        per-commit labels; a developer without a label is left out."""
        from paydev import labels

        commits_by_id, label_set = self._setup(rng)
        for ident_id in ("dev0", "dev1", "dev5"):  # commits fall on 2017-01-02 .. 2017-02-04
            del label_set.entries[ident_id]
            label_set.periods[ident_id] = [(date(2017, 1, 1), date(2017, 1, 20))]
        del label_set.entries["dev7"]
        calls, hired = [], labels._hired
        monkeypatch.setattr(labels, "_hired", lambda h, spans: calls.append(h) or hired(h, spans))
        all_report, _ = per_commit_experiment(
            self._histories(commits_by_id), label_set,
            {"rpart": lambda d, _: fit_tree(d, minsplit=5)}, coverage=0.5, seed=1
        )
        assert len(calls) == 3
        allpaid = next(c for c in all_report.cells if c.classifier == "allpaid")
        assert allpaid.tp + allpaid.fp == sum(
            len(c) for ident_id, c in commits_by_id.items() if ident_id != "dev7")

    def test_single_class_training_rejected(self, rng):
        commits_by_id, label_set = self._setup(rng, n_devs=4)
        for ident_id in commits_by_id:
            label_set.entries[ident_id] = "hired"
        with pytest.raises(SingleClassError):
            per_commit_experiment(
                self._histories(commits_by_id), label_set,
                {"rpart": lambda d, _: fit_tree(d)}, coverage=0.5, seed=1
            )


class TestReportShape:
    def test_json_keys(self):
        cell = Cell("x", 0, 1, 0.5, None, 1.0, 1, 0, 1, 0)
        report = EvalReport(cells=[cell], config={"seed": 1})
        obj = report.as_dict()
        assert set(obj["cells"][0]) == {
            "classifier", "repeat", "fold", "auc", "precision", "recall",
            "tp", "fp", "tn", "fn",
        }
        assert obj["cells"][0]["precision"] is None
        assert obj["config"] == {"seed": 1}
