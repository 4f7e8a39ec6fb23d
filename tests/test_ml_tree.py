import io
import sys

import numpy as np
import pytest

from oracle_split import exhaustive_best_split
from paydev.ml import (
    fit_tree,
    introspect,
    load_model,
    make_dataset,
    predict_proba,
    save_model,
)
from paydev import native
from paydev.ml import kernels
from paydev.ml.kernels import node_score


def _dataset(X, y, columns=None):
    columns = columns or [f"f{i}" for i in range(X.shape[1])]
    return make_dataset(X, y, columns, [str(i) for i in range(len(y))])


def _inner(tree):
    """Indices of the tree's inner (split) nodes."""
    return np.flatnonzero(np.asarray(tree.feature) >= 0)


def _depths(tree):
    """Depth of every node; parents precede their children in the arrays."""
    depth = np.zeros(len(tree.n), dtype=np.int64)
    for i in _inner(tree):
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth


class TestFit:
    def test_pure_input_single_leaf(self, rng):
        X = rng.normal(size=(30, 3))
        y = np.ones(30, dtype=int)
        with pytest.raises(Exception):
            fit_tree(_dataset(X, y))  # single class is a training error

    def test_gini_values(self):
        assert node_score(10, 5) / 10 == 0.5  # counts (5,5)
        assert node_score(8, 8) == 0.0  # pure node

    def test_simple_threshold_learned(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]] * 4)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1] * 4)
        model = fit_tree(_dataset(X, y), minsplit=2)
        assert model.root.feature[0] == 0
        assert model.root.threshold[0] == 6.5
        p = predict_proba(model, np.array([[1.0], [12.5]]))
        assert p[0] == 0.0 and p[1] == 1.0

    def test_root_split_equals_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(10, 200))
            p = int(rng.integers(1, 8))
            X = rng.normal(size=(n, p))
            y = (rng.random(n) < 0.5).astype(int)
            if len(np.unique(y)) < 2:
                continue
            model = fit_tree(_dataset(X, y), minsplit=2, cp=0.0, maxdepth=1)
            exp_f, exp_t, _ = exhaustive_best_split(X, y)
            if exp_f < 0:
                assert len(model.root.n) == 1 and model.root.feature[0] == -1
            else:
                assert model.root.feature[0] == exp_f
                assert model.root.threshold[0] == exp_t

    def test_children_sum_to_parent(self, rng):
        X = rng.normal(size=(150, 5))
        y = (X[:, 2] > 0.2).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=5, cp=0.0)
        t = model.root
        assert len(_inner(t)) > 0
        for i in _inner(t):
            assert t.n[t.left[i]] + t.n[t.right[i]] == t.n[i]
            assert t.pos[t.left[i]] + t.pos[t.right[i]] == t.pos[i]

    def test_node_arrays_form_one_tree(self, rng):
        X = rng.normal(size=(150, 5))
        y = (rng.random(150) < 0.5).astype(int)
        t = fit_tree(_dataset(X, y), minsplit=2, cp=0.0).root
        m = len(t.n)
        assert all(len(a) == m for a in (t.feature, t.threshold, t.left, t.right, t.pos))
        inner = _inner(t)
        feature, left, right = map(np.asarray, (t.feature, t.left, t.right))
        leaves = np.flatnonzero(feature < 0)
        assert (left[leaves] == -1).all() and (right[leaves] == -1).all()
        assert (left[inner] > inner).all() and (right[inner] > inner).all()
        children = np.sort(np.concatenate([left[inner], right[inner]]))
        assert np.array_equal(children, np.arange(1, m))

    def test_every_split_strictly_reduces_gini(self, rng):
        X = rng.normal(size=(120, 4))
        y = (rng.random(120) < 0.5).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=2, cp=0.0)
        t = model.root
        assert len(_inner(t)) > 0
        for i in _inner(t):
            left, right = t.left[i], t.right[i]
            parent = node_score(int(t.n[i]), int(t.pos[i]))
            child = node_score(int(t.n[left]), int(t.pos[left])) + node_score(
                int(t.n[right]), int(t.pos[right])
            )
            assert child < parent

    def test_minsplit_respected(self, rng):
        X = rng.normal(size=(100, 3))
        y = (rng.random(100) < 0.5).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=25, cp=0.0)
        t = model.root
        assert len(_inner(t)) > 0
        for i in _inner(t):
            assert t.n[i] >= 25

    def test_maxdepth_respected(self, rng):
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.5).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=2, cp=0.0, maxdepth=2)
        assert _depths(model.root).max() <= 2

    def test_cp_prunes_useless_splits(self, rng):
        # pure-noise labels: no split cuts misclassification by 1% of root
        X = rng.normal(size=(200, 4))
        y = np.array([0, 1] * 100)
        model = fit_tree(_dataset(X, y), minsplit=2, cp=0.01)
        full = fit_tree(_dataset(X, y), minsplit=2, cp=0.0)
        n_pruned = len(model.root.n)
        n_full = len(full.root.n)
        assert n_pruned < n_full

    def test_scaling_feature_preserves_predictions(self, rng):
        X = rng.normal(size=(120, 4))
        y = (X[:, 1] + 0.3 * rng.normal(size=120) > 0).astype(int)
        base = fit_tree(_dataset(X, y), minsplit=5)
        scaled = X.copy()
        scaled[:, 1] *= 1000.0
        other = fit_tree(_dataset(scaled, y), minsplit=5)
        Xt = rng.normal(size=(50, 4))
        Xt_scaled = Xt.copy()
        Xt_scaled[:, 1] *= 1000.0
        assert np.array_equal(predict_proba(base, Xt), predict_proba(other, Xt_scaled))


class TestPredict:
    def test_single_leaf_constant(self, rng):
        # minsplit larger than n forces a single leaf
        X = rng.normal(size=(10, 2))
        y = np.array([1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
        model = fit_tree(_dataset(X, y), minsplit=50)
        assert len(model.root.n) == 1 and model.root.feature[0] == -1
        p = predict_proba(model, rng.normal(size=(7, 2)))
        assert np.allclose(p, 0.8)

    def test_probabilities_in_unit_interval(self, rng):
        X = rng.normal(size=(80, 3))
        y = (rng.random(80) < 0.3).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=5)
        p = predict_proba(model, rng.normal(size=(300, 3)) * 10)
        assert all(0 <= v <= 1 for v in p)


class TestIntrospect:
    def test_root_split_named(self, rng):
        X = rng.normal(size=(100, 2))
        y = (X[:, 1] > 0).astype(int)
        model = fit_tree(_dataset(X, y, columns=["other", "weekend"]), minsplit=5)
        assert model.columns[model.nodes.feature[0]] == "weekend"
        assert "weekend" in introspect(model).splitlines()[1]

    def test_single_leaf_report(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.array([1] * 8 + [0, 0])
        model = fit_tree(_dataset(X, y), minsplit=50)
        report = introspect(model)
        assert len(report.splitlines()) == 2
        assert "volunteer 0.200" in report

    def test_report_has_ratio_and_share(self, rng):
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=5)
        assert "100.0%" in introspect(model).splitlines()[1]


class TestSerialize:
    def test_round_trip_exact(self, rng):
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] > 0).astype(int)
        model = fit_tree(_dataset(X, y), minsplit=5)
        buf = io.StringIO()
        save_model(model, buf)
        loaded = load_model(io.StringIO(buf.getvalue()))
        again = io.StringIO()
        save_model(loaded, again)
        assert buf.getvalue() == again.getvalue()
        Xt = rng.normal(size=(30, 4))
        assert np.array_equal(predict_proba(model, Xt), predict_proba(loaded, Xt))


class TestDeepTree:
    def test_deep_tree_round_trips_predicts_and_introspects(self):
        # labels alternate along one feature, so every split peels off one
        # row: the tree is ~3,000 levels deep, past the recursion limit
        n = 3000
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = np.arange(n) % 2
        model = fit_tree(_dataset(X, y), minsplit=2, cp=0.0, maxdepth=None)
        assert _depths(model.root).max() > sys.getrecursionlimit()
        buf = io.StringIO()
        save_model(model, buf)
        loaded = load_model(io.StringIO(buf.getvalue()))
        assert np.array_equal(predict_proba(loaded, X), y)
        lines = introspect(loaded).splitlines()
        assert len(lines) == 1 + len(model.root.n)

    @pytest.mark.skipif(native.BACKEND != "c", reason="compiled grower not in use")
    def test_deep_tree_grows_in_one_compiled_call(self, monkeypatch):
        n = 3000
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = np.arange(n) % 2
        calls, grow = [], native.grow_forest
        monkeypatch.setattr(native, "grow_forest", lambda *a, **k: calls.append(a) or grow(*a, **k))
        monkeypatch.setattr(kernels, "best_split", None)  # no per-node Python search
        model = fit_tree(_dataset(X, y), minsplit=2, cp=0.0, maxdepth=None)
        assert len(calls) == 1
        assert len(model.root.n) == 2 * n - 1
        assert _depths(model.root).max() == n - 1
