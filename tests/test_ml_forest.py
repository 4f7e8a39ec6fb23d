import io
import json
from array import array
from dataclasses import is_dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from paydev.errors import ColumnMismatchError, SchemaError
from paydev import native
from paydev.ml import kernels
from paydev.ml import (
    fit_forest,
    fit_logit,
    fit_tree,
    introspect,
    load_model,
    make_dataset,
    predict_proba,
    save_model,
)
from paydev.ml.kernels import tree_proba
from paydev.model import TREE_ARRAYS, ForestModel, join_trees
from paydev.model import predict_proba as score_rows


def _dataset(X, y, columns=None):
    columns = columns or [f"f{i}" for i in range(X.shape[1])]
    return make_dataset(X, y, columns, [str(i) for i in range(len(y))])


def _separable(rng, n=400):
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


class TestFit:
    def test_degenerate_forest_equals_tree(self, rng):
        X = rng.normal(size=(150, 4))
        y = (X[:, 1] > 0.3).astype(int)
        data = _dataset(X, y)
        forest = fit_forest(data, n_trees=1, mtry=4, seed=3, bootstrap=False)
        tree = fit_tree(data, minsplit=2, cp=0.0, maxdepth=None)
        Xt = rng.normal(size=(60, 4))
        assert np.array_equal(predict_proba(forest, Xt), predict_proba(tree, Xt))

    def test_same_seed_bitwise_identical(self, rng):
        X, y = _separable(rng, 200)
        data = _dataset(X, y)
        Xt = rng.normal(size=(40, 2))
        a = predict_proba(fit_forest(data, n_trees=20, seed=11), Xt)
        b = predict_proba(fit_forest(data, n_trees=20, seed=11), Xt)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, rng):
        X, y = _separable(rng, 200)
        data = _dataset(X, y)
        Xt = rng.normal(size=(40, 2))
        a = predict_proba(fit_forest(data, n_trees=20, seed=11), Xt)
        b = predict_proba(fit_forest(data, n_trees=20, seed=12), Xt)
        assert not np.array_equal(a, b)

    def test_holdout_auc_on_separable_data(self, rng):
        from paydev.evaluation import roc_auc

        X, y = _separable(rng, 400)
        train = _dataset(X[:300], y[:300])
        model = fit_forest(train, n_trees=60, seed=7)
        scores = predict_proba(model, X[300:])
        assert roc_auc(scores, y[300:]) >= 0.95

    def test_mean_of_tree_probabilities(self, rng):
        # two stumps with different leaf probabilities average per row
        X = rng.normal(size=(50, 2))
        y = (rng.random(50) < 0.4).astype(int)
        data = _dataset(X, y)
        model = fit_forest(data, n_trees=2, seed=1)
        Xt = rng.normal(size=(10, 2))
        expected = (tree_proba(model.trees[0], Xt) + tree_proba(model.trees[1], Xt)) / 2
        assert np.array_equal(predict_proba(model, Xt), expected)

    def test_mtry_default_sqrt(self, rng):
        X = rng.normal(size=(60, 9))
        y = (rng.random(60) < 0.5).astype(int)
        model = fit_forest(_dataset(X, y), n_trees=3, seed=1)
        assert model.mtry == 3

    def test_mtry_bounds(self, rng):
        X, y = _separable(rng, 50)
        with pytest.raises(SchemaError):
            fit_forest(_dataset(X, y), n_trees=2, mtry=3, seed=1)

    def test_scaling_feature_preserves_predictions(self, rng):
        X, y = _separable(rng, 200)
        data = _dataset(X, y)
        scaled = X.copy()
        scaled[:, 0] *= 250.0
        other = _dataset(scaled, y)
        Xt = rng.normal(size=(40, 2))
        Xt_scaled = Xt.copy()
        Xt_scaled[:, 0] *= 250.0
        a = predict_proba(fit_forest(data, n_trees=15, seed=2), Xt)
        b = predict_proba(fit_forest(other, n_trees=15, seed=2), Xt_scaled)
        assert np.array_equal(a, b)


needs_grower = pytest.mark.skipif(native.BACKEND != "c", reason="compiled grower not in use")


def _same_forest(a, b):
    assert a.importance.tobytes() == b.importance.tobytes()
    for ta, tb in zip(a.trees, b.trees, strict=True):
        for key in TREE_ARRAYS:
            assert getattr(ta, key).tobytes() == getattr(tb, key).tobytes(), key


def _use_twins(monkeypatch):
    """Fit through kernels' numpy twins of impute_median, grow_forest and
    seed_state."""
    for name in ("impute_median", "grow_forest", "seed_state"):
        monkeypatch.setattr(native, name, getattr(kernels, f"{name}_py"))


class TestCompiledGrower:
    @needs_grower
    def test_one_compiled_call_per_forest(self, rng, monkeypatch):
        X, y = _separable(rng, n=300)
        calls = []
        grow = native.grow_forest
        monkeypatch.setattr(native, "grow_forest", lambda *a, **k: calls.append(a) or grow(*a, **k))
        monkeypatch.setattr(kernels, "best_split", None)  # no per-node Python search
        model = fit_forest(_dataset(X, y), n_trees=7, seed=2)
        assert len(calls) == 1
        monkeypatch.undo()
        _use_twins(monkeypatch)
        _same_forest(model, fit_forest(_dataset(X, y), n_trees=7, seed=2))

    @needs_grower
    @pytest.mark.parametrize("mtry, compiled", [(200, True), (300, False)])
    def test_wide_forest_matches_python_grower(self, rng, monkeypatch, mtry, compiled):
        """p = 10,001: numpy's choice uses Floyd's algorithm up to mtry
        p // 50 = 200, which the compiled grower repeats; above that numpy
        shuffles a range, and the compiled grower declines the forest to the
        numpy twin."""
        X = rng.normal(size=(8, 10_001))
        y = np.array([0, 1] * 4)
        declined, twin = [], kernels.grow_forest_py
        monkeypatch.setattr(kernels, "grow_forest_py",
                            lambda *a, **k: declined.append(a) or twin(*a, **k))
        model = fit_forest(_dataset(X, y), n_trees=3, mtry=mtry, seed=5)
        assert len(declined) == (0 if compiled else 1)
        monkeypatch.undo()
        _use_twins(monkeypatch)
        _same_forest(model, fit_forest(_dataset(X, y), n_trees=3, mtry=mtry, seed=5))


def _loop_sum(trees, X):
    """The tree_proba loop that paydev.model.predict_proba replaces."""
    total = np.zeros(len(X))
    for tree in trees:
        total += tree_proba(tree, X)
    return total


def _leaf(n, pos):
    return join_trees([([-1], [0.0], [-1], [-1], [n], [pos])])


def _forest(trees, impute):
    """A forest of the one-tree tables `trees`, joined into one table."""
    p = len(impute)
    return ForestModel(nodes=join_trees([getattr(t, key) for key in TREE_ARRAYS] for t in trees),
                       columns=[f"f{j}" for j in range(p)], impute=impute, mtry=p, seed=0,
                       bootstrap=False, importance=array("d", [0.0]) * p)


@pytest.mark.skipif(kernels.BACKEND != "c", reason="compiled kernel not built")
class TestForestSum:
    """paydev.model.predict_proba, which imputes as it walks, gives the bytes
    of the tree_proba loop over the matrix with its NaNs filled first,
    divided by the number of trees."""

    def _score(self, trees, X, impute=None):
        impute = array("d", [0.0]) * X.shape[1] if impute is None else impute
        forest = _forest(trees, impute)
        return score_rows(forest, array("d", X.tobytes()), len(X), forest.columns)

    def _assert_same(self, trees, X, impute=None):
        filled = X if impute is None else np.where(np.isnan(X), np.asarray(impute), X)
        expected = _loop_sum(trees, filled) / len(trees)
        assert self._score(trees, X, impute).tobytes() == expected.tobytes()

    def test_fitted_forests_and_zero_rows(self, rng):
        X, y = _separable(rng, n=200)
        for n_trees in (1, 25):
            model = fit_forest(_dataset(X, y), n_trees=n_trees, seed=3)
            for Xt in (X, rng.normal(size=(300, 2)) * 3, np.empty((0, 2))):
                self._assert_same(model.trees, Xt)

    def test_single_leaf_trees_between_grown_ones(self, rng):
        X, y = _separable(rng, n=100)
        grown = fit_forest(_dataset(X, y), n_trees=3, seed=1).trees
        self._assert_same([_leaf(7, 3), grown[0], _leaf(5, 0), _leaf(4, 4), *grown[1:]], X)
        self._assert_same([_leaf(3, 1)], X)

    def test_rows_exactly_on_thresholds(self, rng):
        X = rng.integers(0, 6, size=(150, 3)).astype(np.float64)
        y = (X.sum(axis=1) + rng.integers(0, 4, size=150) > 9).astype(int)
        model = fit_forest(_dataset(X, y), n_trees=10, seed=2)
        thresholds = np.concatenate([np.asarray(t.threshold)[np.asarray(t.feature) >= 0]
                                     for t in model.trees])
        assert len(thresholds)
        on = np.repeat(thresholds, 3).reshape(-1, 3)  # every feature on each threshold
        on[::2, 1] = np.nextafter(on[::2, 1], -np.inf)
        self._assert_same(model.trees, np.vstack([on, X]))

    def test_imputed_rows(self, rng):
        X, y = _separable(rng, n=200)
        model = fit_forest(_dataset(X, y), n_trees=15, seed=4)
        Xt = rng.normal(size=(60, 2))
        Xt[::3, 0] = np.nan
        Xt[::4, 1] = np.nan
        self._assert_same(model.trees, Xt, model.impute)
        filled = np.where(np.isnan(Xt), np.asarray(model.impute), Xt)
        expected = _loop_sum(model.trees, filled) / model.n_trees
        assert predict_proba(model, Xt).tobytes() == expected.tobytes()

    def test_nan_imputed_onto_a_threshold_goes_left(self):
        stump = join_trees([([0, -1, -1], [1.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                             [4, 2, 2], [2, 0, 2])])
        X = np.array([[np.nan], [1.5], [np.nextafter(1.5, 2.0)]])
        assert self._score([stump], X, array("d", [1.5])).tolist() == [0.0, 0.0, 1.0]
        self._assert_same([stump], X, array("d", [1.5]))

    def test_all_nan_row_scores_as_the_imputed_row(self, rng):
        X, y = _separable(rng, n=200)
        model = fit_forest(_dataset(X, y), n_trees=15, seed=4)
        Xt = np.array([[np.nan, np.nan], list(model.impute)])
        self._assert_same(model.trees, Xt, model.impute)
        a, b = self._score(model.trees, Xt, model.impute)
        assert a == b

    def test_library_reads_the_models_own_arrays(self, rng, monkeypatch):
        """native.forest_sum copies and joins nothing: the library gets the
        addresses of the node table's own arrays, for a fitted forest and a
        loaded one."""
        X, y = _separable(rng, n=100)
        fitted = fit_forest(_dataset(X, y), n_trees=4, seed=1)
        buf = io.StringIO()
        save_model(fitted, buf)
        calls, lib = [], native.lib
        monkeypatch.setattr(native, "lib", SimpleNamespace(
            forest_sum=lambda *args: calls.append(args) or lib.forest_sum(*args)))
        for model in (fitted, load_model(io.StringIO(buf.getvalue()))):
            expected = score_rows(model, array("d", X.tobytes()), len(X), model.columns)
            addresses = [column.buffer_info()[0] for column in vars(model.nodes).values()]
            assert len(addresses) == 7 and set(addresses) <= set(calls[-1])
            assert expected.tobytes() == predict_proba(model, X).tobytes()

    @pytest.mark.parametrize("damage", ["back", "self", "past_end", "feature"])
    def test_malformed_tree_rejected(self, rng, damage):
        X, y = _separable(rng, n=100)
        tree = fit_forest(_dataset(X, y), n_trees=1, seed=1).trees[0]
        inner = int(np.flatnonzero(np.asarray(tree.feature) >= 0)[-1])
        if damage == "feature":
            tree.feature[inner] = 2
        else:
            tree.left[inner] = {"back": 0, "self": inner, "past_end": len(tree.n)}[damage]
        with pytest.raises(ValueError):
            self._score([_leaf(2, 1), tree], X)


class TestPredictContract:
    def test_column_mismatch_names_columns(self, rng):
        X, y = _separable(rng, 60)
        model = fit_forest(_dataset(X, y, columns=["a", "b"]), n_trees=2, seed=1)
        with pytest.raises(ColumnMismatchError) as exc:
            score_rows(model, array("d", rng.normal(size=(5, 3)).tobytes()), 5, ["a", "b", "c"])
        assert "c" in str(exc.value)

    def test_column_reorder_allowed(self, rng):
        X, y = _separable(rng, 60)
        model = fit_forest(_dataset(X, y, columns=["a", "b"]), n_trees=2, seed=1)
        Xt = rng.normal(size=(5, 2))
        direct = score_rows(model, array("d", Xt.tobytes()), 5, ["a", "b"])
        swapped = score_rows(model, array("d", Xt[:, [1, 0]].tobytes()), 5, ["b", "a"])
        assert np.array_equal(direct, swapped)

    def test_probabilities_in_unit_interval(self, rng):
        X, y = _separable(rng, 100)
        model = fit_forest(_dataset(X, y), n_trees=10, seed=1)
        p = predict_proba(model, rng.normal(size=(200, 2)) * 5)
        assert all(0 <= v <= 1 for v in p)


class TestIntrospectAndSerialize:
    def test_importance_ranks_informative_feature(self, rng):
        X = rng.normal(size=(300, 3))
        y = (X[:, 2] > 0).astype(int)
        model = fit_forest(_dataset(X, y, columns=["n1", "n2", "signal"]),
                           n_trees=30, seed=4)
        report = introspect(model)
        assert report.splitlines()[1].strip().startswith("signal")

    def test_tied_importance_ranks_in_column_order(self, rng):
        """Two constant columns have importance 0.0 each; they rank after
        the informative one, the lower column first."""
        X = np.column_stack([np.ones(100), rng.normal(size=100), np.zeros(100)])
        y = (X[:, 1] > 0).astype(int)
        model = fit_forest(_dataset(X, y, columns=["z_const", "signal", "a_const"]),
                           n_trees=10, seed=1)
        assert model.importance.tolist()[::2] == [0.0, 0.0]
        lines = introspect(model).splitlines()[1:]
        assert [line.split()[0] for line in lines] == ["signal", "z_const", "a_const"]

    def test_round_trip_exact(self, rng):
        """A saved and loaded forest writes the same bytes, predicts the same
        and holds the fitted node table byte for byte, also with single-leaf
        trees (bootstraps that drew one class) between grown ones."""
        X, y = _separable(rng, 80)
        few = _dataset(rng.normal(size=(6, 2)), np.array([0, 0, 0, 0, 0, 1]))
        leafy = fit_forest(few, n_trees=12, seed=1)
        sizes = np.diff(leafy.nodes.roots)
        assert any(sizes[:t].max() > 1 and sizes[t + 1:].max() > 1
                   for t in np.flatnonzero(sizes == 1) if 0 < t < len(sizes) - 1)
        for model in (fit_forest(_dataset(X, y), n_trees=5, seed=9), leafy):
            buf = io.StringIO()
            save_model(model, buf)
            loaded = load_model(io.StringIO(buf.getvalue()))
            again = io.StringIO()
            save_model(loaded, again)
            assert buf.getvalue() == again.getvalue()
            for key, column in vars(model.nodes).items():
                assert getattr(loaded.nodes, key).typecode == column.typecode, key
                assert getattr(loaded.nodes, key).tobytes() == column.tobytes(), key
            Xt = rng.normal(size=(25, 2))
            assert np.array_equal(predict_proba(model, Xt), predict_proba(loaded, Xt))


@pytest.mark.parametrize("fit", [lambda data: fit_tree(data, minsplit=2, cp=0.0),
                                 lambda data: fit_forest(data, n_trees=3, seed=1)],
                         ids=["tree", "forest"])
def test_save_refuses_what_load_rejects(fit):
    """A column whose two middle values are -inf and inf imputes NaN, which
    load_model rejects: save_model raises ValueError and writes nothing."""
    X = np.array([[-np.inf, 0.0], [np.inf, 1.0], [np.nan, 2.0], [np.nan, 3.0]])
    model = fit(_dataset(X, np.array([0, 1, 0, 1])))
    assert np.isnan(model.impute[0])
    buf = io.StringIO()
    with pytest.raises(ValueError):
        save_model(model, buf)
    assert buf.getvalue() == ""


def _layout(value):
    """The types a model object is made of: each array's typecode, each
    dataclass's fields and a list's first element, recursively."""
    if isinstance(value, array):
        return "array", value.typecode
    if is_dataclass(value):
        return type(value).__name__, {k: _layout(v) for k, v in vars(value).items()}
    if isinstance(value, list):
        return [_layout(v) for v in value[:1]]
    return type(value).__name__


def test_fitted_and_loaded_models_are_one_representation(rng):
    """fit_* and load_model give models of the same types, down to each node
    array and vector: one representation for evaluate and predict."""
    X, y = _separable(rng, 80)
    data = _dataset(X, y)
    for model in (fit_logit(data), fit_tree(data), fit_forest(data, n_trees=3, seed=1)):
        buf = io.StringIO()
        save_model(model, buf)
        loaded = load_model(io.StringIO(buf.getvalue()))
        assert _layout(loaded) == _layout(model)
        assert "ndarray" not in repr(_layout(model))


def test_saved_bytes_are_one_json_dumps(rng):
    """save_model writes json.dumps of the model object and a line feed, the
    bytes json.dump writes, for each model kind."""
    X, y = _separable(rng, 80)
    data = _dataset(X, y)
    for model in (fit_logit(data), fit_tree(data), fit_forest(data, n_trees=3, seed=1)):
        buf = io.StringIO()
        save_model(model, buf)
        obj = json.loads(buf.getvalue())
        streamed = io.StringIO()
        json.dump(obj, streamed)
        assert buf.getvalue() == json.dumps(obj) + "\n" == streamed.getvalue() + "\n"
