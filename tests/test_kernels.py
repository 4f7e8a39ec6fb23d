import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle_split import exhaustive_best_split
from paydev.ml import kernels
from paydev.model import TREE_ARRAYS, Tree

SRC = Path(__file__).resolve().parent.parent / "src"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
needs_grower = pytest.mark.skipif(kernels.grower() is None, reason="compiled grower not in use")


def _grow(X, y, idx, **params):
    """kernels.grow_tree over X and y, as (Tree, importance)."""
    arrays, importance = kernels.grow_tree(kernels.Presorted(X, y), idx, **params)
    return Tree(*arrays), importance


def _random_problem(rng, n=None, p=None, duplicates=False):
    n = n or int(rng.integers(5, 200))
    p = p or int(rng.integers(1, 8))
    if duplicates:
        X = rng.integers(0, 5, size=(n, p)).astype(np.float64)
    else:
        X = rng.normal(size=(n, p))
    X = np.ascontiguousarray(X)
    y = (rng.random(n) < 0.5).astype(np.int8)
    return X, y


@needs_cc
def test_compiled_backend_available():
    assert kernels.BACKEND == "c", "compiled kernel should be built"
    assert kernels.grower() is not None, "the C feature draw should match numpy's"


class TestOracle:
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_exhaustive_search(self, rng, duplicates):
        for _ in range(60):
            X, y = _random_problem(rng, duplicates=duplicates)
            idx = np.arange(len(y), dtype=np.int64)
            feats = np.arange(X.shape[1], dtype=np.int64)
            got_f, got_t, got_s = kernels.best_split(X, y, idx, feats)
            exp_f, exp_t, exp_s = exhaustive_best_split(X, y)
            assert got_f == exp_f
            if got_f >= 0:
                assert got_t == exp_t
                assert got_s == exp_s

    def test_subset_of_rows(self, rng):
        X, y = _random_problem(rng, n=80, p=4)
        idx = np.sort(rng.choice(80, size=40, replace=False)).astype(np.int64)
        feats = np.arange(4, dtype=np.int64)
        got = kernels.best_split(X, y, idx, feats)
        exp = exhaustive_best_split(X[idx], y[idx])
        assert got == exp

    def test_constant_feature_no_split(self):
        X = np.ascontiguousarray(np.ones((10, 2)))
        y = np.array([0, 1] * 5, dtype=np.int8)
        f, _, _ = kernels.best_split(
            X, y, np.arange(10, dtype=np.int64), np.arange(2, dtype=np.int64)
        )
        assert f == -1

    def test_pure_node_no_improving_split(self, rng):
        X = np.ascontiguousarray(rng.normal(size=(20, 3)))
        y = np.ones(20, dtype=np.int8)
        f, _, _ = kernels.best_split(
            X, y, np.arange(20, dtype=np.int64), np.arange(3, dtype=np.int64)
        )
        assert f == -1


class TestBackendEquivalence:
    def test_node_score_shared(self):
        assert kernels.node_score(10, 5) == 5.0  # 10 * gini(0.5) = 10 * 0.5
        assert kernels.node_score(7, 0) == 0.0

    @staticmethod
    def _root_splits(X, y):
        """(feature, threshold) at the root from the numpy search and from a
        depth-1 CART grown by the active grower (the compiled one with cc)."""
        idx, feats = np.arange(len(y), dtype=np.int64), np.arange(X.shape[1], dtype=np.int64)
        f, t, _ = kernels.best_split(X, y, idx, feats)
        root, _ = _grow(X, y, idx, minsplit=2, cp=0.0, maxdepth=1)
        return [(f, t), (root.feature[0], root.threshold[0])]

    def test_tiebreak_lowest_feature_and_threshold(self):
        # two identical columns: both give the same score, feature 0 must win
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.ascontiguousarray(np.column_stack([col, col]))
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        assert self._root_splits(X, y) == [(0, 1.5)] * 2

    def test_symmetric_ties_take_lowest_threshold(self):
        # y = 1,0,0,1 on x = 0,1,2,3: splits at 0.5 and 2.5 score equally
        X = np.ascontiguousarray([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 1], dtype=np.int8)
        assert self._root_splits(X, y) == [(0, 0.5)] * 2


def _c_grow(X, y, idx, mtry=2):
    """One tree straight from the compiled grower, every feature searched."""
    return kernels._c_grow_tree(kernels.Presorted(X, y), idx, 2, 0.0, None, mtry, None)


def _grow_both(monkeypatch, X, y, idx, seed, **params):
    """grow_tree with the compiled grower and with the Python one, each with
    a fresh Generator from `seed` (None: no Generator); returns both results
    and, per grower, the Generator's next draw after the tree."""
    results, next_draws = [], []
    for grower in (kernels.grower(), None):
        monkeypatch.setattr(kernels, "grower", lambda: grower)
        rng = None if seed is None else np.random.default_rng(seed)
        results.append(_grow(X, y, idx, rng=rng, **params))
        next_draws.append(None if rng is None else rng.integers(2**62))
    return results, next_draws


def _assert_same_tree(a, b):
    """Bit-identical node arrays and importances."""
    (tree_a, imp_a), (tree_b, imp_b) = a, b
    for key in TREE_ARRAYS:
        x, y = getattr(tree_a, key), getattr(tree_b, key)
        assert x.typecode == y.typecode and x.tobytes() == y.tobytes(), key
    assert imp_a.tobytes() == imp_b.tobytes()


@needs_grower
class TestGrowerEquivalence:
    def test_forest_trees_bit_identical(self, rng, monkeypatch):
        for trial in range(150):
            X, y = _random_problem(rng, duplicates=trial % 3 == 0)
            n, p = X.shape
            if trial % 5 == 0:
                y[:] = trial % 2  # single-class root
            idx = np.sort(rng.integers(0, n, size=n)).astype(np.int64)
            for mtry in range(1, p + 1):
                results, draws = _grow_both(monkeypatch, X, y, idx, seed=trial, minsplit=2,
                                            cp=0.0, maxdepth=None, mtry=mtry)
                _assert_same_tree(*results)
                assert draws[0] == draws[1], (trial, mtry)

    def test_cart_trees_bit_identical(self, rng, monkeypatch):
        for trial in range(150):
            X, y = _random_problem(rng, duplicates=trial % 2 == 0, p=1 if trial % 7 == 0 else None)
            idx = np.arange(len(y), dtype=np.int64)
            params = dict(minsplit=int(rng.integers(1, 30)),
                          cp=float(rng.choice([0.0, 0.001, 0.01, 0.05, 0.2])),
                          maxdepth=[None, 0, 1, 2, 5, 30][trial % 6])
            results, _ = _grow_both(monkeypatch, X, y, idx, seed=None, **params)
            _assert_same_tree(*results)

    def test_many_rows_and_features(self, rng, monkeypatch):
        X, y = _random_problem(rng, n=3000, p=40, duplicates=True)
        idx = np.sort(rng.integers(0, 3000, size=3000)).astype(np.int64)
        results, draws = _grow_both(monkeypatch, X, y, idx, seed=9, minsplit=2, cp=0.0,
                                    maxdepth=None, mtry=6)
        _assert_same_tree(*results)
        assert draws[0] == draws[1]

    def test_empty_and_one_row(self, monkeypatch):
        X, y = np.ones((3, 2)), np.array([0, 1, 0], dtype=np.int8)
        for idx in ([], [1]):
            results, _ = _grow_both(monkeypatch, X, y, np.array(idx, dtype=np.int64), seed=1,
                                    minsplit=2, cp=0.0, maxdepth=None, mtry=1)
            _assert_same_tree(*results)
            assert len(results[0][0].n) == 1

    def test_tie_heavy_bootstrap_trees_bit_identical(self, rng, monkeypatch):
        """Few distinct values (signed zeros among them), constant columns and
        bootstrap duplicates: the presorted search sees equal values in
        another order than a per-node sort, and must still grow the same
        trees."""
        values = np.array([-0.0, 0.0, 1.0, 2.0])
        for trial in range(40):
            n, p = int(rng.integers(20, 400)), int(rng.integers(2, 7))
            X = np.ascontiguousarray(values[rng.integers(0, 4, size=(n, p))])
            X[:, trial % p] = 1.0
            y = ((X.sum(axis=1) + rng.integers(0, 3, size=n)) > p + 1).astype(np.int8)
            idx = np.sort(rng.integers(0, n, size=n)).astype(np.int64)
            for mtry in (1, p // 2 + 1, p):
                results, draws = _grow_both(monkeypatch, X, y, idx, seed=trial, minsplit=2,
                                            cp=0.0, maxdepth=None, mtry=mtry)
                _assert_same_tree(*results)
                assert draws[0] == draws[1], (trial, mtry)

    def test_midpoint_rounding_to_the_upper_value_splits_at_the_lower(self, monkeypatch):
        """Between 1 + 2**-52 and the next double the midpoint rounds up to
        the upper value, so `<=` at the midpoint would send every row left.
        Both growers split at the lower value instead, so that the two values
        are separated and every node holds rows."""
        a, b = 1 + 2.0**-52, 1 + 2.0**-51
        assert (a + b) / 2 == b
        for values, labels in (([a, b], [0, 1]), ([a, b, 2.0], [0, 1, 0])):
            X = np.repeat(values, 20).reshape(-1, 1)
            y = np.repeat(labels, 20).astype(np.int8)
            idx = np.arange(len(y), dtype=np.int64)
            for maxdepth in (5, None):
                results, _ = _grow_both(monkeypatch, X, y, idx, seed=None, minsplit=2, cp=0.0,
                                        maxdepth=maxdepth)
                _assert_same_tree(*results)
                grown = results[0][0]
                assert min(grown.n) > 0
                assert len(grown.n) == 2 * len(values) - 1
                assert grown.threshold[0] == a

    def test_out_of_range_rows_rejected(self):
        X, y = np.ones((4, 2)), np.zeros(4, dtype=np.int8)
        with pytest.raises(IndexError):
            _c_grow(X, y, np.array([0, 4], dtype=np.int64))

    @pytest.mark.parametrize("bad", ["X", "y", "idx"])
    def test_bad_arrays_rejected(self, bad):
        args = {"X": np.ones((4, 2)), "y": np.zeros(4, dtype=np.int8),
                "idx": np.arange(4, dtype=np.int64)}
        args[bad] = args[bad].astype(np.float32)
        with pytest.raises(TypeError):
            _c_grow(args["X"], args["y"], args["idx"])

    @pytest.mark.parametrize("entry", [4, -1, 2])
    def test_bad_presorted_order_rejected(self, entry):
        """An order entry past either end, or one that makes a feature's
        order no permutation of the rows (row 2 twice), is refused."""
        X, y = np.ascontiguousarray([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]), \
            np.array([0, 1, 0, 1], dtype=np.int8)
        rows = kernels.Presorted(X, y)
        order = rows.arrays[2]
        assert order.tolist() == [[0, 1, 2, 3], [3, 2, 1, 0]]
        order[1, 0] = entry  # the addresses in rows.args see the change
        with pytest.raises(IndexError):
            kernels._c_grow_tree(rows, np.arange(4, dtype=np.int64), 2, 0.0, None, 2, None)

    def test_labels_other_than_0_and_1_rejected(self):
        X, y = np.ones((4, 2)), np.array([0, 1, 2, 0], dtype=np.int8)
        with pytest.raises(ValueError):
            _c_grow(X, y, np.arange(4, dtype=np.int64))


@pytest.mark.parametrize("a, b", [(-1.5e308, -1e308), (1e308, np.inf)])
def test_overflowing_midpoint_splits_at_the_lower(monkeypatch, a, b):
    """(a + b) / 2 is -inf when the sum overflows and inf when b is;
    neither lies between a and b, so both growers split at a. At the
    midpoint every row went right: the Python grower never ended and the
    compiled one wrote past its node arrays. Without a compiled grower,
    both trees grow in Python."""
    X = np.repeat([[a, a], [b, b]], 20, axis=0)
    y = np.repeat([0, 1], 20).astype(np.int8)
    idx = np.arange(40, dtype=np.int64)
    feats = np.arange(2, dtype=np.int64)
    assert kernels.best_split(X, y, idx, feats) == exhaustive_best_split(X, y) == (0, a, 0.0)
    for seed, mtry in ((None, None), (3, 1)):
        results, draws = _grow_both(monkeypatch, X, y, idx, seed=seed, minsplit=2, cp=0.0,
                                    maxdepth=None, mtry=mtry)
        _assert_same_tree(*results)
        assert draws[0] == draws[1]
        grown = results[0][0]
        assert grown.n.tolist() == [40, 20, 20] and grown.threshold[0] == a


@needs_grower
@pytest.mark.parametrize("X", [
    np.asfortranarray(np.ones((4, 2))),
    np.ones((4, 4))[:, ::2],
    np.ones((4, 2), dtype=np.float32),
])
def test_c_kernel_rejects_bad_arrays(X):
    y = np.zeros(4, dtype=np.int8)
    with pytest.raises(TypeError):
        _c_grow(X, y, np.arange(4, dtype=np.int64))


@needs_grower
@pytest.mark.parametrize("idx, feats", [([0, 4], [0, 1]), ([-1, 0], [0])])
def test_c_kernel_rejects_out_of_range_indices(idx, feats):
    """A row index past either end is refused, whatever columns X keeps."""
    X = np.ascontiguousarray(np.ones((4, 2))[:, feats])
    y = np.zeros(4, dtype=np.int8)
    with pytest.raises(IndexError):
        _c_grow(X, y, np.array(idx, dtype=np.int64), mtry=1)


@needs_cc
def test_c_choice_matches_generator_choice():
    draws = [(1, 1), (2, 1), (2, 2), (5, 5), (10_000, 10_000), (10_001, 200), (60_000, 1_000)]
    draws += [(p, k) for p in range(1, 41) for k in range(0, p + 1)]
    for seed, (p, k) in enumerate(draws):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = kernels._c_choice(a, p, k)
        assert got.tolist() == b.choice(p, k, replace=False).tolist(), (p, k)
        assert a.integers(2**62) == b.integers(2**62), (p, k)


@needs_cc
def test_c_choice_differs_where_numpy_shuffles_a_range():
    """p > 10,000 and k > p // 50: numpy shuffles a whole range, which the C
    draw does not repeat, so grow_tree keeps such forests in Python."""
    a, b = np.random.default_rng(0), np.random.default_rng(0)
    assert kernels._c_choice(a, 10_001, 201).tolist() != b.choice(10_001, 201,
                                                                replace=False).tolist()


@needs_grower
def test_draw_disagreement_falls_back_to_python_grower(rng, monkeypatch):
    compiled = kernels.grower()
    monkeypatch.setattr(kernels, "_c_choice", lambda g, p, k: np.arange(k, dtype=np.int64))
    monkeypatch.setattr(kernels, "grower", kernels.grower.__wrapped__)  # check afresh
    assert kernels.grower() is None
    calls, search = [], kernels.best_split
    monkeypatch.setattr(kernels, "best_split", lambda *a: calls.append(a) or search(*a))
    X, y = _random_problem(rng, n=60, p=5)
    idx = np.arange(60, dtype=np.int64)
    params = dict(minsplit=2, cp=0.0, maxdepth=None, mtry=2)
    fallback = _grow(X, y, idx, rng=np.random.default_rng(4), **params)
    assert calls  # the Python grower searches node by node
    monkeypatch.setattr(kernels, "grower", lambda: compiled)
    _assert_same_tree(fallback, _grow(X, y, idx, rng=np.random.default_rng(4), **params))


def _python(args, home, path, cwd):
    """Run a fresh interpreter with HOME and PATH replaced."""
    env = dict(os.environ, HOME=str(home), PATH=path, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


PRINT_BACKEND = ["-c", "from paydev.ml import kernels; print(kernels.BACKEND)"]


@needs_cc
def test_built_kernel_reused_without_compiler(tmp_path):
    home, no_cc = tmp_path / "home", tmp_path / "empty-bin"
    no_cc.mkdir()
    first = _python(PRINT_BACKEND, home, os.environ["PATH"], tmp_path)
    assert first.stdout.strip() == "c", first.stderr
    assert len(list((home / ".cache" / "paydev").glob("split-*.so"))) == 1
    second = _python(PRINT_BACKEND, home, str(no_cc), tmp_path)
    assert second.stdout.strip() == "c", second.stderr


@needs_cc
def test_python_fallback_without_compiler_gives_same_bytes(tmp_path):
    no_cc = tmp_path / "empty-bin"
    no_cc.mkdir()
    assert _python(PRINT_BACKEND, tmp_path / "h0", str(no_cc), tmp_path).stdout == "python\n"
    cli = ["-m", "paydev.cli"]
    synth = ["synth", "--out", "records.jsonl", "--labels-out", "labels.csv", "--seed", "7",
             "--devs", "24", "--commits-low", "30", "--commits-high", "60"]
    assert _python(cli + synth, tmp_path / "h0", str(no_cc), tmp_path).returncode == 0
    assert _python(cli + ["features", "records.jsonl", "--out", "f.csv"],
                   tmp_path / "h0", str(no_cc), tmp_path).returncode == 0
    outputs = {}
    for backend, path in (("python", str(no_cc)), ("c", os.environ["PATH"])):
        home = tmp_path / f"home-{backend}"
        runs = [
            ["evaluate", "records.jsonl", "--labels", "labels.csv", "--min-commits", "20",
             "--folds", "3", "--repeats", "1", "--forest-trees", "10", "--out",
             f"report-{backend}.json"],
            ["train", "f.csv", "--labels", "labels.csv", "--classifier", "randomforest",
             "--forest-trees", "10", "--out", f"model-{backend}.json"],
        ]
        for argv in runs:
            r = _python(cli + argv, home, path, tmp_path)
            assert r.returncode == 0, r.stderr
            assert f"# kernel: {backend}\n" in r.stderr
        outputs[backend] = [(tmp_path / f"{kind}-{backend}.json").read_bytes()
                            for kind in ("report", "model")]
    assert outputs["python"] == outputs["c"]
