import ctypes
import os
import shutil
import subprocess
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracle_split import exhaustive_best_split
from paydev import native
from paydev.ml import dataset, kernels
from paydev.model import TREE_ARRAYS, Nodes

SRC = Path(__file__).resolve().parent.parent / "src"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
needs_grower = pytest.mark.skipif(native.BACKEND != "c", reason="compiled grower not in use")
THREADS = (1, 2, 4)  # thread counts the compiled grower is tested on; 4 is its cap


def _arrays(X, y):
    """X and y as the array("d") and array("b") a Dataset holds."""
    return (array("d", np.ascontiguousarray(X, dtype=np.float64).tobytes()),
            array("b", np.asarray(y, dtype=np.int8).tobytes()))


def _forest(grow, X, y, seed=0, n_trees=1, bootstrap=False, mtry=None, **params):
    """grow (native.grow_forest, compiled with the library, or
    kernels.grow_forest_py) over the numpy X and y, as (each tree's own
    Nodes, importance); mtry None searches every feature."""
    p = X.shape[1]
    table, importance = grow(*_arrays(X, y), p, n_trees=n_trees, seed=seed, bootstrap=bootstrap,
                             mtry=p if mtry is None else mtry, **params)
    return Nodes(*table).trees(), importance


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
    assert native.generator_ok(native.lib), "the compiled generator should give numpy's draws"


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
        (root,), _ = _forest(native.grow_forest, X, y, minsplit=2, cp=0.0, maxdepth=1)
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


def _grow_both(X, y, **params):
    """The forest of native.grow_forest and of kernels.grow_forest_py."""
    return [_forest(grow, X, y, **params) for grow in (native.grow_forest, kernels.grow_forest_py)]


def _assert_same_forest(a, b):
    """Bit-identical node arrays and importances."""
    (trees_a, imp_a), (trees_b, imp_b) = a, b
    for tree_a, tree_b in zip(trees_a, trees_b, strict=True):
        for key in TREE_ARRAYS:
            x, y = getattr(tree_a, key), getattr(tree_b, key)
            assert x.typecode == y.typecode and x.tobytes() == y.tobytes(), key
    assert imp_a.typecode == imp_b.typecode == "d" and imp_a.tobytes() == imp_b.tobytes()


@needs_grower
class TestGrowerEquivalence:
    def test_forest_trees_bit_identical(self, rng):
        for trial in range(150):
            X, y = _random_problem(rng, duplicates=trial % 3 == 0)
            p = X.shape[1]
            if trial % 5 == 0:
                y[:] = trial % 2  # single-class root
            for mtry in range(1, p + 1):
                _assert_same_forest(*_grow_both(X, y, seed=trial, n_trees=2, bootstrap=True,
                                                mtry=mtry, minsplit=2, cp=0.0, maxdepth=None))

    def test_cart_trees_bit_identical(self, rng):
        for trial in range(150):
            X, y = _random_problem(rng, duplicates=trial % 2 == 0, p=1 if trial % 7 == 0 else None)
            params = dict(minsplit=int(rng.integers(1, 30)),
                          cp=float(rng.choice([0.0, 0.001, 0.01, 0.05, 0.2])),
                          maxdepth=[None, 0, 1, 2, 5, 30][trial % 6])
            _assert_same_forest(*_grow_both(X, y, **params))

    def test_many_rows_and_features(self, rng):
        X, y = _random_problem(rng, n=3000, p=40, duplicates=True)
        _assert_same_forest(*_grow_both(X, y, seed=9, n_trees=2, bootstrap=True, mtry=6,
                                        minsplit=2, cp=0.0, maxdepth=None))

    def test_empty_and_one_row(self):
        X, y = np.ones((3, 2)), np.array([0, 1, 0], dtype=np.int8)
        for rows in ([], [1]):
            for bootstrap in (False, True):
                results = _grow_both(X[rows], y[rows], seed=1, bootstrap=bootstrap, mtry=1,
                                     minsplit=2, cp=0.0, maxdepth=None)
                _assert_same_forest(*results)
                assert results[0][0][0].n.tolist() == [len(rows)]

    def test_tie_heavy_bootstrap_trees_bit_identical(self, rng):
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
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(native, "_grow_threads", lambda n_trees: THREADS[trial % 3])
                for mtry in (1, p // 2 + 1, p):
                    _assert_same_forest(*_grow_both(X, y, seed=trial, n_trees=3, bootstrap=True,
                                                    mtry=mtry, minsplit=2, cp=0.0,
                                                    maxdepth=None))

    def test_thread_count_changes_no_byte(self, rng, monkeypatch):
        """Forests grown on 1, 2 and the cap of threads have the same node
        table and importance: with more trees than threads, fewer trees than
        threads, one tree, and as a CART (one tree, every row and feature)."""
        X, y = _random_problem(rng, n=600, p=6, duplicates=True)
        forests = [dict(n_trees=9, bootstrap=True, mtry=2), dict(n_trees=3, bootstrap=True, mtry=3),
                   dict(n_trees=1, bootstrap=True, mtry=2), dict(n_trees=1, minsplit=20, cp=0.01)]
        for params in forests:
            params = dict(dict(seed=4, bootstrap=False, mtry=6, minsplit=2, cp=0.0), **params)
            grown = []
            for threads in THREADS:
                monkeypatch.setattr(native, "_grow_threads", lambda n_trees: threads)
                table, importance = native.grow_forest(*_arrays(X, y), 6, maxdepth=None,
                                                       **params)
                grown.append([column.tobytes() for column in (*table, importance)])
            assert grown[0] == grown[1] == grown[2], params

    def test_rows_past_31_bits_declined_before_any_read(self):
        """An entry numbers its row in 31 bits, so the library declines
        (-4, left to the twin) 2**31 rows before it reads X or y, which
        hold one value each here, y's an invalid label."""
        X, y, importance = array("d", [0.0]), array("b", [2]), array("d", [0.0])
        words = array("I", [0])
        table = (ctypes.c_void_p * 7)()
        assert native.lib.grow_forest(X.buffer_info()[0], 2**31, 1, y.buffer_info()[0], 1,
                                      words.buffer_info()[0], 1, 1, 1, 2, 0.0, -1, 1,
                                      importance.buffer_info()[0], table) == -4
        assert not any(table)

    def test_more_trees_than_memory_raises_memory_error(self):
        X, y = _arrays(np.ones((4, 2)), [0, 1, 0, 1])
        with pytest.raises(MemoryError):
            native.grow_forest(X, y, 2, n_trees=2**61, seed=0, bootstrap=True, mtry=1,
                               minsplit=2, cp=0.0, maxdepth=None)

    def test_midpoint_rounding_to_the_upper_value_splits_at_the_lower(self):
        """Between 1 + 2**-52 and the next double the midpoint rounds up to
        the upper value, so `<=` at the midpoint would send every row left.
        Both growers split at the lower value instead, so that the two values
        are separated and every node holds rows."""
        a, b = 1 + 2.0**-52, 1 + 2.0**-51
        assert (a + b) / 2 == b
        for values, labels in (([a, b], [0, 1]), ([a, b, 2.0], [0, 1, 0])):
            X = np.repeat(values, 20).reshape(-1, 1)
            y = np.repeat(labels, 20).astype(np.int8)
            for maxdepth in (5, None):
                results = _grow_both(X, y, minsplit=2, cp=0.0, maxdepth=maxdepth)
                _assert_same_forest(*results)
                (grown,), _ = results[0]
                assert min(grown.n) > 0
                assert len(grown.n) == 2 * len(values) - 1
                assert grown.threshold[0] == a

    def test_out_of_range_rows_rejected(self):
        """X must hold p values per label, or the compiled grower would read
        rows past its end."""
        X, y = _arrays(np.ones((4, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            native.grow_forest(X[:-1], y, 2, n_trees=1, seed=0, bootstrap=False, mtry=2,
                               minsplit=2, cp=0.0, maxdepth=None)

    @pytest.mark.parametrize("bad", ["X", "y"])
    def test_bad_arrays_rejected(self, bad):
        args = dict(zip("Xy", _arrays(np.ones((4, 2)), np.zeros(4))))
        args[bad] = array("f" if bad == "X" else "q", args[bad])
        with pytest.raises(TypeError):
            native.grow_forest(args["X"], args["y"], 2, n_trees=1, seed=0, bootstrap=False,
                               mtry=2, minsplit=2, cp=0.0, maxdepth=None)

    def test_labels_other_than_0_and_1_rejected(self):
        X, y = np.ones((4, 2)), np.array([0, 1, 2, 0], dtype=np.int8)
        for grow in (native.grow_forest, kernels.grow_forest_py):
            with pytest.raises(ValueError):
                _forest(grow, X, y, minsplit=2, cp=0.0, maxdepth=None)


@pytest.mark.parametrize("a, b", [(-1.5e308, -1e308), (1e308, np.inf)])
def test_overflowing_midpoint_splits_at_the_lower(a, b):
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
    growers = (native.grow_forest, kernels.grow_forest_py)
    for mtry in (None, 1):
        results = [_forest(grow, X, y, seed=3, mtry=mtry, minsplit=2, cp=0.0, maxdepth=None)
                   for grow in growers]
        _assert_same_forest(*results)
        (grown,), _ = results[0]
        assert grown.n.tolist() == [40, 20, 20] and grown.threshold[0] == a


def test_nan_is_not_split_from_nan():
    """A column whose two middle values are -inf and inf has the median
    NaN, which imputation keeps, so NaN rows remain. `<=` cannot tell a NaN
    from the NaN after it, so no split falls between them; one between the
    last value and the first NaN sends the NaN rows right. Splitting
    between two NaN rows sent every row right: the compiled grower crashed
    and the Python one never ended."""
    X = np.array([[-np.inf, 0.0], [np.inf, 1.0], *[[np.nan, float(k)] for k in range(2, 8)]])
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=np.int8)
    data = dataset.make_dataset(X, y, ["a", "b"], list("abcdefgh"))
    filled, medians = dataset.impute_median(data)
    assert np.isnan(medians[0]) and medians[1] == 3.5
    X = np.frombuffer(filled).reshape(8, 2)
    assert (kernels.best_split(X, y, np.arange(8), np.array([0]))
            == exhaustive_best_split(X[:, :1], y))
    for mtry in (None, 1):
        results = [_forest(grow, X, y, seed=5, n_trees=3, bootstrap=True, mtry=mtry, minsplit=2,
                           cp=0.0, maxdepth=None)
                   for grow in (native.grow_forest, kernels.grow_forest_py)]
        _assert_same_forest(*results)
        for tree in results[0][0]:
            assert min(tree.n) > 0


@needs_grower
def test_signed_zeros_keep_their_row_order():
    """numpy's stable sort keeps 0.0 and -0.0 in row order, and so does the
    compiled presort: the split between the zeros and inf falls at the last
    zero in row order (the midpoint is inf), with its sign. The presort once
    put -0.0 below 0.0, and the compiled threshold was 0.0, the twin's -0.0."""
    X = np.array([[0.0], [-0.0], [np.inf], [np.inf]])
    y = np.array([0, 0, 1, 1])
    results = [_forest(grow, X, y, minsplit=2, cp=0.0, maxdepth=None)
               for grow in (native.grow_forest, kernels.grow_forest_py)]
    _assert_same_forest(*results)
    assert results[0][0][0].threshold[:1].tobytes() == array("d", [-0.0]).tobytes()


@needs_grower
@pytest.mark.parametrize("idx, feats", [([0, 4], [0, 1]), ([0, 1, 2, 3, 4, 5], [0])])
def test_c_kernel_rejects_out_of_range_indices(idx, feats):
    """Labels of rows past the end of X (four rows) are refused, whatever
    columns X keeps."""
    X, _ = _arrays(np.ones((4, 2))[:, feats], [])
    with pytest.raises(ValueError):
        native.grow_forest(X, array("b", bytes(max(idx) + 1)), len(feats), n_trees=1, seed=0,
                           bootstrap=True, mtry=1, minsplit=2, cp=0.0, maxdepth=None)


@needs_grower
@pytest.mark.parametrize("X", [
    np.asfortranarray(np.ones((4, 2))),
    np.ones((4, 4))[:, ::2],
    np.ones((4, 2), dtype=np.float32),
])
def test_c_kernel_rejects_bad_arrays(X):
    """The compiled grower takes only the arrays a Dataset holds."""
    y = array("b", bytes(4))
    with pytest.raises(TypeError):
        native.grow_forest(X, y, 2, n_trees=1, seed=0, bootstrap=False, mtry=2, minsplit=2,
                           cp=0.0, maxdepth=None)


def _state(rng):
    """A Generator's state as native.draws lists it."""
    s = rng.bit_generator.state
    state, inc = s["state"]["state"], s["state"]["inc"]
    return [state >> 64, state & (2**64 - 1), inc >> 64, inc & (2**64 - 1), s["has_uint32"],
            s["uinteger"]]


@needs_cc
def test_c_choice_matches_generator_choice():
    draws = [(1, 1), (2, 1), (2, 2), (5, 5), (10_000, 10_000), (10_001, 200), (60_000, 1_000)]
    draws += [(p, k) for p in range(1, 41) for k in range(0, p + 1)]
    for seed, (p, k) in enumerate(draws):
        got, state = native.draws([seed], "choice", p, k)
        rng = np.random.default_rng(seed)
        assert got == rng.choice(p, k, replace=False).tolist(), (p, k)
        assert state == _state(rng), (p, k)


@needs_cc
def test_c_shuffle_matches_generator_shuffle():
    """draws' kind "shuffle" (the folds' draws): per group of m values,
    Generator.shuffle of np.arange(m) and then Generator.integers(k), with
    the state after, across the masks' edges and up to 2**32 - 1 folds."""
    groups = [[], [0], [1], [2], [3, 4], [5, 17, 1], [256, 257], [1000, 65_537], [2, 3] * 20]
    for seed, sizes in enumerate(groups):
        for k in (1, 2, 3, 10, 2**31, 2**32 - 1):
            got, state = native.draws([seed, 5], "shuffle", k=k, sizes=sizes)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
            expected = []
            for m in sizes:
                order = np.arange(m)
                rng.shuffle(order)
                expected += [*order.tolist(), int(rng.integers(k))]
            assert got == expected, (sizes, k)
            assert state == _state(rng), (sizes, k)
    for bad in (dict(k=0, sizes=[3]), dict(k=2**32, sizes=[3]), dict(k=2, sizes=[2**32 + 1]),
                dict(k=2, sizes=[-1])):
        with pytest.raises(ValueError):
            native.draws([0], "shuffle", **bad)


@needs_cc
def test_c_choice_differs_where_numpy_shuffles_a_range():
    """p > 10,000 and k > p // 50: numpy shuffles a whole range, which the C
    draw does not repeat, so the compiled grower declines such forests."""
    got, _ = native.draws([0], "choice", 10_001, 201)
    assert got != np.random.default_rng(0).choice(10_001, 201, replace=False).tolist()


# a library whose generator fails numpy's known draws: the real one, with a
# draws that writes nothing, so every draw reads 0
FAILING_DRAWS = """
import ctypes, sys

class FailingDraws(ctypes.CDLL):
    @staticmethod
    def draws(*args):
        return 0

ctypes.CDLL = FailingDraws
from paydev import cli, features, native
from paydev.ml import kernels

assert native.lib is None and native.BACKEND == kernels.BACKEND == "python", native.BACKEND
assert native.scan_canonical is iter and native.scan_git_log is native.record_offsets
from paydev import evaluation
from paydev.ml import logit

twins = dict.fromkeys(["impute_median", "grow_forest", "seed_state", "forest_sum", "fold_draws"],
                      kernels)
twins.update(dict.fromkeys(["sort_histories", "local_calendar", "activity", "commit_rows"],
                           features))
twins.update(logit_fit=logit, logit_proba=logit, auc=evaluation)
for name, module in twins.items():
    assert getattr(native, name) is getattr(module, name + "_py"), name
sys.exit(cli.main(sys.argv[1:]))
"""


@needs_grower
def test_draw_disagreement_falls_back_to_python_grower(tmp_path):
    """native refuses a library whose generator fails its known draws: every
    kernel is its twin, a command names the Python backend and writes what
    the compiled kernels write."""
    assert not native.generator_ok(SimpleNamespace(draws=lambda *args: 0))
    cli = [sys.executable, "-m", "paydev.cli"]
    synth = ["synth", "--out", "records.jsonl", "--labels-out", "labels.csv", "--seed", "3",
             "--devs", "24", "--commits-low", "30", "--commits-high", "60"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (synth, ["features", "records.jsonl", "--out", "f.csv"]):
        assert subprocess.run(cli + argv, env=env, cwd=tmp_path).returncode == 0
    train = ["train", "f.csv", "--labels", "labels.csv", "--classifier", "randomforest",
             "--forest-trees", "5", "--out"]
    for runner, backend in ((cli, "c"), ([sys.executable, "-c", FAILING_DRAWS], "python")):
        r = subprocess.run(runner + train + [f"model-{backend}.json"], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert f"# kernel: {backend}\n" in r.stderr
    assert (tmp_path / "model-c.json").read_bytes() == (tmp_path / "model-python.json").read_bytes()


@needs_cc
class TestForestDraws:
    """The compiled generator against numpy's: SeedSequence, PCG64 and the
    draws a forest makes from them."""

    SEEDS = (0, 2**32 - 1, 2**32, 2**70)

    def test_seed_sequence_words(self):
        for seed in self.SEEDS:
            for entropy in ([seed], [seed, 3], [seed, 0, 0], [7, seed, 1, 2, 3]):
                expected = np.random.SeedSequence(entropy).generate_state(9).tolist()
                assert native.seed_state(entropy, 9) == expected, entropy

    def test_forest_seed_of_a_seed_past_64_bits(self):
        """`--seed 1180591620717411303424` (2**70) is split into 32-bit words
        as numpy splits it."""
        from paydev.ml import forest_seed

        for parts in ((2**70, 0, 0), (2**70, 3, 9), (1, 0, 0)):
            assert forest_seed(parts) == np.random.SeedSequence(parts).generate_state(1)[0]

    def test_raw_stream_and_next_uint32_buffering(self):
        for seed in self.SEEDS:
            raw, state = native.draws([seed, 1], "raw", k=5)
            bit_generator = np.random.PCG64(np.random.SeedSequence([seed, 1]))
            assert raw == bit_generator.random_raw(5).tolist()
            for k in (1, 2, 7):  # an odd count leaves the high half buffered
                halves, state = native.draws([seed, 1], "uint32", k=k)
                rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
                assert halves == rng.integers(0, 2**32, size=k, dtype=np.uint32).tolist()
                assert state == _state(rng), (seed, k)

    def test_bootstrap_matches_numpy(self):
        sizes = [*range(1, 200), *np.unique(np.geomspace(200, 100_000, 60).astype(int)), 100_000]
        for n in sizes:
            n = int(n)
            rows, state = native.draws([11, n], "bootstrap", n)
            rng = np.random.default_rng(np.random.SeedSequence([11, n]))
            assert rows == np.sort(rng.integers(0, n, size=n)).tolist(), n
            assert state == _state(rng), n

    def test_bootstrap_of_2_32_rows_declined(self):
        """From n - 1 = 2**32 - 1 on numpy draws 64-bit values, which the
        compiled bootstrap does not repeat."""
        with pytest.raises(ValueError):
            native.draws([0], "bootstrap", 2**32)


_SPECIAL = (np.nan, -0.0, 0.0, np.inf, -np.inf)


@needs_grower
@settings(max_examples=150, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_compiled_and_twin_forests_give_the_same_model_bytes(data):
    """fit_forest through the compiled pass and through kernels' twins:
    the same model file (or both refused), node arrays and importance, with
    NaN and all-NaN columns, signed zeros and infinities, with and without
    bootstrap, for every mtry up to p, the compiled forest on 1, 2 or the
    cap of threads. A failing example is reported as drawn: shrinking its
    n * p matrix took over five minutes."""
    from io import StringIO

    from paydev.ml import fit_forest, make_dataset, save_model

    n, p = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 6))
    cells = st.one_of(st.sampled_from(_SPECIAL), st.integers(-3, 3).map(float),
                      st.floats(allow_nan=False, width=64))
    X = np.array(data.draw(st.lists(cells, min_size=n * p, max_size=n * p))).reshape(n, p)
    if data.draw(st.booleans()):
        X[:, data.draw(st.integers(0, p - 1))] = np.nan
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = (0, 1)
    params = dict(n_trees=data.draw(st.integers(1, 4)), mtry=data.draw(st.integers(1, p)),
                  seed=data.draw(st.integers(0, 2**70)), bootstrap=data.draw(st.booleans()))
    threads = data.draw(st.sampled_from(THREADS))
    models, forests = [], []
    for twins in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "_grow_threads", lambda n_trees: threads)
            if twins:
                for name in ("impute_median", "grow_forest", "seed_state"):
                    mp.setattr(native, name, getattr(kernels, f"{name}_py"))
            model = fit_forest(make_dataset(X, y, [f"f{j}" for j in range(p)],
                                            [str(i) for i in range(n)]), **params)
        out = StringIO()
        try:
            save_model(model, out)
        except ValueError:  # a NaN or infinite threshold or median, which no file holds
            pass
        models.append((out.getvalue(), model.impute.tobytes()))
        forests.append((model.trees, model.importance))
    assert models[0] == models[1]
    _assert_same_forest(*forests)


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
            ["train", "f.csv", "--labels", "labels.csv", "--classifier", "rpart",
             "--out", f"tree-{backend}.json"],
            ["commits", "records.jsonl", "--labels", "labels.csv", "--min-commits", "20",
             "--forest-trees", "5", "--out", f"commits-{backend}.json"],
            ["train", "f.csv", "--labels", "labels.csv", "--classifier", "logit",
             "--out", f"logit-{backend}.json"],
            ["predict", f"logit-{backend}.json", "--records", "records.jsonl",
             "--out", f"predict-{backend}.json"],
        ]
        for argv in runs:
            r = _python(cli + argv, home, path, tmp_path)
            assert r.returncode == 0, r.stderr
            assert f"# kernel: {backend}\n" in r.stderr
        outputs[backend] = [(tmp_path / f"{kind}-{backend}.json").read_bytes()
                            for kind in ("report", "model", "tree", "commits", "logit", "predict")]
    assert outputs["python"] == outputs["c"]
