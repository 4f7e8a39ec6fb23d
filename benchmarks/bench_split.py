#!/usr/bin/env python3
"""Benchmark forest training and prediction, compiled against Python.

Fits the same forest with the compiled tree grower and the Python one and
asserts that they grow the same trees; then predicts it with the compiled
forest_sum and with the tree_proba loop and asserts the same bytes. Run:

    python benchmarks/bench_split.py
"""

import time

import numpy as np

from paydev.ml import fit_forest, kernels, make_dataset
from paydev.ml.serialize import TREE_ARRAYS
from paydev.ml.tree import tree_proba


def time_it(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_forest():
    """The compiled grower against the Python one (tree._grow_tree_py, which
    runs the numpy best_split node by node); both must grow the same trees."""
    rng = np.random.default_rng(1)
    n, p = 2_000, 16
    X = rng.normal(size=(n, p))
    y = (X[:, 0] + rng.normal(scale=0.7, size=n) > 0).astype(int)
    data = make_dataset(X, y, [f"f{i}" for i in range(p)], [str(i) for i in range(n)])
    print(f"fit_forest (n={n}, p={p}, 25 trees, fully grown):")
    growers = {"python": None}
    if kernels.grower() is not None:
        growers["c"] = kernels.grower()
    saved, models = kernels.grower, {}
    try:
        for name, grower in growers.items():
            kernels.grower = lambda grower=grower: grower
            t = time_it(lambda: fit_forest(data, n_trees=25, seed=0), repeats=2)
            models[name] = fit_forest(data, n_trees=25, seed=0)
            print(f"  {name:>8}: {t:.2f}s")
    finally:
        kernels.grower = saved
    first = next(iter(models.values()))
    for model in models.values():
        assert model.importance.tobytes() == first.importance.tobytes(), "growers disagree"
        for a, b in zip(model.trees, first.trees):
            assert all(getattr(a, key).tobytes() == getattr(b, key).tobytes()
                       for key in TREE_ARRAYS), "growers disagree"
    return first, X


def bench_predict(model, X):
    """The compiled forest_sum against the tree_proba loop it replaces; both
    must give the same bytes."""
    def loop():
        total = np.zeros(len(X))
        for tree in model.trees:
            total += tree_proba(tree, X)
        return total

    print(f"forest sum ({len(X)} rows, {len(model.trees)} trees):")
    sums = {"python": loop}
    if kernels.BACKEND == "c":
        sums["c"] = lambda: kernels.forest_sum(model.trees, X)
    results = {}
    for name, fn in sums.items():
        print(f"  {name:>8}: {time_it(fn) * 1e3:.1f}ms")
        results[name] = fn().tobytes()
    assert len(set(results.values())) == 1, "forest sums disagree"


if __name__ == "__main__":
    print(f"active backend: {kernels.BACKEND}\n")
    bench_predict(*bench_forest())
