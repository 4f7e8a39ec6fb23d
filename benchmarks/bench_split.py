#!/usr/bin/env python3
"""Benchmark forest training with the compiled tree grower and the Python one.

Fits the same forest with both growers on identical inputs and asserts
that they grow the same trees. Run:

    python benchmarks/bench_split.py
"""

import time

import numpy as np

from paydev.ml import fit_forest, kernels, make_dataset
from paydev.ml.serialize import TREE_ARRAYS


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


if __name__ == "__main__":
    print(f"active backend: {kernels.BACKEND}\n")
    bench_forest()
