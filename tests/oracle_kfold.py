"""Stratified k-fold through numpy's Generator, the way evaluation drew its
folds while it ran on numpy: each class (ascending) shuffled by
Generator.shuffle, then dealt round-robin from Generator.integers(k)."""

import numpy as np


def numpy_stratified_kfold(n, labels, k, repeats, seed):
    labels = np.asarray(labels)
    assert len(labels) == n
    classes = np.unique(labels)
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
        all_repeats.append([sorted(f) for f in folds])
    return all_repeats
