"""L2-regularized logistic regression fit by damped Newton iterations.

Features are z-scored at fit time (the standardization parameters live on
the model); the intercept is never penalized. A tiny default ridge keeps
the problem well posed under perfect separation.

The fit and the scorer are native.logit_fit and native.logit_proba: the
compiled ones, or without the library their stdlib twins here
(logit_fit_py, logit_proba_py), which give the same bits: every sum runs in
index order from 0.0, the solve is Gaussian elimination with partial
pivoting, and exp and log1p come from libm. So this module needs no numpy.
"""

from __future__ import annotations

import warnings
from array import array
from functools import reduce
from itertools import repeat
from math import exp, isfinite, log1p, sqrt
from operator import add, mul, sub

from paydev import native
from paydev.errors import SchemaError
from paydev.ml.dataset import Dataset, check_training, impute_median
from paydev.model import LogitModel

LN2 = 0.6931471805599453


def softplus(z: float) -> float:
    """np.logaddexp(0, z), as _split.c computes it."""
    if z == 0.0:
        return LN2
    if z < 0.0:
        return log1p(exp(z))
    if z > 0.0:
        return z + log1p(exp(-z))
    return z  # NaN


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + exp(-z))
    e = exp(z)
    return e / (1.0 + e)


def _loss_grad(w, columns, y, l2):
    """(loss, gradient, margins) at the weights w of the rows whose columns
    are `columns` (the last all ones), with labels y: _split.c's loss_grad."""
    z = [0.0] * len(y)
    for column, weight in zip(columns, w):
        z = list(map(add, z, map(mul, column, repeat(weight))))
    loss = reduce(add, map(sub, map(softplus, z), map(mul, y, z)), 0.0)
    residual = list(map(sub, map(_sigmoid, z), y))
    grad = [reduce(add, map(mul, column, residual), 0.0) for column in columns]
    ridge = 0.0
    for j in range(len(columns) - 1):
        ridge += w[j] * w[j]
        grad[j] += l2 * w[j]
    return loss + 0.5 * l2 * ridge, grad, z


def _small(grad, tol):
    return all(abs(g) <= tol for g in grad)


def _solve(A, b):
    """x solving A x = b (lists, overwritten) as _split.c's solve does, or
    None at an exactly zero pivot."""
    q = len(b)
    for c in range(q):
        piv = c
        for r in range(c + 1, q):
            if abs(A[r][c]) > abs(A[piv][c]):
                piv = r
        if A[piv][c] == 0.0:
            return None
        A[c], A[piv] = A[piv], A[c]
        b[c], b[piv] = b[piv], b[c]
        for r in range(c + 1, q):
            f = A[r][c] / A[c][c]
            row, top = A[r], A[c]
            for k in range(c + 1, q):
                row[k] -= f * top[k]
            b[r] -= f * b[c]
    x = [0.0] * q
    for c in range(q - 1, -1, -1):
        s = b[c]
        for k in range(c + 1, q):
            s -= A[c][k] * x[k]
        x[c] = s / A[c][c]
    return x


def logit_fit_py(X, y, p, l2, max_iter, tol):
    """native.logit_fit in Python."""
    n = len(y)
    if len(X) != n * p:
        raise TypeError("logit_fit needs X as array('d') of len(y) rows and y as array('b')")
    raw = [X[j::p] for j in range(p)]
    mean, scale = array("d"), array("d")
    for column in raw:
        m = reduce(add, column, 0.0) / n
        mean.append(m)
        scale.append(sqrt(reduce(add, (d * d for d in map(sub, column, repeat(m))), 0.0) / n))
    if not all(map(isfinite, (*mean, *scale))):
        return mean, scale, None, [], 0, False
    scale = array("d", (s if s != 0.0 else 1.0 for s in scale))
    columns = [[(x - m) / s for x in column] for column, m, s in zip(raw, mean, scale)]
    columns.append([1.0] * n)
    labels, q = [float(v) for v in y], p + 1
    w = [0.0] * q
    loss, grad, z = _loss_grad(w, columns, labels, l2)
    history, it, converged = [loss], 0, False
    for it in range(1, max_iter + 1):
        if _small(grad, tol):
            converged = True
            break
        weight = [v if v > 1e-12 else 1e-12 for v in (s * (1.0 - s) for s in map(_sigmoid, z))]
        hess = [[0.0] * q for _ in range(q)]
        for j in range(q):
            weighted = list(map(mul, columns[j], weight))
            for c in range(j, q):
                hess[j][c] = hess[c][j] = reduce(add, map(mul, weighted, columns[c]), 0.0)
        for j in range(p):
            hess[j][j] += l2
        step = _solve(hess, list(grad)) or grad
        # halve until the penalized likelihood improves; the slack keeps
        # full Newton steps acceptable at the float64 loss floor
        t, accepted = 1.0, False
        for _ in range(60):
            w_new = [v - t * s for v, s in zip(w, step)]
            loss_new, grad_new, z_new = _loss_grad(w_new, columns, labels, l2)
            if loss_new <= loss + 1e-12 * (1.0 + abs(loss)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        w, loss, grad, z = w_new, loss_new, grad_new, z_new
        history.append(loss)
    if not converged and _small(grad, tol):
        converged = True
    return mean, scale, array("d", w), history, it, converged


def logit_proba_py(model, X, n_rows):
    """native.logit_proba in Python."""
    terms = list(zip(model.impute, model.mean, model.scale, model.coef))
    p = len(terms)
    if any(len(v) != p for v in (model.impute, model.mean, model.scale)) or len(X) != n_rows * p:
        raise ValueError("logit_proba: rows or model vectors of unequal length or type")
    out = array("d")
    for r in range(0, n_rows * p, p):
        s = 0.0
        for x, (fill, m, sd, c) in zip(X[r:r + p], terms):
            s += ((fill if x != x else x) - m) / sd * c
        out.append(_sigmoid(s + model.intercept))
    return out


def fit_logit(data: Dataset, l2=1e-8, max_iter=100, tol=1e-8) -> LogitModel:
    check_training(data)
    X, medians = impute_median(data)
    p = len(data.columns)
    mean, scale, w, history, n_iter, converged = native.logit_fit(X, data.y, p, float(l2),
                                                                  max_iter, float(tol))
    if w is None:
        bad = next(j for j in range(p) if not (isfinite(mean[j]) and isfinite(scale[j])))
        raise SchemaError(f"column {data.columns[bad]!r} is too large to standardize")
    if not converged:
        warnings.warn(
            "logistic fit stopped before the gradient tolerance was met "
            "(possible perfect separation)",
            RuntimeWarning,
            stacklevel=2,
        )
    return LogitModel(
        coef=w[:p],
        intercept=w[p],
        mean=mean,
        scale=scale,
        columns=list(data.columns),
        impute=medians,
        converged=converged,
        n_iter=n_iter,
        loss_history=history,
    )
