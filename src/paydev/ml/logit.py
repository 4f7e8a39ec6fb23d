"""L2-regularized logistic regression fit by damped Newton iterations.

Features are z-scored at fit time (the standardization parameters live on
the model); the intercept is never penalized. A tiny default ridge keeps
the problem well posed under perfect separation.
"""

from __future__ import annotations

import warnings
from array import array

import numpy as np

from paydev.errors import SchemaError
from paydev.ml.dataset import Dataset, check_training, impute_median
from paydev.model import LogitModel


def _vector(values) -> array:
    """A numpy vector as the array("d") that the model objects hold."""
    return array("d", np.asarray(values, dtype=np.float64).tobytes())


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grad(w, X1, y, l2):
    """Penalized negative log-likelihood and its gradient.

    w has the intercept as its last entry; X1 carries a trailing column of
    ones. The intercept is not penalized.
    """
    z = X1 @ w
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
    penalty = w.copy()
    penalty[-1] = 0.0
    loss += 0.5 * l2 * float(penalty @ penalty)
    grad = X1.T @ (sigmoid(z) - y) + l2 * penalty
    return loss, grad


def fit_logit(data: Dataset, l2=1e-8, max_iter=100, tol=1e-8) -> LogitModel:
    check_training(data)
    X, medians = impute_median(data)
    X = np.frombuffer(X, dtype=np.float64).reshape(len(data.y), len(data.columns))
    y = np.asarray(data.y, dtype=np.float64)

    with np.errstate(over="ignore", invalid="ignore"):
        mean, scale = X.mean(axis=0), X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
    if bad.size:
        raise SchemaError(f"column {data.columns[bad[0]]!r} is too large to standardize")
    scale[scale == 0.0] = 1.0
    Xz = (X - mean) / scale
    X1 = np.hstack([Xz, np.ones((len(y), 1))])

    p = X1.shape[1]
    w = np.zeros(p)
    loss, grad = loss_and_grad(w, X1, y, l2)
    history = [loss]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(grad)) <= tol:
            converged = True
            break
        prob = sigmoid(X1 @ w)
        weight = np.maximum(prob * (1.0 - prob), 1e-12)
        hess = (X1 * weight[:, None]).T @ X1
        hess[np.diag_indices(p)] += l2
        hess[-1, -1] -= l2  # intercept unpenalized
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        # halve until the penalized likelihood improves; the slack keeps
        # full Newton steps acceptable at the float64 loss floor
        t = 1.0
        accepted = False
        for _ in range(60):
            w_new = w - t * step
            loss_new, grad_new = loss_and_grad(w_new, X1, y, l2)
            if loss_new <= loss + 1e-12 * (1.0 + abs(loss)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        w, loss, grad = w_new, loss_new, grad_new
        history.append(loss)
    if not converged and np.max(np.abs(grad)) <= tol:
        converged = True
    if not converged:
        warnings.warn(
            "logistic fit stopped before the gradient tolerance was met "
            "(possible perfect separation)",
            RuntimeWarning,
            stacklevel=2,
        )
    return LogitModel(
        coef=_vector(w[:-1]),
        intercept=float(w[-1]),
        mean=_vector(mean),
        scale=_vector(scale),
        columns=list(data.columns),
        impute=medians,
        converged=converged,
        n_iter=it,
        loss_history=history,
    )


def predict_logit(model: LogitModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    X = np.where(np.isnan(X), np.asarray(model.impute), X)
    Xz = (X - np.asarray(model.mean)) / np.asarray(model.scale)
    return sigmoid(Xz @ np.asarray(model.coef) + model.intercept)
