from array import array
from io import StringIO

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import KERNEL_MODES, loss_and_grad, twins
from paydev import native
from paydev.errors import SchemaError
from paydev.ml import fit_logit, make_dataset, predict_proba, save_model
from paydev.ml.logit import LogitModel, _sigmoid

LOGIT_KERNELS = ("logit_fit", "logit_proba")


def _dataset(X, y):
    columns = [f"f{i}" for i in range(X.shape[1])]
    return make_dataset(X, y, columns, [str(i) for i in range(len(y))])


class TestSigmoidAndLoss:
    def test_zero_coefficients_give_half(self, rng):
        model = LogitModel(
            coef=np.zeros(3),
            intercept=0.0,
            mean=np.zeros(3),
            scale=np.ones(3),
            columns=["a", "b", "c"],
            impute=np.zeros(3),
            converged=True,
            n_iter=0,
        )
        X = rng.normal(size=(10, 3))
        assert np.allclose(predict_proba(model, X), 0.5)

    def test_sigmoid_stable_at_extremes(self):
        p = [_sigmoid(z) for z in (-1000.0, 0.0, 1000.0)]
        assert p[0] == 0.0 and p[1] == 0.5 and p[2] == 1.0

    def test_gradient_matches_central_differences(self, rng):
        n, p = 60, 10
        X = rng.normal(size=(n, p))
        X1 = np.hstack([X, np.ones((n, 1))])
        y = (rng.random(n) < 0.5).astype(np.float64)
        l2 = 0.3
        for _ in range(20):
            w = rng.normal(scale=0.8, size=p + 1)
            _, grad = loss_and_grad(w, X1, y, l2)
            eps = 1e-6
            for j in range(p + 1):
                e = np.zeros(p + 1)
                e[j] = eps
                lp, _ = loss_and_grad(w + e, X1, y, l2)
                lm, _ = loss_and_grad(w - e, X1, y, l2)
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), 1e-8)
                assert abs(grad[j] - numeric) / denom < 1e-4


class TestFit:
    def test_separable_1d(self):
        X = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        model = fit_logit(_dataset(X, y), l2=0.01)
        p = predict_proba(model, np.array([[1.0]]))
        assert p[0] > 0.9

    def test_matches_grid_search_on_tiny_problem(self, rng):
        # 2-parameter likelihood: compare against a dense grid optimum
        X = np.array([[-1.0]] * 8 + [[1.0]] * 12)
        y = np.array([0] * 8 + [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        l2 = 0.5
        model = fit_logit(_dataset(X, y), l2=l2, tol=1e-10)
        Xz = (X - X.mean(0)) / X.std(0)
        X1 = np.hstack([Xz, np.ones((20, 1))])
        best = (np.inf, None)
        for w in np.linspace(-4, 4, 161):
            for b in np.linspace(-4, 4, 161):
                loss, _ = loss_and_grad(np.array([w, b]), X1, y.astype(float), l2)
                if loss < best[0]:
                    best = (loss, (w, b))
        got_loss, _ = loss_and_grad(
            np.array([model.coef[0], model.intercept]), X1, y.astype(float), l2
        )
        assert got_loss <= best[0] + 1e-6

    def test_loss_decreases_monotonically(self, rng):
        for _ in range(10):
            X = rng.normal(size=(80, 5))
            y = (X[:, 0] + 0.5 * rng.normal(size=80) > 0).astype(int)
            model = fit_logit(_dataset(X, y), l2=1e-3, max_iter=50)
            assert model.converged
            h = model.loss_history
            assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(h, h[1:]))

    def test_intercept_only_matches_base_rate(self):
        # constant feature: z-scoring maps it to zero, leaving the intercept
        X = np.ones((40, 1))
        y = np.array([1] * 30 + [0] * 10)
        model = fit_logit(_dataset(X, y), l2=1e-8, tol=1e-10)
        assert model.coef[0] == pytest.approx(0.0, abs=1e-6)
        assert model.intercept == pytest.approx(np.log(30 / 10), abs=1e-6)

    def test_perfect_separation_warns_without_ridge(self):
        X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        with pytest.warns(RuntimeWarning):
            fit_logit(_dataset(X, y), l2=0.0, max_iter=5, tol=1e-14)

    @pytest.mark.parametrize("on", KERNEL_MODES)
    def test_spread_past_the_largest_double_refused(self, on):
        """A column whose squared deviations overflow has no finite scale: the
        fit names it and fits nothing."""
        X = np.array([[1.0, -1.5e308 if i % 2 else 1.5e308] for i in range(10)])
        y = np.array([0, 1] * 5)
        columns = ["ok", "wide"]
        data = make_dataset(X, y, columns, [str(i) for i in range(10)])
        with twins(*() if on else LOGIT_KERNELS), pytest.raises(SchemaError, match="'wide'"):
            fit_logit(data)

    def test_scale_invariance_of_predictions(self, rng):
        X = rng.normal(size=(60, 4))
        y = (X[:, 1] > 0).astype(int)
        base = fit_logit(_dataset(X, y), l2=1e-4)
        scaled = X.copy()
        scaled[:, 1] *= 1000.0
        other = fit_logit(_dataset(scaled, y), l2=1e-4)
        Xt = rng.normal(size=(20, 4))
        Xt_scaled = Xt.copy()
        Xt_scaled[:, 1] *= 1000.0
        assert np.allclose(
            predict_proba(base, Xt), predict_proba(other, Xt_scaled), atol=1e-8
        )

    def test_probabilities_in_unit_interval(self, rng):
        X = rng.normal(size=(50, 3))
        y = (rng.random(50) < 0.4).astype(int)
        model = fit_logit(_dataset(X, y))
        p = predict_proba(model, rng.normal(size=(200, 3)) * 100)
        assert all(0 <= v <= 1 for v in p)


def test_introspect_ranks_tied_coefficients_in_column_order():
    """|coef| descending, equal sizes (of either sign, and signed zeros) in
    column order, whatever the host's sort."""
    from array import array

    from paydev.ml import introspect

    columns = ["a", "b", "c", "d", "e", "f"]
    model = LogitModel(coef=array("d", [0.5, -2.0, 0.5, 2.0, 0.0, -0.0]), intercept=0.25,
                       mean=array("d", [0.0] * 6), scale=array("d", [1.0] * 6), columns=columns,
                       impute=array("d", [0.0] * 6), converged=True, n_iter=1)
    lines = introspect(model).splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["b", "d", "a", "c", "e", "f"]
    assert lines[-1] == "  intercept +0.2500"


_SPECIAL = (np.nan, -0.0, 0.0)


@pytest.mark.skipif(native.BACKEND != "c", reason="compiled logit not in use")
@settings(max_examples=150, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_compiled_and_twin_logit_give_the_same_model_bytes(data):
    """fit_logit and predict_proba through the compiled logit and through
    its stdlib twin: the same model file, probabilities, warning, or
    refusal, with NaN (imputed), constant, collinear and huge columns, any
    ridge, step count and tolerance. A failing example is reported as
    drawn."""
    import warnings

    n, p = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 5))
    cells = st.one_of(st.sampled_from(_SPECIAL), st.integers(-3, 3).map(float),
                      st.floats(-1e6, 1e6, allow_nan=False))
    X = np.array(data.draw(st.lists(cells, min_size=n * p, max_size=n * p))).reshape(n, p)
    if p > 1 and data.draw(st.booleans()):
        X[:, 1] = 2.0 * X[:, 0]  # collinear
    if data.draw(st.integers(0, 3)) == 0:  # a huge value, whose square may overflow
        X[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))] = data.draw(
            st.sampled_from([1e300, -1e300, 1e154, 1e20]))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = (0, 1)
    params = dict(l2=data.draw(st.sampled_from([0.0, 1e-8, 1e-3, 1.0])),
                  max_iter=data.draw(st.integers(0, 30)),
                  tol=data.draw(st.sampled_from([1e-14, 1e-8, 1e-2])))
    dataset = _dataset(X, y)
    results = []
    for on in (True, False):
        with twins(*() if on else LOGIT_KERNELS), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                model = fit_logit(dataset, **params)
            except SchemaError as exc:
                results.append(str(exc))
                continue
            out = StringIO()
            try:
                save_model(model, out)
            except ValueError:  # a NaN or infinite weight, which no file holds
                pass
            results.append((out.getvalue(), model.coef.tobytes(),
                            array("d", [model.intercept, *model.loss_history]).tobytes(),
                            [str(w.message) for w in caught],
                            predict_proba(model, X).tobytes()))
    assert results[0] == results[1]
