import numpy as np
import pytest

import oracles
from radsurv.regressors import MlpDivergenceError, predict, train_mlp
from radsurv.regressors.mlp import (forward, init_parameters, loss_and_grads,
                                    predict_mlp)


def numeric_gradients(weights, biases, x, y, h=1e-6):
    grads_w = [np.zeros_like(w) for w in weights]
    grads_b = [np.zeros_like(b) for b in biases]
    for arrs, grads in ((weights, grads_w), (biases, grads_b)):
        for arr, grad in zip(arrs, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = arr[ix]
                arr[ix] = old + h
                lp, _, _ = loss_and_grads(weights, biases, x, y)
                arr[ix] = old - h
                lm, _, _ = loss_and_grads(weights, biases, x, y)
                arr[ix] = old
                grad[ix] = (lp - lm) / (2 * h)
    return grads_w, grads_b


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backprop_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        weights, biases = init_parameters(4, (5, 4, 3, 3, 2), seed=seed)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal(3)
        _, gw, gb = loss_and_grads(weights, biases, x, y)
        nw, nb = numeric_gradients(weights, biases, x, y)
        analytic = np.concatenate([g.ravel() for g in gw + gb])
        numeric = np.concatenate([g.ravel() for g in nw + nb])
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert rel < 1e-5


class TestTraining:
    def test_zero_epochs_returns_initialized_network(self):
        rng = np.random.default_rng(3)
        x = rng.random((20, 2))
        y = rng.random(20)
        m1 = train_mlp(x, y, {"epochs": 0}, seed=42)
        m2 = train_mlp(x, y, {"epochs": 0}, seed=42)
        w_init, b_init = init_parameters(2, tuple(m1.widths), seed=42)
        for a, b in zip(m1.weights, w_init):
            assert np.array_equal(a, b)
        assert np.array_equal(predict(m1, x), predict(m2, x))

    def test_fits_identity_function(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(50, 1))
        y = x[:, 0].copy()
        m = train_mlp(x, y, {"epochs": 300, "lr": 3e-3}, seed=1)
        mse = float(np.mean((predict(m, x) - y) ** 2))
        assert mse < 0.01 * float(y.var())

    def test_sgd_optimizer_also_converges(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, size=(60, 2))
        y = x[:, 0] - 0.5 * x[:, 1]
        m = train_mlp(x, y, {"epochs": 400, "lr": 1e-2, "optimizer": "sgd"},
                      seed=2)
        mse = float(np.mean((predict(m, x) - y) ** 2))
        assert mse < 0.05 * float(y.var())

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.random((30, 3))
        y = rng.random(30)
        m1 = train_mlp(x, y, {"epochs": 20}, seed=9)
        m2 = train_mlp(x, y, {"epochs": 20}, seed=9)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(5)
        x = rng.random((20, 2)) * 10
        y = rng.random(20) * 100
        with pytest.raises(MlpDivergenceError, match="epoch"):
            train_mlp(x, y, {"epochs": 200, "lr": 1e6, "optimizer": "sgd"},
                      seed=0)

    def test_width_validation(self):
        x = np.random.default_rng(0).random((10, 2))
        with pytest.raises(ValueError, match="widths"):
            train_mlp(x, x[:, 0], {"widths": (4, 4)}, seed=0)


class TestOptimizerOracle:
    """The one-vector optimizer step against the former per-array loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_bit_equal(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(5, 60))
        p = int(rng.integers(1, 40))
        x = rng.standard_normal((n, p)) * rng.uniform(0.1, 50.0, p)
        y = rng.gamma(2.0, 150.0, n)
        params = {
            "widths": [int(w) for w in rng.integers(1, 12, 5)],
            "epochs": int(rng.integers(1, 25)),
            "lr": float(10.0 ** rng.uniform(-4, -1)),
            "optimizer": ("adam", "sgd")[seed % 2],
            "batch_size": int(rng.choice([1, 7, 32, n, n + 5])),
        }
        model = train_mlp(x, y, params, seed=seed)
        weights, biases = oracles.train_mlp_per_array(x, y, seed, **params)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), params

    @pytest.mark.parametrize("lr", [1e6, 10.0, 0.3])
    def test_divergence_at_the_same_epoch(self, lr):
        rng = np.random.default_rng(5)
        x = rng.random((20, 2)) * 10
        y = rng.random(20) * 100
        params = {"epochs": 200, "lr": lr, "optimizer": "sgd"}
        with pytest.raises(MlpDivergenceError) as want:
            oracles.train_mlp_per_array(x, y, 0, **params)
        with pytest.raises(MlpDivergenceError) as got:
            train_mlp(x, y, params, seed=0)
        assert got.value.epoch == want.value.epoch
