"""Five-hidden-layer perceptron regressor with SGD or Adam, from scratch.

Hidden layers use the rectifier, the output is linear and the loss is the
mean squared error over the batch. Inputs and targets are standardized
internally (parameters stored on the model; predictions are mapped back).
Initialization is He-normal from the (seed, 0) stream and batch order comes
from the (seed, 1) stream, so training is deterministic given the seed.
A non-finite epoch loss aborts training with the epoch index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..rng import make_rng
from . import Model, number_param, prepare_training, standardize
from ..util import POSITIVE, one_of

DEFAULT_WIDTHS = (32, 24, 16, 12, 8)


class MlpDivergenceError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


@dataclass
class MlpModel(Model):
    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    seed: int


def init_parameters(n_inputs: int, widths: tuple[int, ...], seed: int):
    """He-normal hidden layers, smaller-variance linear output layer."""
    rng = make_rng(seed, 0)
    sizes = [n_inputs] + list(widths) + [1]
    weights = []
    biases = []
    for layer in range(len(sizes) - 1):
        fan_in, fan_out = sizes[layer], sizes[layer + 1]
        std = np.sqrt(2.0 / fan_in) if layer < len(widths) else np.sqrt(1.0 / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * std)
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward(weights, biases, x: np.ndarray) -> np.ndarray:
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    return (h @ weights[-1] + biases[-1])[:, 0]


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per shape."""
    views = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def _backprop(weights, biases, x: np.ndarray, y: np.ndarray,
              grad_w, grad_b) -> np.ndarray:
    """Write the MSE gradients w.r.t. every weight and bias into ``grad_w``
    and ``grad_b`` (arrays shaped like them); return the residuals."""
    h = x
    activations = [x]
    pre = []
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        activations.append(h)
    out = (h @ weights[-1] + biases[-1])[:, 0]
    err = out - y
    n = y.shape[0]

    delta = (2.0 * err / n)[:, None]                   # d loss / d out
    np.matmul(activations[-1].T, delta, out=grad_w[-1])
    np.add.reduce(delta, axis=0, out=grad_b[-1])
    back = delta @ weights[-1].T
    for layer in range(len(weights) - 2, -1, -1):
        back = back * (pre[layer] > 0.0)
        np.matmul(activations[layer].T, back, out=grad_w[layer])
        np.add.reduce(back, axis=0, out=grad_b[layer])
        if layer > 0:
            back = back @ weights[layer].T
    return err


def loss_and_grads(weights, biases, x: np.ndarray, y: np.ndarray):
    """MSE loss and its gradients w.r.t. every weight and bias (backprop)."""
    grad_w = [np.empty_like(w) for w in weights]
    grad_b = [np.empty_like(b) for b in biases]
    err = _backprop(weights, biases, x, y, grad_w, grad_b)
    return float(np.mean(err ** 2)), grad_w, grad_b


def mlp_settings(params: dict) -> tuple:
    """(widths, epochs, lr, optimizer, batch_size) of ``params``: widths
    (five integers of at least 1, default DEFAULT_WIDTHS), epochs (an
    integer, default 200, at least 0), lr (> 0, default 1e-3), optimizer
    ('adam' default, or 'sgd'), batch_size (an integer, default 32, >= 1)."""
    widths = params.get("widths", DEFAULT_WIDTHS)
    if not (isinstance(widths, (list, tuple)) and len(widths) == 5
            and all(isinstance(w, (int, np.integer))
                    and not isinstance(w, bool) and w >= 1 for w in widths)):
        raise ValueError(f"widths must be five positive integers, got {widths}")
    return (tuple(int(w) for w in widths),
            number_param(params, "epochs", 200, 0),
            number_param(params, "lr", 1e-3, POSITIVE, real=True),
            one_of(("sgd", "adam"))(params.get("optimizer", "adam"),
                                    "optimizer"),
            number_param(params, "batch_size", 32, 1))


def train_mlp(X: np.ndarray, y: np.ndarray, params: dict, seed: int,
              feature_names: Optional[list[str]] = None) -> MlpModel:
    """Fit the network on ``mlp_settings(params)``."""
    X, y, feature_names, imputation = prepare_training(X, y, feature_names)
    widths, epochs, lr, optimizer, batch_size = mlp_settings(params)

    n, p = X.shape
    x_mean, x_scale, xs = standardize(X)
    y_mean = float(y.mean())
    y_scale = float(y.std()) or 1.0
    ys = (y - y_mean) / y_scale

    # every weight and bias is a view into one vector, and so is every
    # gradient, so an optimizer step is one set of elementwise operations
    weights, biases = init_parameters(p, widths, seed)
    shapes = [a.shape for a in weights + biases]
    theta = np.concatenate([a.ravel() for a in weights + biases])
    grad = np.empty_like(theta)
    layers = len(weights)
    views = _views(theta, shapes)
    weights, biases = views[:layers], views[layers:]
    views = _views(grad, shapes)
    grad_w, grad_b = views[:layers], views[layers:]
    batch_rng = make_rng(seed, 1)

    if optimizer == "adam":
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        step = 0

    # divergence shows up as inf/nan in the epoch loss; let the arithmetic
    # produce those silently instead of warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            perm = batch_rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = perm[start:start + batch_size]
                _backprop(weights, biases, xs[batch], ys[batch],
                          grad_w, grad_b)
                if optimizer == "sgd":
                    theta -= lr * grad
                else:
                    step += 1
                    corr1 = 1.0 - beta1 ** step
                    corr2 = 1.0 - beta2 ** step
                    m = beta1 * m + (1 - beta1) * grad
                    v = beta2 * v + (1 - beta2) * grad ** 2
                    theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
            epoch_loss = float(np.mean((forward(weights, biases, xs) - ys) ** 2))
            if not np.isfinite(epoch_loss):
                raise MlpDivergenceError(epoch)

    return MlpModel(widths=widths, weights=weights, biases=biases,
                    x_mean=x_mean, x_scale=x_scale, y_mean=y_mean,
                    y_scale=y_scale, seed=seed,
                    params={"widths": list(widths), "epochs": epochs, "lr": lr,
                            "optimizer": optimizer, "batch_size": batch_size},
                    feature_names=feature_names, imputation=imputation)


def predict_mlp(model: MlpModel, X: np.ndarray) -> np.ndarray:
    xs = (X - model.x_mean) / model.x_scale
    return forward(model.weights, model.biases, xs) * model.y_scale + model.y_mean
