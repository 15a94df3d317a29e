"""Linear regression with optional ridge (l2) or lasso (l1) penalties.

Training standardizes features internally (the stored per-feature mean and
scale); penalties act on the standardized coefficients, with the intercept
never penalized. The solver is exact normal equations for none/l2 (the l2
penalty adds lambda * I to the standardized normal matrix) and cyclic
coordinate descent with soft thresholding for l1, iterated to a 1e-8
max-update tolerance (or ``max_iter`` sweeps, with a warning). The stored
coefficients are back-transformed to original units, so
``prediction = intercept + coef . x`` exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import (Model, decode_params, number_param, prepare_training,
               standardize)
from ..util import POSITIVE, one_of


class SingularSystemError(ValueError):
    """Unpenalized least squares on a rank-deficient design."""


@dataclass
class LinearModel(Model):
    coefficients: np.ndarray      # original units
    intercept: float
    penalty: str                  # none | l1 | l2
    lam: float
    x_mean: np.ndarray
    x_scale: np.ndarray           # internal standardization parameters


def _soft_threshold(value: float, lam: float) -> float:
    if value > lam:
        return value - lam
    if value < -lam:
        return value + lam
    return 0.0


HYPERPARAMETERS = {
    "penalty": ("none", one_of(("none", "l1", "l2"))),
    "lam": (0.0, number_param(0, real=True)),
    "max_iter": (10000, number_param(0)),
    "tol": (1e-8, number_param(POSITIVE, real=True)),
}


def train_linear(X: np.ndarray, y: np.ndarray, params: Optional[dict] = None,
                 seed: int = 0,
                 feature_names: Optional[list[str]] = None) -> LinearModel:
    """Fit a linear model on the ``HYPERPARAMETERS`` of ``params``; the
    fit draws nothing, so ``seed`` is unused."""
    settings = decode_params(HYPERPARAMETERS, params or {})
    penalty, lam = settings["penalty"], settings["lam"]

    X, y, feature_names, imputation = prepare_training(X, y, feature_names)
    n, p = X.shape
    x_mean, x_scale, z = standardize(X)   # constant columns: coefficient 0
    y_mean = float(y.mean())
    yc = y - y_mean

    if (penalty == "none" or penalty == "l2" and lam == 0) \
            and np.linalg.matrix_rank(z) < p:
        raise SingularSystemError(
            "design matrix is rank deficient; an l2 penalty with lam > 0 "
            "would regularize the solve")
    if penalty == "none":
        beta, *_ = np.linalg.lstsq(z, yc, rcond=None)
    elif penalty == "l2":
        beta = np.linalg.solve(z.T @ z + lam * np.eye(p), z.T @ yc)
    else:
        # coordinate descent on (1/2n)||yc - z b||^2 + lam * |b|_1
        beta = np.zeros(p)
        residual = yc.copy()
        col_sq = (z ** 2).sum(axis=0) / n
        max_delta = float("inf")     # what a max_iter of 0 reports
        for _ in range(settings["max_iter"]):
            max_delta = 0.0
            for j in range(p):
                if col_sq[j] == 0:
                    continue
                rho = (z[:, j] @ residual) / n + col_sq[j] * beta[j]
                new = _soft_threshold(rho, lam) / col_sq[j]
                delta = new - beta[j]
                if delta != 0.0:
                    residual -= delta * z[:, j]
                    beta[j] = new
                    max_delta = max(max_delta, abs(delta))
            if max_delta < settings["tol"]:
                break
        else:
            logging.getLogger("radsurv").warning(
                "l1 fit did not converge: lam=%g, max_iter=%d, last max "
                "update %g", lam, settings["max_iter"], max_delta)

    coefficients = beta / x_scale
    intercept = y_mean - float(coefficients @ x_mean)
    return LinearModel(coefficients=coefficients, intercept=intercept,
                       penalty=penalty, lam=lam,
                       x_mean=x_mean, x_scale=x_scale,
                       params=settings,
                       feature_names=feature_names, imputation=imputation)


def predict_linear(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return model.intercept + X @ model.coefficients
