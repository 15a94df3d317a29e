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

from . import Model, int_param, prepare_training, standardize


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


def linear_settings(params: dict) -> tuple:
    """(penalty, lam, max_iter, tol) of ``params``: penalty ('none', 'l1'
    or 'l2'), lam (>= 0 under a penalty), max_iter (an integer, default
    10000, at least 0) and tol."""
    penalty = params.get("penalty", "none")
    lam = float(params.get("lam", 0.0))
    max_iter = int_param(params, "max_iter", 10000, 0)
    tol = float(params.get("tol", 1e-8))
    if penalty not in ("none", "l1", "l2"):
        raise ValueError(f"penalty must be none/l1/l2, got {penalty!r}")
    if penalty != "none" and lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return penalty, lam, max_iter, tol


def train_linear(X: np.ndarray, y: np.ndarray, params: Optional[dict] = None,
                 seed: int = 0,
                 feature_names: Optional[list[str]] = None) -> LinearModel:
    """Fit a linear model on ``linear_settings(params)``; the fit draws
    nothing, so ``seed`` is unused."""
    penalty, lam, max_iter, tol = linear_settings(params or {})

    X, y, feature_names, imputation = prepare_training(X, y, feature_names)
    n, p = X.shape
    x_mean, x_scale, z = standardize(X)   # constant columns: coefficient 0
    y_mean = float(y.mean())
    yc = y - y_mean

    if penalty == "none":
        if np.linalg.matrix_rank(z) < p:
            raise SingularSystemError(
                "design matrix is rank deficient; an l2 penalty would "
                "regularize the solve")
        beta, *_ = np.linalg.lstsq(z, yc, rcond=None)
    elif penalty == "l2":
        beta = np.linalg.solve(z.T @ z + lam * np.eye(p), z.T @ yc)
    else:
        # coordinate descent on (1/2n)||yc - z b||^2 + lam * |b|_1
        beta = np.zeros(p)
        residual = yc.copy()
        col_sq = (z ** 2).sum(axis=0) / n
        max_delta = float("inf")     # what a max_iter of 0 reports
        for _ in range(max_iter):
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
            if max_delta < tol:
                break
        else:
            logging.getLogger("radsurv").warning(
                "l1 fit did not converge: lam=%g, max_iter=%d, last max "
                "update %g", lam, max_iter, max_delta)

    coefficients = beta / x_scale
    intercept = y_mean - float(coefficients @ x_mean)
    return LinearModel(coefficients=coefficients, intercept=intercept,
                       penalty=penalty, lam=lam,
                       x_mean=x_mean, x_scale=x_scale,
                       params={"penalty": penalty, "lam": lam,
                               "max_iter": max_iter, "tol": tol},
                       feature_names=feature_names, imputation=imputation)


def predict_linear(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return model.intercept + X @ model.coefficients
