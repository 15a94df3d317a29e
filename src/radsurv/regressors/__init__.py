"""The four predictor families plus grid search and model persistence.

``FAMILIES`` is the one per-family table. An entry holds the model class
(a ``Model``), the trainer, the hyperparameter table, the predictor, the
decoders of the persisted parameters, the feature importance and the stock
grid of the family.

Missing feature values (NaN, e.g. an absent necrosis centroid) are imputed
at training time with the per-feature training median; the imputation
vector is stored on every model and re-applied at prediction, so trained
models never see NaN. A column that is entirely missing imputes to 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..util import POSITIVE, fields, of_type

__all__ = [
    "Model", "LinearModel", "ForestModel", "BoostModel", "MlpModel",
    "TreeArrays", "TreeNode", "SingularSystemError", "MlpDivergenceError",
    "GridSearchReport", "train_linear", "train_forest", "train_gbr",
    "train_mlp", "train_model", "predict", "staged_predict", "grid_search_cv",
    "save_model", "load_model", "prepare_training", "impute", "standardize",
    "PREDICTOR_KINDS", "FAMILIES", "family", "model_kind",
    "check_param_keys",
]


@dataclass
class Model:
    """What every family's model holds besides its learned parameters."""

    params: dict                # the hyperparameters it was trained with
    feature_names: list[str]    # training column order
    imputation: np.ndarray      # per-feature training median

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def prepare_training(X: np.ndarray, y: np.ndarray,
                     feature_names: Optional[list[str]]):
    """Validate shapes, impute missing values, default the feature names."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
    if np.isnan(y).any():
        raise ValueError("training targets contain NaN")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    elif len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length does not match X columns")

    # one call for the NaN-free columns; a column with NaN needs its own mask
    missing = np.isnan(X)
    clean = ~missing.any(axis=0)
    imputation = np.zeros(X.shape[1])
    if X.shape[0]:
        imputation[clean] = np.median(X[:, clean], axis=0)
    for j in np.flatnonzero(~clean):
        good = ~missing[:, j]
        imputation[j] = float(np.median(X[good, j])) if good.any() else 0.0
    X = impute(X, imputation)
    return X, y, list(feature_names), imputation


FLOAT_MAX = sys.float_info.max


def number_param(low, high=FLOAT_MAX, real: bool = False, also: tuple = ()):
    """The rule ``(value, key)`` of a numeric hyperparameter: a string or
    None in ``also``, or an integer (with ``real``, a number, as a float)
    in ``low``..``high`` (``util.POSITIVE``: above 0). A bool is not a
    number and 50.0 not an integer; a ValueError names the key and value."""
    kinds = (int, np.integer) + ((float, np.floating) if real else ())

    def decode(value, key: str):
        if isinstance(value, (str, type(None))) and value in also:
            return value
        if (not isinstance(value, bool) and isinstance(value, kinds)
                and low <= value <= high):
            return float(value) if real else int(value)
        choices = "".join(f"{'null' if a is None else repr(a)} or "
                          for a in also)
        bounds = ("> 0" if low == POSITIVE else f">= {low:g}") + (
            "" if high == FLOAT_MAX else f" and <= {high:g}")
        noun = "a number" if real else "an integer"
        raise ValueError(f"{key} must be {choices}{noun} {bounds}, "
                         f"got {value!r}")
    return decode


def decode_params(table: dict, params: dict) -> dict:
    """``params`` decoded over a family's ``HYPERPARAMETERS``, by key."""
    return {key: rule(params.get(key, default), key)
            for key, (default, rule) in table.items()}


def impute(X: np.ndarray, imputation: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if np.isnan(X).any():
        X = X.copy()
        rows, cols = np.nonzero(np.isnan(X))
        X[rows, cols] = np.asarray(imputation)[cols]
    return X


def standardize(X: np.ndarray):
    """Column means, scales (1 for a constant column) and standardized X."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    return mean, scale, (X - mean) / scale


# each family's module imports the definitions above
from . import boosting, linear, mlp, tree
from .linear import (LinearModel, SingularSystemError, train_linear,
                     predict_linear)
from .tree import (ForestModel, TreeArrays, TreeNode, train_forest,
                   predict_forest, feature_gains)
from .boosting import BoostModel, train_gbr, predict_gbr, staged_predict
from .mlp import MlpModel, MlpDivergenceError, train_mlp, predict_mlp
from .gridsearch import GridSearchReport, grid_search_cv
from .persist import (save_model, load_model, as_arrays, as_counts,
                      as_forest, as_real, as_scales, as_trees, as_vector)


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one predictor family.

    ``fields`` maps each learned attribute persisted under ``parameters`` in
    model.json to the decoder ``(JSON value, key path, feature count)`` that
    checks it and rebuilds it, raising a ValueError that names the path.
    ``importance`` returns unnormalized non-negative per-feature scores; it
    is None for a family with no defined importance, which RFE rejects.
    ``grid`` is the small desk-scale grid that ``--grid default`` searches.
    ``hyperparameters`` is its module's ``HYPERPARAMETERS`` table, which
    ``settings`` decodes from ``params`` (a ValueError names a bad value),
    so they can be checked before any data is read.
    """

    model_class: type   # a Model subclass
    train: Callable     # (X, y, params, seed, feature_names) -> model
    hyperparameters: dict[str, tuple]   # key -> (default, rule)
    predict: Callable   # (model, imputed X) -> predicted days
    fields: dict[str, Callable]
    importance: Optional[Callable]
    grid: list[dict]

    def settings(self, params: dict) -> dict:
        return decode_params(self.hyperparameters, params)


def _standardized_coefficients(model: LinearModel) -> np.ndarray:
    return np.abs(model.coefficients * model.x_scale)


FAMILIES: dict[str, Family] = {
    "linear": Family(
        LinearModel, train_linear, linear.HYPERPARAMETERS, predict_linear,
        {"coefficients": as_vector, "intercept": as_real, "lam": as_real,
         "penalty": of_type(str), "x_mean": as_vector,
         "x_scale": as_scales},
        _standardized_coefficients,
        [{"penalty": "none"}]
        + [{"penalty": p, "lam": lam, "max_iter": 10000}
           for p in ("l1", "l2") for lam in (0.01, 0.1, 1.0, 10.0)]),
    "rfr": Family(
        ForestModel, train_forest, tree.HYPERPARAMETERS, predict_forest,
        {"trees": as_forest, "bootstrap": of_type(bool),
         "max_features_rule": of_type(str)},
        feature_gains,
        [{"n_trees": n, "max_depth": d}
         for n in (25, 50, 100) for d in (4, 8, None)]),
    "gbr": Family(
        BoostModel, train_gbr, boosting.HYPERPARAMETERS, predict_gbr,
        {"init_value": as_real, "learning_rate": as_real, "trees": as_trees,
         "subsample": as_real},
        feature_gains,
        [{"n_estimators": n, "max_depth": d, "min_split": s,
          "learning_rate": lr}
         for n in (50, 100) for d in (2, 3) for s in (2, 8)
         for lr in (0.05, 0.1)]),
    "mlp": Family(
        MlpModel, train_mlp, mlp.HYPERPARAMETERS, predict_mlp,
        {"widths": as_counts, "weights": as_arrays, "biases": as_arrays,
         "x_mean": as_vector, "x_scale": as_scales, "y_mean": as_real,
         "y_scale": as_real},
        None,
        [{"epochs": e, "lr": lr, "widths": w, "optimizer": opt}
         for e in (100, 300) for lr in (1e-3, 3e-3)
         for w in ((32, 24, 16, 12, 8), (64, 48, 32, 16, 8))
         for opt in ("adam", "sgd")]),
}

PREDICTOR_KINDS = tuple(FAMILIES)
_ANY_KEY = {key: (lambda value, where: value)
            for fam in FAMILIES.values() for key in fam.hyperparameters}


def check_param_keys(params: dict, where: str = "") -> dict:
    """``params``, once some family's table declares each key (shared params
    go to every family); a ValueError names the first other key's path."""
    return fields(params, _ANY_KEY, where, unknown="{key} is not a "
                  "hyperparameter of any predictor family")


def family(kind: str) -> Family:
    """The table entry of a predictor kind; ValueError for an unknown kind."""
    if kind not in FAMILIES:
        raise ValueError(
            f"unknown predictor kind {kind!r}, expected {PREDICTOR_KINDS}")
    return FAMILIES[kind]


def model_kind(model: Model) -> str:
    for kind, fam in FAMILIES.items():
        if type(model) is fam.model_class:
            return kind
    raise TypeError(f"unknown model type {type(model).__name__}")


def train_model(kind: str, X: np.ndarray, y: np.ndarray, params: dict,
                seed: int, feature_names: Optional[list[str]] = None) -> Model:
    """Uniform training entry point over the four predictor kinds."""
    return family(kind).train(X, y, params, seed, feature_names)


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Predict survival days; feature order must match training order."""
    predictor = FAMILIES[model_kind(model)].predict
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"X shape {X.shape} does not match the model's "
            f"{model.n_features} features")
    return predictor(model, impute(X, model.imputation))
