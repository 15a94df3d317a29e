"""Least-squares gradient boosting over regression trees.

The model starts from the training-target mean; each stage fits a CART
tree to the current residuals and the prediction accrues
``init + learning_rate * sum(tree_k(x))`` in stage order, an exact identity
(``staged_predict`` exposes every prefix). With subsample < 1 each stage
sees a without-replacement row sample drawn from the (seed, stage) stream;
residuals still update on all rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..rng import make_rng
from . import Model, decode_params, number_param, prepare_training
from ..util import POSITIVE
from .tree import TreeArrays, TreeGrower, leaf_values


@dataclass
class BoostModel(Model):
    init_value: float
    learning_rate: float
    trees: TreeArrays                 # one tree per stage, in stage order
    subsample: float
    seed: int


# max_depth None is unlimited
HYPERPARAMETERS = {
    "n_estimators": (100, number_param(0)),
    "max_depth": (3, number_param(0, also=(None,))),
    "min_split": (2, number_param(2)),
    "learning_rate": (0.1, number_param(POSITIVE, 1, True)),
    "subsample": (1.0, number_param(POSITIVE, 1, True)),
}


def train_gbr(X: np.ndarray, y: np.ndarray, params: dict, seed: int,
              feature_names: Optional[list[str]] = None) -> BoostModel:
    """Fit a boosting ensemble on the ``HYPERPARAMETERS`` of ``params``."""
    X, y, feature_names, imputation = prepare_training(X, y, feature_names)
    n = X.shape[0]
    if n < 2:
        raise ValueError("boosting needs at least 2 samples")
    settings = decode_params(HYPERPARAMETERS, params)
    lr, subsample = settings["learning_rate"], settings["subsample"]

    init_value = float(y.mean())
    residual = y - init_value
    grower = TreeGrower(X)
    trees = []
    for k in range(settings["n_estimators"]):
        if subsample < 1.0:
            rng = make_rng(seed, k)
            take = max(1, int(round(subsample * n)))
            rows = np.sort(rng.choice(n, size=take, replace=False))
        else:
            rows = np.arange(n)
        tree = grower.grow(residual, rows[None, :], settings["max_depth"],
                           settings["min_split"], None, None)
        residual = residual - lr * leaf_values(tree, X)[0]
        trees.append(tree.columns)
    return BoostModel(init_value=init_value, learning_rate=lr,
                      trees=TreeArrays.join(trees), subsample=subsample,
                      seed=seed, params=dict(params),
                      feature_names=feature_names, imputation=imputation)


def predict_gbr(model: BoostModel, X: np.ndarray) -> np.ndarray:
    return staged_predict(model, X)[-1]


def staged_predict(model: BoostModel, X: np.ndarray) -> list[np.ndarray]:
    """Predictions after 0, 1, ..., n_estimators stages (exact prefixes)."""
    acc = np.full(X.shape[0], model.init_value, dtype=np.float64)
    stages = [acc.copy()]
    for row in leaf_values(model.trees, X):
        acc += model.learning_rate * row
        stages.append(acc.copy())
    return stages
