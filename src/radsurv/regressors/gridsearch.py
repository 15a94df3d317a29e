"""Grid search with deterministic k-fold cross-validation.

Fold assignment is a seeded permutation split into k nearly equal parts.
Every grid combination is scored by the mean validation MSE over the folds
(population standard deviation reported alongside); a combination that fails
to train scores None for both. The winner is the first combination attaining
the minimal mean among those that trained, and it is retrained on all data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..rng import make_rng
from ..util import finite, read_json


def resolve_grid(spec, kind: str):
    """Parameter list of a grid spec: None (or '') for no grid search,
    'default' for the stock grid of ``kind``, else a JSON file path, whose
    ``grid[i]`` a ValueError names if it holds a key no family reads."""
    from . import check_param_keys, family

    if not spec:
        return None
    if spec == "default":
        return family(kind).grid   # ValueError for an unknown kind
    if not os.path.isfile(spec):
        raise ValueError(f"{spec}: no grid file of that name ('default' "
                         "is the stock grid)")
    grid = read_json(spec, "grid file", kind=list)
    if not grid or not all(isinstance(combo, dict) for combo in grid):
        raise ValueError(f"{spec}: grid file must hold a non-empty array of "
                         "JSON objects")
    for i, combo in enumerate(finite(grid, f"{spec}: ")):
        check_param_keys(combo, f"{spec}: grid[{i}]")
    return grid


@dataclass
class GridSearchReport:
    grid: list[dict]
    mean_mse: list[float | None]    # None where training failed
    std_mse: list[float | None]
    best_index: int
    k: int
    seed: int
    errors: list = None   # per-combination failure message or None


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    perm = make_rng(seed, 0).permutation(n)
    return [fold for fold in np.array_split(perm, k)]


def grid_search_cv(kind: str, X: np.ndarray, y: np.ndarray, grid: list[dict],
                   k: int, seed: int, feature_names=None):
    """Returns (best model retrained on all data, GridSearchReport)."""
    from . import predict, train_model

    if not grid:
        raise ValueError("empty parameter grid")
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    n = X.shape[0]
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")

    folds = kfold_indices(n, k, seed)
    all_idx = np.arange(n)
    means = []
    stds = []
    errors = []
    for params in grid:
        fold_mse = []
        failure = None
        for fold in folds:
            train_idx = np.setdiff1d(all_idx, fold)
            try:
                model = train_model(kind, X[train_idx], y[train_idx], params,
                                    seed, feature_names)
            except Exception as exc:
                # an infeasible combination loses the search instead of
                # aborting it (e.g. an unpenalized solve on a singular fold)
                failure = str(exc)
                break
            err = predict(model, X[fold]) - y[fold]
            fold_mse.append(float(np.mean(err ** 2)))
        if failure is not None:
            means.append(None)
            stds.append(None)
            errors.append(failure)
        else:
            means.append(float(np.mean(fold_mse)))
            stds.append(float(np.std(fold_mse)))
            errors.append(None)

    succeeded = [i for i, e in enumerate(errors) if e is None]
    if not succeeded:
        raise RuntimeError(f"every grid combination failed; last: {errors[-1]}")
    best = min(succeeded, key=means.__getitem__)   # the first minimal mean
    report = GridSearchReport(grid=[dict(g) for g in grid], mean_mse=means,
                              std_mse=stds, best_index=best, k=k, seed=seed,
                              errors=errors)
    final = train_model(kind, X, y, grid[best], seed, feature_names)
    return final, report
