"""Survival binning, the five evaluation metrics and the experiment matrix.

Survival classes use 1 month = 30.4375 days (Julian year / 12), so the
default thresholds are t_lo = 304.375 and t_hi = 456.5625 days: short below
t_lo, long above t_hi, intermediate in between with both boundaries
inclusive. The convention is configurable and recorded in every metrics
file; t_lo above t_hi, which leaves no day intermediate, is rejected.

Metrics over paired (predicted, true) day vectors: class accuracy, mean
squared error, median squared error (mean of the two central values for
even n), the population standard deviation of the squared errors, and
Spearman's rank correlation with average ranks on ties.

Experiments train on every subject regardless of resection status and
evaluate on the GTR subset by default (an ``all`` filter mirrors the
training-side usage). Feature sets: the seven image features, the 107
radiomics features, the RFE top 20, and the shape set (mask amounts,
extent, WT and necrosis centroids, the 14 radiomics shape descriptors and
age). The matrix resolves each set once, so rfe20 runs RFE once, and
``save_fit`` writes model.json and grid_report.json for ``train`` and
every cell. Runs are pure functions of (cohort, plan): artifacts rewrite
byte-identically under the same master seed.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .cohort import Cohort
from .featselect import EstimatorSpec, rfe
from .radiomics import FEATURE_COLUMNS
from .regressors import family, grid_search_cv, predict, save_model, train_model
from .regressors.gridsearch import resolve_grid
from .util import fmt_float, write_csv, write_json
from .volumeio import RESECTION_STATUSES

DAYS_PER_MONTH = 30.4375
DEFAULT_THRESHOLDS = (10 * DAYS_PER_MONTH, 15 * DAYS_PER_MONTH)

FEATURE_SETS = ("image7", "radiomics107", "rfe20", "shape")

# resection statuses each evaluation filter keeps
EVAL_STATUSES = {"GTR": ("GTR",), "all": RESECTION_STATUSES}

METRICS_COLUMNS = ("dataset", "feature_set", "predictor", "accuracy", "mse",
                   "median_se", "std_se", "spearman_r", "n", "seed",
                   "thresholds")


class MetricsError(ValueError):
    pass


@dataclass
class Metrics:
    accuracy: float
    mse: float
    median_se: float
    std_se: float
    spearman_r: float
    n: int

    def row(self, dataset: str, feature_set: str, predictor: str, seed: int,
            thresholds) -> list:
        return [dataset, feature_set, predictor, self.accuracy, self.mse,
                self.median_se, self.std_se, self.spearman_r, self.n, seed,
                f"{fmt_float(thresholds[0])}:{fmt_float(thresholds[1])}"]


@dataclass(frozen=True)
class ExperimentPlan:
    feature_set: str
    predictor: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    grid: Optional[str] = None          # grid spec, see resolve_grid
    cv_folds: int = 3
    eval_filter: str = "GTR"            # a key of EVAL_STATUSES
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
    rfe_estimator: EstimatorSpec = EstimatorSpec("rfr", {})
    rfe_step: int = 1

    def __post_init__(self):
        if self.feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature_set {self.feature_set!r}")
        family(self.predictor)   # ValueError for an unknown predictor kind
        if self.eval_filter not in EVAL_STATUSES:
            raise ValueError(
                f"eval_filter must be one of {tuple(EVAL_STATUSES)}")
        check_thresholds(self.thresholds)


def check_thresholds(thresholds, names=("t_lo", "t_hi")):
    """``thresholds`` as given, or a ValueError naming both settings when
    t_lo is above t_hi, which leaves no survival intermediate."""
    (t_lo, t_hi), (lo, hi) = thresholds, names
    if t_lo > t_hi:
        raise ValueError(f"{lo} {t_lo} is above {hi} {t_hi}, which leaves "
                         "no survival intermediate")
    return thresholds


def bin_survival(days: float, thresholds=DEFAULT_THRESHOLDS) -> str:
    """Class of a survival duration; boundary days are intermediate."""
    if days < 0:
        raise ValueError(f"survival days must be >= 0, got {days}")
    t_lo, t_hi = thresholds
    if days < t_lo:
        return "short"
    if days > t_hi:
        return "long"
    return "intermediate"


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the mean rank."""
    _, group, counts = np.unique(np.asarray(x, dtype=np.float64),
                                 return_inverse=True, return_counts=True)
    # a group of c equal values from sorted position i has mean rank
    # i + (c + 1) / 2, a half-integer and so exact
    return (np.cumsum(counts) - counts + (counts + 1) / 2.0)[group]


def spearman(x, y) -> float:
    """Spearman's rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise MetricsError("spearman needs two equal-length vectors, n >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise MetricsError("spearman inputs must be finite")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise MetricsError("undefined correlation: zero rank variance")
    return float((dx @ dy) / np.sqrt(vx * vy))


def evaluate(pred_days, true_days, thresholds=DEFAULT_THRESHOLDS) -> Metrics:
    """The five metrics over paired prediction/truth day vectors; a
    MetricsError where a squared error is too large for a float."""
    pred = np.asarray(pred_days, dtype=np.float64)
    true = np.asarray(true_days, dtype=np.float64)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size < 2:
        raise MetricsError("evaluate needs two equal-length vectors, n >= 2")
    pred_cls = [bin_survival(max(d, 0.0), thresholds) for d in pred]
    true_cls = [bin_survival(d, thresholds) for d in true]
    correct = sum(p == t for p, t in zip(pred_cls, true_cls))
    with np.errstate(over="ignore"):    # rejected below, not warned of
        se = (pred - true) ** 2
    if not np.isfinite(se).all():
        raise MetricsError("a squared error overflows")
    return Metrics(
        accuracy=correct / pred.size,
        mse=float(se.mean()),
        median_se=float(np.median(se)),
        std_se=float(se.std()),
        spearman_r=spearman(pred, true),
        n=int(pred.size),
    )


def feature_set_columns(name: str) -> tuple[str, ...]:
    """The cohort columns a feature set reads: rfe20 ranks radiomics107's."""
    return FEATURE_COLUMNS["radiomics107" if name == "rfe20" else name]


def resolve_feature_set(name: str, cohort: Cohort, plan: ExperimentPlan):
    """(feature names, RFE ranking) of a set; the ranking is None but for
    rfe20, whose RFE pass over the radiomics107 columns depends on the plan
    only through its seed and RFE settings."""
    names = list(feature_set_columns(name))
    if name != "rfe20":
        return names, None
    ranking = rfe(cohort.select(names), cohort.known_survival(), names,
                  plan.rfe_estimator, n_keep=20, step=plan.rfe_step,
                  seed=plan.seed)
    return list(ranking.kept), ranking


def fit(kind: str, X: np.ndarray, y: np.ndarray, params: dict, grid,
        cv_folds: int, seed: int, names: list[str]):
    """Train one model: on ``params``, or by CV grid search when the grid
    spec resolves to a parameter list. Returns (model, GridSearchReport or
    None)."""
    grid = resolve_grid(grid, kind)
    if grid is None:
        return train_model(kind, X, y, params, seed, names), None
    return grid_search_cv(kind, X, y, grid, cv_folds, seed, names)


def save_fit(outdir: str, model, grid_report) -> None:
    """Write what ``fit`` returned: model.json and, after a grid search,
    grid_report.json, the one writer of both for train and every cell."""
    save_model(model, os.path.join(outdir, "model.json"))
    if grid_report is not None:
        write_json(os.path.join(outdir, "grid_report.json"),
                   asdict(grid_report))


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    train_metrics: Metrics
    eval_metrics: Metrics
    feature_names: list[str]
    rows: list[list]                # the train and eval rows of metrics.csv


def run_experiment(cohort: Cohort, plan: ExperimentPlan,
                   outdir: Optional[str] = None,
                   selection: Optional[tuple] = None) -> ExperimentResult:
    """Train one (feature set, predictor) cell and evaluate it, writing its
    files once both evaluations succeed. ``selection`` is the set's
    ``resolve_feature_set`` pair, if the caller has resolved it."""
    y = cohort.known_survival()
    mask = cohort.resection_mask(EVAL_STATUSES[plan.eval_filter])
    if not mask.any():
        raise MetricsError(
            f"evaluation set is empty after {plan.eval_filter} filtering")
    names, ranking = selection or resolve_feature_set(plan.feature_set,
                                                      cohort, plan)
    X = cohort.select(names)
    eval_cohort = cohort.subset(mask)
    model, grid_report = fit(plan.predictor, X, y, plan.params, plan.grid,
                             plan.cv_folds, plan.seed, names)
    train_metrics = evaluate(predict(model, X), y, plan.thresholds)
    eval_metrics = evaluate(predict(model, eval_cohort.select(names)),
                            eval_cohort.survival_days, plan.thresholds)
    rows = [metrics.row(dataset, plan.feature_set, plan.predictor, plan.seed,
                        plan.thresholds) for dataset, metrics in
            (("train", train_metrics), ("eval", eval_metrics))]
    if outdir is not None:
        save_fit(outdir, model, grid_report)
        write_csv(os.path.join(outdir, "metrics.csv"), METRICS_COLUMNS, rows)
        if ranking is not None:
            ranking.write_csv(os.path.join(outdir, "ranking.csv"))
    return ExperimentResult(plan=plan, train_metrics=train_metrics,
                            eval_metrics=eval_metrics, feature_names=names,
                            rows=rows)


def run_experiment_matrix(cohort: Cohort, feature_sets: list[str],
                          predictors: list[str], seed: int,
                          outdir: Optional[str] = None,
                          base_plan: Optional[dict] = None):
    """Run every (feature set, predictor) cell; one metrics row per dataset.

    Returns (results, paths): per-cell results in row-major order plus the
    matrix-level metrics CSV paths (metrics_train.csv / metrics_eval.csv,
    one row per cell); a cell's error starts ``<feature_set>__<predictor>: ``.
    """
    base = base_plan or {}
    # every plan is built, and so every name checked, before any cell runs
    plans = [ExperimentPlan(feature_set=fs, predictor=pred, seed=seed, **base)
             for fs in feature_sets for pred in predictors]
    # the plans of a set differ only in predictor: one resolution each
    last = {plan.feature_set: plan for plan in plans}
    selections = {fs: resolve_feature_set(fs, cohort, plan)
                  for fs, plan in last.items()}
    results = []
    for plan in plans:
        cell = f"{plan.feature_set}__{plan.predictor}"
        try:
            results.append(run_experiment(
                cohort, plan, os.path.join(outdir, cell) if outdir else None,
                selections[plan.feature_set]))
        except (ValueError, RuntimeError) as exc:   # kept, with its fields
            exc.args = (f"{cell}: {exc}",)
            raise
    paths = {} if outdir is None else {
        f"metrics_{dataset}": os.path.join(outdir, f"metrics_{dataset}.csv")
        for dataset in ("train", "eval")}
    for i, path in enumerate(paths.values()):   # the train, then eval rows
        write_csv(path, METRICS_COLUMNS, [r.rows[i] for r in results])
    return results, paths
