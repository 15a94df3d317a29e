"""Feature importance and recursive feature elimination.

Importance sources: tree ensembles (forest, boosting) credit each feature
with its total impurity (variance) reduction summed over all split nodes,
normalized to sum 1 when any split exists; the linear model reports the
absolute standardized coefficients (|coef * scale|), also normalized. The
MLP has no defined importance and is rejected.

RFE repeatedly fits the estimator, scores the surviving features and drops
the ``step`` lowest-importance ones (never cutting below ``n_keep``) until
exactly ``n_keep`` remain. Equal importances eliminate in lexicographic
feature-name order, which makes every run a pure function of
(X, y, estimator spec, seed). Ranks are a permutation of 1..p: the features
eliminated first receive the worst (highest) ranks, batch-internal order
following elimination order, and the kept features receive ranks
1..n_keep by descending final importance (names break ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .regressors import family, model_kind, train_model
from .util import numbers, write_csv


class ImportanceError(ValueError):
    pass


@dataclass(frozen=True)
class EstimatorSpec:
    """Which predictor drives RFE, with its parameters."""

    kind: str = "rfr"           # a predictor kind with an importance
    params: dict = field(default_factory=dict)


@dataclass
class FeatureRanking:
    ranks: dict[str, int]               # 1 = kept longest
    kept: list[str]                     # size n_keep, canonical name order
    trace: list[tuple[str, int, float]]  # (feature, iteration, importance)

    def write_csv(self, path: str) -> None:
        eliminated_at = {name: it for name, it, _ in self.trace}
        kept = set(self.kept)
        rows = [[name, self.ranks[name], "true" if name in kept else "false",
                 eliminated_at.get(name, "")]
                for name in sorted(self.ranks, key=self.ranks.get)]
        write_csv(path, ["feature", "rank", "kept", "eliminated_at_iteration"],
                  rows)


def _scorer(kind: str):
    scorer = family(kind).importance
    if scorer is None:
        raise ImportanceError(
            f"importance undefined for this predictor ({kind})")
    return scorer


def importance(model) -> np.ndarray:
    """Per-feature non-negative importances; sums to 1 when any is positive."""
    scores = _scorer(model_kind(model))(model)
    total = scores.sum()
    return scores / total if total > 0 else scores


def rfe(X: np.ndarray, y: np.ndarray, feature_names: list[str],
        estimator: EstimatorSpec, n_keep: int, step: int = 1,
        seed: int = 0) -> FeatureRanking:
    """Recursive feature elimination down to exactly ``n_keep`` features;
    a ValueError names the first row of ``y`` that is not a finite number."""
    p = len(feature_names)
    if X.shape[1] != p:
        raise ValueError("feature_names length does not match X columns")
    if not 1 <= n_keep <= p:
        raise ValueError(f"need 1 <= n_keep <= p, got n_keep={n_keep}, p={p}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    _scorer(estimator.kind)   # rejects unknown kinds and the MLP up front
    numbers(y, "targets", shape=(None,))

    remaining = list(feature_names)
    col_index = {name: i for i, name in enumerate(feature_names)}
    trace: list[tuple[str, int, float]] = []
    iteration = 0
    final_importance: dict[str, float] = {}
    while True:
        iteration += 1
        cols = [col_index[name] for name in remaining]
        try:
            model = train_model(estimator.kind, X[:, cols], y,
                                dict(estimator.params), seed, list(remaining))
        except Exception as exc:
            raise RuntimeError(
                f"estimator failed at RFE iteration {iteration}: {exc}") from exc
        scores = importance(model)
        final_importance = dict(zip(remaining, scores.tolist()))
        if len(remaining) <= n_keep:
            break
        n_drop = min(step, len(remaining) - n_keep)
        order = sorted(remaining, key=lambda name: (final_importance[name], name))
        for name in order[:n_drop]:
            trace.append((name, iteration, final_importance[name]))
            remaining.remove(name)

    # ranks: eliminated features count down from p in elimination order;
    # kept features take 1..n_keep by descending final importance
    ranks = {name: p - pos for pos, (name, _, _) in enumerate(trace)}
    ranks.update((name, pos + 1) for pos, name in enumerate(sorted(
        remaining, key=lambda name: (-final_importance[name], name))))
    kept = [name for name in feature_names if name in set(remaining)]
    return FeatureRanking(ranks=ranks, kept=kept, trace=trace)
