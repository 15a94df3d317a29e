"""The level-synchronous tree grower against the node-by-node oracles.

With every feature searched, each grown tree must equal the recursive
per-node CART of ``oracles.grow_tree_bf`` node for node, bit for bit. With
feature subsets, each tree must equal ``oracles.grow_tree_levels_bf``,
which draws one uniform row per searched node and depth from the tree's
own stream. The remaining tests pin properties of that contract: trees
grown together equal trees grown alone, the block size never changes a
bit, every subset is ascending and of the requested size, reruns give
identical bytes, and the count hyperparameters are checked before any tree
grows.
"""

import json

import numpy as np
import pytest

import oracles
from radsurv.featselect import EstimatorSpec, rfe
from radsurv.regressors import (grid_search_cv, predict, save_model,
                                train_forest, train_gbr, train_model)
from radsurv.regressors import tree as tree_mod
from radsurv.regressors.tree import (TreeGrower, _smallest,
                                     resolve_max_features)
from radsurv.rng import make_rng


def _as_dict(node) -> dict:
    """A TreeNode as the nested dict the oracles build."""
    if node.feature is None:
        return {"n": node.n_samples, "value": node.value}
    return {"n": node.n_samples, "value": node.value, "feature": node.feature,
            "threshold": node.threshold, "gain": node.gain,
            "left": _as_dict(node.left), "right": _as_dict(node.right)}


def _text(tree) -> str:
    """Compact sorted JSON of a TreeNode or of an oracle's tree dict."""
    return json.dumps(tree if isinstance(tree, dict) else _as_dict(tree),
                      sort_keys=True)


def _column(rng, n, kind):
    if kind == "continuous":
        return rng.standard_normal(n)
    if kind == "coarse":                     # many tied values
        return rng.integers(0, 4, n).astype(float)
    if kind == "binary":
        return (rng.random(n) < 0.5).astype(float)
    return np.full(n, 2.5)                   # constant


def _problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 5, 9, 17, 40, 80]))
    p = int(rng.integers(1, 6))
    kinds = rng.choice(["continuous", "coarse", "binary", "constant"], p)
    x = np.column_stack([_column(rng, n, kind) for kind in kinds])
    y_kind = seed % 4
    if y_kind == 0:
        y = rng.standard_normal(n) * 100.0 + 400.0
    elif y_kind == 1:
        y = rng.integers(0, 3, n).astype(float)     # tied targets
    elif y_kind == 2:
        y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    else:
        y = np.full(n, 7.0) if seed % 8 == 3 else rng.random(n)
    return rng, x, y


@pytest.mark.parametrize("block", range(6))
def test_all_features_match_recursive_oracle(block):
    models = 0
    for seed in range(block * 25, block * 25 + 25):
        rng, x, y = _problem(seed)
        n = x.shape[0]
        n_trees = int(rng.integers(1, 4))
        if seed % 3:
            rows = rng.integers(0, n, (n_trees, n))
        else:
            rows = np.tile(np.arange(n), (n_trees, 1))
        max_depth = [0, 1, 2, 3, None][seed % 5]
        min_split = [2, 3, 4, 7][seed % 4]
        trees = TreeGrower(x).grow(y, rows, max_depth, min_split, None, None)
        for t, root in enumerate(trees):
            expected = oracles.grow_tree_bf(x[rows[t]], y[rows[t]],
                                            max_depth, min_split)
            assert _text(root) == _text(expected), (seed, t)
            models += 1
    assert models >= 40


def _forest_params(seed, p):
    rule = ["third", max(1, p - 1), 1][seed % 3]
    return {"n_trees": 1 + seed % 4, "max_features": rule,
            "bootstrap": seed % 5 != 0,
            "max_depth": [None, 2, 3, 5][seed % 4],
            "min_split": [2, 3, 5][seed % 3]}


@pytest.mark.parametrize("seed", range(40))
def test_subset_draws_match_level_order_oracle(seed):
    _, x, y = _problem(1000 + seed)
    x = np.column_stack([x, np.random.default_rng(seed).random(x.shape[0])])
    n, p = x.shape
    params = _forest_params(seed, p)
    model = train_forest(x, y, params, seed)
    mf = resolve_max_features(params["max_features"], p)
    assert mf < p
    for t, root in enumerate(model.trees):
        rng = make_rng(seed, t)
        rows = (rng.integers(0, n, size=n) if params["bootstrap"]
                else np.arange(n))
        expected = oracles.grow_tree_levels_bf(
            x[rows], y[rows], params["max_depth"], params["min_split"], mf,
            rng)
        assert _text(root) == _text(expected), t


def _wide_problem(seed=3, n=60, p=12):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, 1] = np.round(x[:, 1])              # ties
    x[:, 4] = 1.0                            # constant
    y = 3.0 * x[:, 0] - 2.0 * x[:, 2] ** 2 + rng.standard_normal(n)
    return x, y


def _streams(seed, n_trees, n):
    rngs = [make_rng(seed, t) for t in range(n_trees)]
    rows = np.array([rng.integers(0, n, size=n) for rng in rngs])
    return rows, rngs


def test_trees_grown_together_equal_trees_grown_alone():
    x, y = _wide_problem()
    rows, rngs = _streams(11, 6, x.shape[0])
    together = TreeGrower(x).grow(y, rows, None, 2, 4, rngs)
    alone_rows, alone_rngs = _streams(11, 6, x.shape[0])
    for t in range(6):
        root, = TreeGrower(x).grow(y, alone_rows[t:t + 1], None, 2, 4,
                                   [alone_rngs[t]])
        assert _text(root) == _text(together[t])


@pytest.mark.parametrize("seed", range(8))
def test_one_tree_equals_tree_zero_of_two_copies(seed):
    """A one-tree grow holds tree 0 of a grow over two copies of its rows,
    column by column and dtype by dtype."""
    rng, x, y = _problem(seed)
    rows = rng.integers(0, x.shape[0], size=(1, x.shape[0]))
    mf = None if seed % 2 else 1

    def grow(copies):
        rngs = [make_rng(seed, 0) for _ in range(copies)]
        return TreeGrower(x).grow(y, np.repeat(rows, copies, axis=0), None,
                                  2, mf, rngs)

    alone, pair = grow(1), grow(2)
    assert alone.sizes.tolist() == pair.sizes[:1].tolist()
    for key, column in alone.tree(0).items():
        assert column.dtype == pair.tree(0)[key].dtype, key
        assert np.array_equal(column, pair.tree(0)[key]), key


def _model_bytes(model, tmp_path) -> bytes:
    path = tmp_path / "model.json"
    save_model(model, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("budget", [1, 2 ** 30])
def test_block_budget_changes_no_bit(budget, tmp_path, monkeypatch):
    x, y = _wide_problem()
    fits = [lambda: train_forest(x, y, {"n_trees": 8}, 5),
            lambda: train_forest(x, y, {"n_trees": 3, "max_depth": 3,
                                        "max_features": "all"}, 5),
            lambda: train_gbr(x, y, {"n_estimators": 10, "subsample": 0.8},
                              5)]
    reference = [_model_bytes(fit(), tmp_path) for fit in fits]
    monkeypatch.setattr(tree_mod, "_BLOCK_ELEMENTS", budget)
    assert [_model_bytes(fit(), tmp_path) for fit in fits] == reference


def _stable_smallest(u, k):
    return np.sort(u.argsort(axis=1, kind="stable")[:, :k], axis=1)


@pytest.mark.parametrize("seed", range(20))
def test_smallest_draws_equal_the_stable_argsort(seed):
    """Random blocks, and blocks of few distinct values, so that most rows
    hold ties at their k-th smallest value (ties go to the lowest
    columns)."""
    rng = np.random.default_rng(seed)
    for levels in (None, 2, 3, 7):
        rows, p = int(rng.integers(1, 40)), int(rng.integers(2, 120))
        u = (rng.random((rows, p)) if levels is None
             else rng.integers(0, levels, (rows, p)) / levels)
        for k in {1, p // 3 or 1, p - 1}:
            got = _smallest(u, k)
            assert got.shape == (rows, k)
            assert got.tobytes() == _stable_smallest(u, k).tobytes(), k


def test_smallest_draws_with_ties_at_the_kth_value():
    u = np.array([[0.5, 0.1, 0.5, 0.5, 0.9],     # k-th value 0.5, thrice
                  [0.2, 0.2, 0.2, 0.2, 0.2],     # all equal
                  [0.7, 0.3, 0.3, 0.1, 0.3],     # 0.3 at columns 1, 2, 4
                  [0.4, 0.6, 0.1, 0.2, 0.3]])    # no tie
    for k in range(1, 5):
        assert _smallest(u, k).tobytes() == _stable_smallest(u, k).tobytes()
    assert _smallest(u, 2).tolist() == [[0, 1], [0, 1], [1, 3], [2, 3]]


def _count_splits(node) -> int:
    if node.feature is None:
        return 0
    return 1 + _count_splits(node.left) + _count_splits(node.right)


def test_every_split_subset_has_mf_ascending_indices(monkeypatch):
    x, y = _wide_problem()
    p = x.shape[1]
    seen = []
    original = TreeGrower._best_splits

    def recording(grower, src, ys, pos, starts, sizes, feats):
        feature, cut, gain = original(grower, src, ys, pos, starts, sizes,
                                      feats)
        seen.append((feats, feature, gain))
        return feature, cut, gain

    monkeypatch.setattr(TreeGrower, "_best_splits", recording)
    for rule, mf in [("third", 4), (5, 5), (1, 1)]:
        seen.clear()
        model = train_forest(x, y, {"n_trees": 5, "max_features": rule}, 2)
        splits = 0
        for feats, feature, gain in seen:
            assert feats.shape == (feature.size, mf)
            assert (feats >= 0).all() and (feats < p).all()
            assert (np.diff(feats, axis=1) > 0).all()
            for row, f, g in zip(feats, feature, gain):
                if g > 0:
                    assert f in row
                    splits += 1
        assert splits == sum(_count_splits(t) for t in model.trees) > 0


def test_identical_calls_give_identical_bytes(tmp_path):
    x, y = _wide_problem()
    for fit in (lambda: train_forest(x, y, {"n_trees": 7}, 9),
                lambda: train_gbr(x, y, {"n_estimators": 15,
                                         "subsample": 0.6}, 9)):
        assert _model_bytes(fit(), tmp_path) == _model_bytes(fit(), tmp_path)


@pytest.mark.parametrize("n_trees", [0, -3])
def test_forest_without_trees_rejected(n_trees):
    x, y = _wide_problem()
    with pytest.raises(ValueError, match="n_trees"):
        train_model("rfr", x, y, {"n_trees": n_trees}, 0)


@pytest.mark.parametrize("kind, params, message", [
    ("gbr", {"n_estimators": -3}, "n_estimators must be an integer >= 0, "
                                  "got -3"),
    ("gbr", {"n_estimators": 2.7}, "n_estimators .* got 2.7"),
    ("gbr", {"n_estimators": 50.0}, "n_estimators .* got 50.0"),
    ("rfr", {"n_trees": 2.5}, "n_trees must be an integer >= 1, got 2.5"),
    ("rfr", {"n_trees": True}, "n_trees .* got True"),
    ("rfr", {"max_depth": -2}, "max_depth must be null or an integer >= 0, "
                               "got -2"),
    ("gbr", {"max_depth": -2}, "max_depth .* got -2"),
    ("gbr", {"max_depth": 3.0}, "max_depth .* got 3.0"),
    ("rfr", {"min_split": -4}, "min_split must be an integer >= 2, got -4"),
    ("rfr", {"min_split": 0}, "min_split .* got 0"),
    ("gbr", {"min_split": 1}, "min_split .* got 1"),
    ("gbr", {"min_split": False}, "min_split .* got False"),
])
def test_tree_hyperparameters_checked_before_growth(kind, params, message):
    """Out-of-contract counts once truncated, fitted a constant model or
    acted as the smallest valid value; they now name the parameter."""
    x, y = _wide_problem()
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_model(kind, x, y, params, 0)


@pytest.mark.parametrize("kind, params", [
    ("gbr", {"n_estimators": 0, "max_depth": None, "min_split": 2}),
    ("gbr", {"n_estimators": np.int64(2), "max_depth": 0}),
    ("rfr", {"n_trees": 1, "max_depth": 0, "min_split": 2}),
    ("rfr", {"n_trees": 25, "max_depth": None}),
])
def test_tree_hyperparameters_at_their_bounds_accepted(kind, params):
    x, y = _wide_problem()
    assert predict(train_model(kind, x, y, params, 0), x).shape == y.shape


def test_bad_tree_hyperparameters_reach_every_entry_point():
    """A grid combination records the failure as its errors entry, and an
    RFE estimator fails at its first fit."""
    x, y = _wide_problem()
    _, report = grid_search_cv("gbr", x, y, [{"n_estimators": -3},
                                             {"n_estimators": 3}], 3, 0)
    assert report.errors == ["n_estimators must be an integer >= 0, got -3",
                             None]
    assert report.best_index == 1
    with pytest.raises(RuntimeError, match="iteration 1: n_trees .* 2.5$"):
        rfe(x, y, [f"f{j}" for j in range(x.shape[1])],
            EstimatorSpec("rfr", {"n_trees": 2.5}), n_keep=2)


@pytest.mark.parametrize("kind", ["rfr", "gbr"])
def test_matrix_without_columns_rejected(kind):
    y = np.arange(6.0)
    with pytest.raises(ValueError, match="at least 1 feature, got 0"):
        train_model(kind, np.zeros((6, 0)), y, {}, 0)
