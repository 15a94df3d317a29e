"""The stacked tree walk against the node-by-node reference walk.

``tree.leaf_values`` walks every tree of an ensemble at once; row t of its
result must hold, bit for bit, the leaf values ``oracles.predict_tree_bf``
finds walking tree t alone. The cases cover unlimited-depth forests on
coarse, tied columns, one ensemble of trees of very different depths,
single-leaf trees, queries exactly at a threshold (they go left), zero
and one query rows, and trees that went through model.json.
"""

import numpy as np
import pytest

from oracles import predict_tree_bf
from radsurv.regressors import (load_model, predict, save_model,
                                train_forest, train_gbr)
from radsurv.regressors.tree import leaf_values


def assert_reference_leaves(trees, q):
    got = leaf_values(trees, q)
    assert got.shape == (len(trees), q.shape[0])
    for row, tree in zip(got, trees):
        assert row.tobytes() == predict_tree_bf(tree, q).tobytes()


def _coarse(seed, n=80, p=5):
    """Columns of 3-4 integer levels (many ties) and a target on them."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, (n, p)).astype(float)
    x[:, 1] = rng.integers(0, 3, n)
    y = 100.0 * x[:, 0] - 40.0 * x[:, 1] * x[:, 2] + rng.standard_normal(n)
    return x, y


@pytest.mark.parametrize("seed", range(3))
def test_unlimited_depth_forest_on_tied_columns(seed):
    x, y = _coarse(seed)
    model = train_forest(x, y, {"n_trees": 12, "max_depth": None}, seed)
    fresh = np.random.default_rng(seed).uniform(-1, 4, x.shape)
    assert_reference_leaves(model.trees, np.concatenate([x, fresh]))


def test_trees_of_very_different_depths_in_one_walk():
    x, y = _coarse(4)
    trees = []
    for depth in (0, 9, 1, None, 3):
        trees += train_forest(x, y, {"n_trees": 2, "max_depth": depth,
                                     "max_features": "all"}, 1).trees
    trees += train_gbr(x, y, {"n_estimators": 3, "max_depth": 2}, 0).trees
    depths = {_depth(tree) for tree in trees}
    assert min(depths) == 0 and max(depths) >= 6
    assert_reference_leaves(trees, np.random.default_rng(5).uniform(
        -1, 4, (50, x.shape[1])))


def _depth(node):
    if node.feature is None:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def test_constant_target_gives_single_leaf_trees():
    x, _ = _coarse(6)
    y = np.full(x.shape[0], 417.25)
    forest = train_forest(x, y, {"n_trees": 4}, 0)
    boost = train_gbr(x, y, {"n_estimators": 3}, 0)
    for trees in (forest.trees, boost.trees):
        assert all(tree.feature is None for tree in trees)
        assert_reference_leaves(trees, x)
    assert np.all(leaf_values(forest.trees, x) == 417.25)
    assert np.all(predict(boost, x) == boost.init_value)


def test_query_at_a_threshold_goes_left():
    x, y = _coarse(7)
    model = train_forest(x, y, {"n_trees": 6, "max_depth": None}, 2)
    q = x[:40].copy()
    for i, tree in enumerate(model.trees):
        node = tree
        while node.feature is not None:     # every split on one path
            q[i % 40, node.feature] = node.threshold
            node = node.left
    assert_reference_leaves(model.trees, q)
    stump = train_forest(np.array([[0.0], [1.0]]), np.array([3.0, 5.0]),
                         {"n_trees": 1, "bootstrap": False}, 0).trees
    assert stump[0].threshold == 0.5
    assert leaf_values(stump, np.array([[0.5], [0.5000001]])).tolist() == [
        [3.0, 5.0]]


@pytest.mark.parametrize("rows", [0, 1])
def test_zero_and_one_query_rows(rows):
    x, y = _coarse(8)
    model = train_gbr(x, y, {"n_estimators": 5, "max_depth": 3}, 0)
    q = x[:rows]
    assert_reference_leaves(model.trees, q)
    assert predict(model, q).shape == (rows,)
    assert leaf_values([], q).shape == (0, rows)


@pytest.mark.parametrize("kind", ["rfr", "gbr"])
def test_saved_and_loaded_trees_walk_to_the_same_bits(kind, tmp_path):
    x, y = _coarse(9)
    model = (train_forest(x, y, {"n_trees": 8, "max_depth": None}, 3)
             if kind == "rfr" else train_gbr(x, y, {"n_estimators": 20}, 3))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    q = np.random.default_rng(10).uniform(-1, 4, (60, x.shape[1]))
    assert leaf_values(loaded.trees, q).tobytes() == \
        leaf_values(model.trees, q).tobytes()
    assert predict(loaded, q).tobytes() == predict(model, q).tobytes()
    assert_reference_leaves(loaded.trees, q)
