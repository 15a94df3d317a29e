"""Tree ensembles held as level-order node arrays.

Importance must add each tree's split gains in the order of the former
stack walk (``oracles.split_gains_bf``), since RFE breaks ties on those
bits; a model.json round trip must give back equal arrays, importances and
predictions; training, prediction, importance, save and load must make no
``TreeNode`` view; and the benchmark's node counter, which walks views,
must count every node the arrays hold.
"""

import os
import sys

import numpy as np
import pytest

from oracles import split_gains_bf
from radsurv.featselect import importance
from radsurv.regressors import (load_model, predict, save_model,
                                staged_predict, train_model)
from radsurv.regressors import tree as tree_mod
from radsurv.regressors.tree import TreeArrays

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.workloads import _node_count               # noqa: E402


def _problem(seed=0, n=50, p=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, 2] = np.round(x[:, 2])             # ties
    y = 5.0 * x[:, 0] - 3.0 * x[:, 1] ** 2 + rng.standard_normal(n)
    return x, y


FITS = {"rfr": {"n_trees": 6, "max_depth": None},
        "gbr": {"n_estimators": 8, "max_depth": 3}}


def _fit(kind, seed=0):
    x, y = _problem(seed)
    return train_model(kind, x, y, FITS[kind], seed), x


def _round_trip(model, tmp_path):
    path = str(tmp_path / "model.json")
    save_model(model, path)
    return load_model(path)


def _random_tree(rng, p):
    """One tree's columns, grown breadth first: each node splits on one of
    ``p`` features with probability 0.6 until 40 nodes, with gains spread
    over 20 decades so their float sum depends on its order."""
    columns = {key: [] for key in tree_mod.COLUMNS}
    n_nodes, i = 1, 0
    while i < n_nodes:
        split = n_nodes < 40 and rng.random() < 0.6
        columns["feature"].append(int(rng.integers(0, p)) if split else -1)
        columns["threshold"].append(float(rng.standard_normal()))
        columns["gain"].append(float(10.0 ** rng.uniform(-4, 16))
                               if split else 0.0)
        columns["left"].append(n_nodes if split else -1)
        columns["right"].append(n_nodes + 1 if split else -1)
        columns["value"].append(float(rng.standard_normal()))
        columns["n"].append(1)
        n_nodes += 2 * split
        i += 1
    return columns


def _holding(trees, p):
    """A gbr model of ``p`` features whose trees are ``trees``."""
    model, _ = _fit("gbr")
    model.trees = trees
    model.feature_names = [f"f{j}" for j in range(p)]
    return model


def _normalized(gains):
    return gains / gains.sum()


def test_importance_adds_gains_in_stack_order_on_a_hand_built_tree():
    """Feature 0 splits four times; a stack walk adds 1e16 before two of
    the 1.0 gains, which then round away, while the level order of the
    arrays adds them first."""
    trees = TreeArrays.join([{
        "feature": [0, 0, 0, 0, -1, -1, -1, -1, -1],
        "threshold": [0.0] * 9,
        "gain": [1.0, 1.0, 1e16, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "left": [1, 3, 5, 7, -1, -1, -1, -1, -1],
        "right": [2, 4, 6, 8, -1, -1, -1, -1, -1],
        "value": [0.0] * 9, "n": [1] * 9}])
    expected = split_gains_bf(trees, 2)
    assert expected.tolist() == [1e16, 0.0]
    level_order = np.zeros(2)
    np.add.at(level_order, trees.columns["feature"][:4],
              trees.columns["gain"][:4])
    assert level_order.tolist() != expected.tolist()
    model = _holding(trees, 2)
    assert tree_mod.feature_gains(model).tobytes() == expected.tobytes()
    assert importance(model).tobytes() == _normalized(expected).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_importance_matches_stack_oracle_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    p = 3
    trees = TreeArrays.join([_random_tree(rng, p) for _ in range(7)])
    expected = split_gains_bf(trees, p)
    model = _holding(trees, p)
    assert tree_mod.feature_gains(model).tobytes() == expected.tobytes()
    assert importance(model).tobytes() == _normalized(expected).tobytes()


@pytest.mark.parametrize("kind", ["rfr", "gbr"])
def test_importance_of_fitted_models_matches_stack_oracle(kind):
    model, x = _fit(kind, 3)
    expected = split_gains_bf(model.trees, x.shape[1])
    assert importance(model).tobytes() == _normalized(expected).tobytes()


@pytest.mark.parametrize("kind", ["rfr", "gbr"])
def test_round_trip_keeps_arrays_importances_and_predictions(kind,
                                                             tmp_path):
    model, x = _fit(kind, 1)
    loaded = _round_trip(model, tmp_path)
    assert loaded.trees.sizes.tolist() == model.trees.sizes.tolist()
    for key, column in model.trees.columns.items():
        assert loaded.trees.columns[key].dtype == column.dtype
        assert loaded.trees.columns[key].tobytes() == column.tobytes(), key
    assert importance(loaded).tobytes() == importance(model).tobytes()
    q = np.random.default_rng(2).uniform(-3, 3, (40, x.shape[1]))
    assert predict(loaded, q).tobytes() == predict(model, q).tobytes()


def test_file_with_children_out_of_level_order_predicts_by_its_links(
        tmp_path):
    """model.json may place a split's right child before its left one (or
    anywhere later in the tree); prediction and importance follow the
    stored links."""
    model, x = _fit("gbr")
    model.trees = TreeArrays.join([{
        "feature": [0, -1, 1, -1, -1], "threshold": [0.0, 0.0, 0.5, 0.0, 0.0],
        "gain": [2.0, 0.0, 1.0, 0.0, 0.0], "left": [2, -1, 4, -1, -1],
        "right": [1, -1, 3, -1, -1], "value": [0.0, 10.0, 0.0, 20.0, 30.0],
        "n": [4, 2, 2, 1, 1]}])
    loaded = _round_trip(model, tmp_path)
    q = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 1.0], [0.0, 0.5]])
    q = np.pad(q, ((0, 0), (0, x.shape[1] - 2)))
    expected = loaded.init_value + loaded.learning_rate * np.array(
        [10.0, 30.0, 20.0, 30.0])
    assert predict(loaded, q).tobytes() == expected.tobytes()
    assert importance(loaded).tolist()[:2] == [2 / 3, 1 / 3]


@pytest.mark.parametrize("kind", ["rfr", "gbr"])
def test_no_node_view_on_the_model_paths(kind, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a TreeNode view was made")

    monkeypatch.setattr(tree_mod.TreeNode, "__init__", refuse)
    model, x = _fit(kind)
    predict(model, x)
    if kind == "gbr":
        staged_predict(model, x)
    importance(model)
    predict(_round_trip(model, tmp_path), x)
    with pytest.raises(AssertionError, match="view"):
        model.trees[0]


@pytest.mark.parametrize("kind", ["rfr", "gbr"])
def test_benchmark_node_counter_counts_every_stored_node(kind, tmp_path):
    """``perfbench``'s ``regressors.*.nodes`` counter walks root views."""
    model, _ = _fit(kind)
    total = model.trees.columns["n"].size
    assert total > 2 * len(model.trees)
    assert _node_count(model) == total == model.trees.sizes.sum()
    assert _node_count(_round_trip(model, tmp_path)) == total


def test_views_read_the_node_columns():
    model, _ = _fit("rfr")
    trees = model.trees
    t = len(trees) - 1
    root, start = trees[t], trees.starts[t]
    assert trees[-1].tree == t and root.index == 0
    assert root.feature == trees.columns["feature"][start] >= 0
    left, right = root.left, root.right
    assert (left.index, right.index) == (1, 2)
    assert left.n_samples + right.n_samples == root.n_samples
    assert root.gain == trees.columns["gain"][start] > 0
    assert right.value == trees.columns["value"][start + 2]
    assert root.n == root.n_samples and not hasattr(root, "depth")
    leaf = root
    while leaf.feature is not None:
        leaf = leaf.right
    assert leaf.left is None and leaf.right is None and leaf.gain == 0.0
    with pytest.raises(IndexError):
        trees[len(trees)]
