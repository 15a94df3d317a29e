"""CART regression trees and random forests, trained from scratch.

Split search minimizes the summed squared error of the children, scanning
all features at once with cumulative sums over per-feature sort orders.
Thresholds are midpoints between consecutive distinct sorted values, and
ties in gain resolve to the lowest feature index, then the lowest
threshold. Because the gain depends only on the target values and the sort
order (never on the feature magnitudes), a strictly increasing transform
of a feature column with all-distinct values leaves the fitted structure
and every training prediction bit-identical.

Trees grow one depth at a time across an ensemble (the depth-wise exact
search of XGBoost, KDD 2016, and LightGBM, NeurIPS 2017) with each node's
float operations unchanged. Forests average trees in tree-index order (an
exact identity). Tree t's stream (seed, t) draws its bootstrap, then, for
max_features below the feature count, one (k, p) uniform block per depth:
a row for each of its k nodes searched there, in level order (left child
first). A node searches its row's max_features smallest draws, ascending,
so no draw depends on other trees or on the visiting order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..rng import make_rng
from . import Model, decode_params, number_param, prepare_training
from ..util import of_type


@dataclass
class TreeNode:
    n_samples: int
    value: float                      # mean of training targets reaching it
    feature: Optional[int] = None     # None marks a leaf
    threshold: float = 0.0
    gain: float = 0.0                 # SSE reduction achieved by the split
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None


_BLOCK_ELEMENTS = 8192   # (row, node x feature) cells per scored block


class TreeGrower:
    """CART growth on one matrix whose columns are dense-ranked once: a
    node's rows sorted by (rank, row) are a stable sort by value, and equal
    ranks mark cuts that separate no distinct values."""

    def __init__(self, X: np.ndarray):
        n, p = X.shape
        if p == 0:
            raise ValueError("tree growth needs at least 1 feature, got 0")
        self.X = X
        order = np.argsort(X, axis=0)
        xs = np.take_along_axis(X, order, axis=0)
        dense = np.zeros((n, p), dtype=np.int64)
        dense[1:] = np.cumsum(xs[1:] != xs[:-1], axis=0)
        ranks = np.full((n + 1, p), n)   # row n pads: above every rank
        np.put_along_axis(ranks[:n], order, dense, axis=0)
        # (row, feature) key: rank << shift | its node position (< n)
        self.shift = n.bit_length()
        self.keys = (ranks << self.shift).ravel()

    def grow(self, y: np.ndarray, rows: np.ndarray, max_depth: Optional[int],
             min_split: int, max_features: Optional[int],
             rngs: Optional[list[np.random.Generator]]) -> list[TreeNode]:
        """One tree per row of ``rows`` (at most X.shape[0] entries); tree t
        fits X[rows[t]], y[rows[t]] and draws its subsets from ``rngs[t]``."""
        X = self.X
        n_trees, n = rows.shape
        p = X.shape[1]
        # slot = (tree, position) of a training row; one more slot pads
        src = np.append(rows.ravel(), X.shape[0])
        ys = np.append(y[src[:-1]], 0.0)
        pos = np.arange(n_trees * n)    # the level's slots, node by node
        sizes, tree_of = np.full(n_trees, n), np.arange(n_trees)
        parents, roots, depth = [], None, 0
        while True:
            starts = sizes.cumsum() - sizes
            values, sse = _node_stats(ys[pos], starts, sizes)
            nodes = [TreeNode(m, v) for m, v in zip(sizes.tolist(), values)]
            for i, parent in enumerate(parents):
                parent.left, parent.right = nodes[2 * i], nodes[2 * i + 1]
            roots = roots or nodes
            cand = ((sizes >= min_split) & (sse > 0.0)).nonzero()[0]
            if (max_depth is not None and depth >= max_depth) or not cand.size:
                return roots
            feats = None
            if max_features is not None and max_features < p:
                counts = np.bincount(tree_of[cand], minlength=n_trees)
                u = np.concatenate([rngs[t].random((c, p))
                                    for t, c in enumerate(counts.tolist())])
                feats = np.sort(u.argsort(axis=1, kind="stable")
                                [:, :max_features], axis=1)
            feature, cut, gain = self._best_splits(
                src, ys, pos, starts[cand], sizes[cand], feats)
            ok = gain > 0
            if not ok.any():
                return roots
            split, feature, gain = cand[ok], feature[ok], gain[ok]
            lo, hi = src[cut[:, ok]]
            threshold = (X[lo, feature] + X[hi, feature]) / 2.0
            parents = [nodes[i] for i in split.tolist()]
            for node, f, t, g in zip(parents, feature.tolist(),
                                     threshold.tolist(), gain.tolist()):
                node.feature, node.threshold, node.gain = f, t, g
            # children in level order: left then right of each split node
            m = sizes[split]
            if split.size < sizes.size:   # else the gather is the identity
                offsets = m.cumsum() - m
                pos = pos[(starts[split] - offsets).repeat(m)
                          + np.arange(m.sum())]
            right = X[src[pos], feature.repeat(m)] > threshold.repeat(m)
            key = np.arange(0, 2 * split.size, 2).repeat(m) + right
            pos = pos[key.argsort(kind="stable")]
            sizes = np.bincount(key, minlength=2 * split.size)
            tree_of = tree_of[split].repeat(2)
            depth += 1

    def _best_splits(self, src, ys, pos, starts, sizes, feats):
        """(feature, slots around the cut, gain <= 0 if none) of each node's
        best split among all features or its row of ``feats``, scored
        largest first in blocks of ``_BLOCK_ELEMENTS`` cells, shorter nodes
        padded with the padding slot."""
        p = self.X.shape[1]
        k = p if feats is None else feats.shape[1]
        best_at = np.empty((3, sizes.size), dtype=np.int64)   # feature, cut
        gain = np.empty(sizes.size)
        order = (-sizes).argsort(kind="stable")
        i = 0
        while i < order.size:
            size = int(sizes[order[i]])
            at = order[i:i + max(1, _BLOCK_ELEMENTS // (k * size))]
            i += at.size
            m, nb, col = sizes[at], at.size, np.arange(size)
            slots = pos.take(starts[at, None] + col, mode="clip")
            slots[col >= m[:, None]] = src.size - 1
            f = np.arange(p) if feats is None else feats[at]
            # one column per (node, feature), sorted by (rank, row in node)
            rk = self.keys.take(src[slots].T[:, :, None] * p + f)
            rk = rk.reshape(size, -1)
            rk |= col[:, None]
            rk.sort(axis=0)
            local = rk & ((1 << self.shift) - 1)
            local += np.arange(0, nb * size, size).repeat(k)
            srt = slots.ravel().take(local)
            yo = ys.take(srt)
            s1, s2 = yo.cumsum(axis=0), (yo * yo).cumsum(axis=0)
            t1, t2, a1, a2 = s1[-1], s2[-1], s1[:-1], s2[:-1]
            n_left = np.arange(1.0, size)[:, None]
            n_node = m.repeat(k).astype(float)
            n_right = np.maximum(n_node - n_left, 1.0)   # padding: any >= 1
            g = ((t2 - t1 ** 2 / n_node) - (a2 - a1 ** 2 / n_left)
                 - ((t2 - a2) - (t1 - a1) ** 2 / n_right))
            # cuts in ties or padding: -inf; before a node's padding: exactly 0
            dense = rk >> self.shift
            np.putmask(g, dense[1:] == dense[:-1], -np.inf)
            # lowest cut per column, then lowest feature per node
            best = g.argmax(axis=0)
            col_gain = g[best, np.arange(best.size)]
            fi = col_gain.reshape(nb, k).argmax(axis=1)
            c = np.arange(0, nb * k, k) + fi
            gain[at] = col_gain[c]
            best_at[0, at] = fi if feats is None else f[np.arange(nb), fi]
            best_at[1:, at] = srt[best[c] + [[0], [1]], c]
        return best_at[0], best_at[1:], gain


def _node_stats(yv, starts, sizes):
    """Per-node mean (a list) and SSE of the node-major targets ``yv``;
    a block of equal-size rows gives each row numpy's 1D ``sum()`` bits."""
    if sizes.size <= 8:   # few nodes: a slice each beats a gather per size
        segs = [yv[s:s + m] for s, m in zip(starts.tolist(), sizes.tolist())]
        means = [np.add.reduce(seg) / seg.size for seg in segs]
        return [float(v) for v in means], np.array(
            [np.add.reduce((seg - v) ** 2) for seg, v in zip(segs, means)])
    values, sse = np.empty(sizes.size), np.empty(sizes.size)
    for m in set(sizes.tolist()):
        idx = (sizes == m).nonzero()[0]
        block = yv[starts[idx, None] + np.arange(m)]
        values[idx] = mean = np.add.reduce(block, axis=1) / m
        sse[idx] = np.add.reduce((block - mean[:, None]) ** 2, axis=1)
    return values.tolist(), sse


def tree_arrays(trees: list[TreeNode]) -> tuple[dict[str, np.ndarray],
                                                np.ndarray]:
    """The node arrays of ``trees`` and each tree's node count: tree after
    tree, each tree's nodes in level order (as ``TreeGrower.grow`` makes
    them), ``feature`` (-1 for a leaf), ``threshold``, ``gain``, ``left``
    and ``right`` (child indices within the tree, -1 for a leaf), ``value``
    and ``n``. A tree's k-th split node, counting from 1, has the children
    2k - 1 and 2k."""
    nodes, sizes = [], []
    for root in trees:
        level = [root]
        for node in level:          # the loop reaches the children it queues
            if node.feature is not None:
                level += (node.left, node.right)
        nodes += level
        sizes.append(len(level))
    sizes = np.array(sizes, dtype=np.int64)
    feature = np.array([-1 if node.feature is None else node.feature
                        for node in nodes], dtype=np.int64)
    split = feature >= 0
    count = split.cumsum()          # split nodes up to each node, all trees
    k = count - (count - split)[sizes.cumsum() - sizes].repeat(sizes)
    left = np.where(split, 2 * k - 1, -1)     # k: rank within its tree
    return {"feature": feature,
            "threshold": np.array([node.threshold for node in nodes], float),
            "gain": np.array([node.gain for node in nodes], float),
            "left": left, "right": left + split,
            "value": np.array([node.value for node in nodes], float),
            "n": np.array([node.n_samples for node in nodes], np.int64)}, sizes


def leaf_values(trees: list[TreeNode], X: np.ndarray) -> np.ndarray:
    """(len(trees), rows of X) array: the value of the leaf each row of X
    reaches in each tree, going left where x <= threshold. With each leaf
    its own two children, every (tree, row) pair advances one depth per
    step through the trees' node arrays until all sit at leaves (the tree
    traversal of Hummingbird, OSDI 2020)."""
    arrays, sizes = tree_arrays(trees)
    feature, threshold, value = (arrays[key] for key in
                                 ("feature", "threshold", "value"))
    starts = sizes.cumsum() - sizes
    leaf = feature < 0
    left = np.where(leaf, np.arange(feature.size),
                    arrays["left"] + starts.repeat(sizes))
    right = left + ~leaf            # a right child follows its left
    feature[leaf] = 0
    n, p = X.shape
    node = starts.repeat(n).reshape(len(trees), n)
    row_at, flat = np.arange(0, n * p, p), X.ravel()
    while not leaf.take(node).all():
        x = flat.take(row_at + feature.take(node))
        go_left = x <= threshold.take(node)
        node = np.where(go_left, left.take(node), right.take(node))
    return value.take(node)


def tree_feature_gains(root: TreeNode, p: int) -> np.ndarray:
    """Total SSE reduction credited to each feature across the tree."""
    gains = np.zeros(p, dtype=np.float64)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.feature is not None:
            gains[node.feature] += node.gain
            stack.append(node.left)
            stack.append(node.right)
    return gains


@dataclass
class ForestModel(Model):
    trees: list[TreeNode]
    bootstrap: bool
    max_features_rule: str            # "all" or "third" or an explicit count
    seed: int


def resolve_max_features(rule, p: int) -> Optional[int]:
    """'all' -> every feature, 'third' -> ceil(p/3), n in 1..p -> n."""
    if rule == "all":
        return None
    if rule == "third":
        return max(1, math.ceil(p / 3))
    return number_param(1, p)(rule, "max_features")


# max_depth None is unlimited; max_features above p fails at training
HYPERPARAMETERS = {
    "n_trees": (50, number_param(1)),
    "max_depth": (None, number_param(0, also=(None,))),
    "min_split": (2, number_param(2)),
    "max_features": ("third", number_param(1, also=("all", "third"))),
    "bootstrap": (True, of_type(bool)),
}


def train_forest(X: np.ndarray, y: np.ndarray, params: dict, seed: int,
                 feature_names: Optional[list[str]] = None) -> ForestModel:
    """Fit a random forest on the ``HYPERPARAMETERS`` of ``params``; tree
    t's stream draws its bootstrap, then one uniform block per depth for its
    searched nodes (see module docstring)."""
    X, y, feature_names, imputation = prepare_training(X, y, feature_names)
    n, p = X.shape
    if n < 2:
        raise ValueError("forest training needs at least 2 samples")
    settings = decode_params(HYPERPARAMETERS, params)
    mf = resolve_max_features(settings["max_features"], p)

    rngs = [make_rng(seed, t) for t in range(settings["n_trees"])]
    rows = np.array([rng.integers(0, n, size=n) if settings["bootstrap"]
                     else np.arange(n) for rng in rngs])
    trees = TreeGrower(X).grow(y, rows, settings["max_depth"],
                               settings["min_split"], mf, rngs)
    return ForestModel(trees=trees, bootstrap=settings["bootstrap"],
                       max_features_rule=str(settings["max_features"]),
                       seed=seed, params=dict(params),
                       feature_names=feature_names, imputation=imputation)


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for row in leaf_values(model.trees, X):   # in tree-index order
        acc += row
    return acc / len(model.trees)
