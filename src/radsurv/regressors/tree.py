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
max_features below the feature count, one (k, p) uniform block per depth
at which it has k > 0 nodes to search: a row for each, in level order
(left child first). A node searches its row's max_features smallest draws,
ascending, so no draw depends on other trees or on the visiting order.

An ensemble is one ``TreeArrays``, the node arrays model.json stores:
growth appends each depth's nodes, and prediction, importance and
persistence read the arrays with no per-node object. ``TreeNode`` is a
read-only view of one node, for walking a tree by hand.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..rng import make_rng
from . import Model, decode_params, number_param, prepare_training
from ..util import of_type

# the node arrays of an ensemble and their types
COLUMNS = {"feature": np.int64, "threshold": np.float64, "gain": np.float64,
           "left": np.int64, "right": np.int64, "value": np.float64,
           "n": np.int64}


class TreeArrays(Sequence):
    """The trees of an ensemble as the node arrays ``columns``, tree after
    tree, each tree's nodes in level order (left child first): ``feature``
    (-1 for a leaf), ``threshold``, ``gain`` (the SSE reduction of the
    split), ``left`` and ``right`` (child indices within the tree, -1 for a
    leaf), ``value`` (the mean training target reaching the node) and ``n``
    (how many targets reach it); ``sizes`` holds each tree's node count.
    In a grown tree the k-th split node, counting from 1, has the children
    2k - 1 and 2k; readers follow ``left`` and ``right``, which a loaded
    file may order otherwise. As a sequence it holds each tree's root as a
    ``TreeNode``."""

    def __init__(self, columns: dict, sizes):
        self.columns = {key: np.asarray(columns[key], dtype)
                        for key, dtype in COLUMNS.items()}
        self.sizes = np.asarray(sizes, np.int64)
        self.starts = self.sizes.cumsum() - self.sizes

    @classmethod
    def join(cls, trees: Iterable[dict]) -> "TreeArrays":
        """The ensemble of ``trees``, each a dict of one tree's columns."""
        trees = list(trees)
        return cls({key: np.concatenate([np.empty(0, dtype)]
                                        + [tree[key] for tree in trees])
                    for key, dtype in COLUMNS.items()},
                   [len(tree["n"]) for tree in trees])

    def tree(self, t: int) -> dict[str, np.ndarray]:
        """The columns of tree t (slices of the ensemble's)."""
        start, size = self.starts[t], self.sizes[t]
        return {key: column[start:start + size]
                for key, column in self.columns.items()}

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, t: int) -> "TreeNode":
        return TreeNode(self, range(len(self))[t], 0)


class TreeNode:
    """A read-only view of node ``index`` of tree ``tree`` of ``trees``:
    each of the node's columns is an attribute (``n`` also as
    ``n_samples``), and ``feature`` and the child views ``left`` and
    ``right`` are None at a leaf."""

    __slots__ = ("trees", "tree", "index")

    def __init__(self, trees: TreeArrays, tree: int, index: int):
        self.trees, self.tree, self.index = trees, tree, index

    def __getattr__(self, name: str):
        key = "n" if name == "n_samples" else name
        if key not in COLUMNS:
            raise AttributeError(name)
        at = self.trees.starts[self.tree] + self.index
        value = self.trees.columns[key][at].item()
        if key in ("feature", "left", "right") and value < 0:
            return None
        if key in ("left", "right"):
            return TreeNode(self.trees, self.tree, value)
        return value


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
             rngs: Optional[list[np.random.Generator]]) -> TreeArrays:
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
        levels, depth = [], 0           # each depth's nodes, grouped by tree
        while True:
            starts = sizes.cumsum() - sizes
            values, sse = _node_stats(ys[pos], starts, sizes)
            level = (np.full(sizes.size, -1), np.zeros(sizes.size),
                     np.zeros(sizes.size))   # feature, threshold, gain
            levels.append((tree_of, *level, values, sizes))
            cand = ((sizes >= min_split) & (sse > 0.0)).nonzero()[0]
            if (max_depth is not None and depth >= max_depth) or not cand.size:
                break
            feats = None
            if max_features is not None and max_features < p:
                counts = np.bincount(tree_of[cand], minlength=n_trees)
                u = np.concatenate([rngs[t].random((c, p)) for t, c
                                    in enumerate(counts.tolist()) if c])
                feats = _smallest(u, max_features)
            feature, cut, gain = self._best_splits(
                src, ys, pos, starts[cand], sizes[cand], feats)
            ok = gain > 0
            if not ok.any():
                break
            split, feature, gain = cand[ok], feature[ok], gain[ok]
            lo, hi = src[cut[:, ok]]
            threshold = (X[lo, feature] + X[hi, feature]) / 2.0
            level[0][split], level[1][split], level[2][split] = (
                feature, threshold, gain)
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
        tree, *columns = map(np.concatenate, zip(*levels))
        order = tree.argsort(kind="stable")   # each tree's levels in turn
        feature, threshold, gain, value, n_node = (c[order] for c in columns)
        sizes = np.bincount(tree, minlength=n_trees)
        split = feature >= 0
        k = split.cumsum()              # split nodes up to each node
        k -= (k - split)[sizes.cumsum() - sizes].repeat(sizes)
        left = np.where(split, 2 * k - 1, -1)   # k: rank within its tree
        return TreeArrays({"feature": feature, "threshold": threshold,
                           "gain": gain, "left": left, "right": left + split,
                           "value": value, "n": n_node}, sizes)

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


def _smallest(u: np.ndarray, k: int) -> np.ndarray:
    """Each row's columns of its k smallest values, ascending; of values
    equal to the k-th smallest, the lowest columns, as the first k of a
    stable argsort take them."""
    kth = np.partition(u, k - 1, axis=1)[:, k - 1:k]
    keep = u <= kth
    tied = keep.sum(axis=1) > k          # rows whose k-th value repeats
    if tied.any():
        ut, kt = u[tied], kth[tied]
        tie, below = ut == kt, ut < kt
        keep[tied] = below | tie & (tie.cumsum(axis=1)
                                    <= k - below.sum(axis=1, keepdims=True))
    return keep.nonzero()[1].reshape(-1, k)


def _node_stats(yv, starts, sizes):
    """Per-node mean and SSE of the node-major targets ``yv``; a block of
    equal-size rows gives each row numpy's 1D ``sum()`` bits."""
    if sizes.size <= 8:   # few nodes: a slice each beats a gather per size
        segs = [yv[s:s + m] for s, m in zip(starts.tolist(), sizes.tolist())]
        means = [np.add.reduce(seg) / seg.size for seg in segs]
        return np.array(means), np.array(
            [np.add.reduce((seg - v) ** 2) for seg, v in zip(segs, means)])
    values, sse = np.empty(sizes.size), np.empty(sizes.size)
    order = sizes.argsort(kind="stable")
    by_size = sizes[order]
    edges = np.flatnonzero(np.diff(by_size, prepend=0, append=0)).tolist()
    for a, b in zip(edges, edges[1:]):
        idx, m = order[a:b], int(by_size[a])
        block = yv[starts[idx, None] + np.arange(m)]
        values[idx] = mean = np.add.reduce(block, axis=1) / m
        sse[idx] = np.add.reduce((block - mean[:, None]) ** 2, axis=1)
    return values, sse


def leaf_values(trees, X: np.ndarray) -> np.ndarray:
    """(len(trees), rows of X) array: the value of the leaf each row of X
    reaches in each tree of ``trees`` (a TreeArrays, or root views of any
    ensembles), going left where x <= threshold. With each leaf its own two
    children, every (tree, row) pair advances one depth per step through
    the node arrays until all sit at leaves (the tree traversal of
    Hummingbird, OSDI 2020)."""
    if not isinstance(trees, TreeArrays):
        trees = TreeArrays.join(root.trees.tree(root.tree) for root in trees)
    feature, threshold, value = (trees.columns[key] for key in
                                 ("feature", "threshold", "value"))
    leaf = feature < 0
    at, start = np.arange(feature.size), trees.starts.repeat(trees.sizes)
    left, right = (np.where(leaf, at, trees.columns[key] + start)
                   for key in ("left", "right"))
    feature = np.where(leaf, 0, feature)
    n, p = X.shape
    node = trees.starts.repeat(n).reshape(len(trees), n)
    row_at, flat = np.arange(0, n * p, p), X.ravel()
    while not leaf.take(node).all():
        x = flat.take(row_at + feature.take(node))
        go_left = x <= threshold.take(node)
        node = np.where(go_left, left.take(node), right.take(node))
    return value.take(node)


def feature_gains(model) -> np.ndarray:
    """Total SSE reduction credited to each feature of a tree model. Each
    tree adds its split gains in the order a stack walk pops them (a node,
    its right subtree, then its left subtree), and the per-tree totals add
    in tree order; RFE breaks ties on these bits."""
    trees = model.trees
    feature, gain = trees.columns["feature"], trees.columns["gain"]
    split = feature >= 0
    tree_of = np.arange(len(trees)).repeat(trees.sizes)
    left, right = (trees.columns[key] + trees.starts[tree_of]
                   for key in ("left", "right"))
    nodes, parents = trees.starts, []      # each depth's split nodes
    while (at := nodes[split[nodes]]).size:
        parents.append(at)
        nodes = np.concatenate([left[at], right[at]])
    size = np.ones(feature.size, np.int64)    # nodes in each subtree
    for at in reversed(parents):
        size[at] += size[left[at]] + size[right[at]]
    visit = trees.starts[tree_of]             # stack-walk position
    for at in parents:
        visit[right[at]] = visit[at] + 1
        visit[left[at]] = visit[at] + 1 + size[right[at]]
    order = split.nonzero()[0]
    order = order[visit[order].argsort()]
    per_tree = np.zeros((len(trees), model.n_features))
    np.add.at(per_tree, (tree_of[order], feature[order]), gain[order])
    return per_tree.sum(axis=0)     # adds the C-ordered rows one by one


@dataclass
class ForestModel(Model):
    trees: TreeArrays
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
