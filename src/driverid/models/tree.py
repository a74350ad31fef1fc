"""Binary CART decision tree with Gini impurity.

Splits scan every candidate feature and every midpoint between consecutive
distinct sorted values. Ties are broken toward the lower feature index and
lower threshold, and leaves emit their majority class (earlier class on
vote ties), so training is fully deterministic.

A fitted tree is a ``Tree`` of parallel arrays indexed by node, numbered in
preorder (root 0, then the whole left subtree, then the right one).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import LabeledDataset, TrainedModel


@dataclass(frozen=True, eq=False)
class Tree:
    feature: np.ndarray     # (n_nodes,) split feature; -1 marks a leaf
    threshold: np.ndarray   # go left when x[feature] <= threshold
    left: np.ndarray        # child node indices; -1 at a leaf
    right: np.ndarray
    leaf_class: np.ndarray  # class index at a leaf; -1 at a split


def check(params: dict) -> None:
    if int(params["min_leaf"]) < 1:
        raise ValueError("min_leaf must be >= 1")


def fit(data: LabeledDataset, params: dict, seed: int) -> Tree:
    min_leaf = int(params["min_leaf"])
    return grow_tree(
        data.features, data.label_indices, len(data.class_list), params["max_depth"], min_leaf
    )


def predict(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    return predict_tree(model.params, matrix)


def to_doc(tree: Tree) -> dict:
    return {"nodes": tree_to_nodes(tree)}


def from_doc(doc: dict, n_features: int, n_classes: int) -> Tree:
    return tree_from_nodes(doc["nodes"], n_features, n_classes)


def grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> Tree:
    """Grow depth-first, left before right, so nodes are numbered in preorder
    and the RNG draws each split's feature subset in that order."""
    nodes: list[list] = []  # [feature, threshold, left, right, leaf_class]
    stack = [(np.arange(y.size), 0, -1)]  # (rows, depth, parent if a right child)
    while stack:
        rows, depth, right_of = stack.pop()
        slot = len(nodes)
        if right_of >= 0:
            nodes[right_of][3] = slot
        majority, split = _find_split(
            x, rows, y[rows], n_classes, max_depth, min_leaf, rng, features_per_split, depth
        )
        if split is None:
            nodes.append([-1, 0.0, -1, -1, majority])
            continue
        dim, thr = split
        nodes.append([dim, thr, slot + 1, -1, -1])
        go_left = x[rows, dim] <= thr
        stack.append((rows[~go_left], depth + 1, slot))
        stack.append((rows[go_left], depth + 1, -1))
    return _to_tree(nodes)


def _find_split(x, rows, y, n_classes, max_depth, min_leaf, rng, features_per_split, depth):
    """(majority class, best (feature, threshold) or None) for the node
    holding ``rows``; None leaves the node a leaf."""
    counts = np.bincount(y, minlength=n_classes)
    majority = int(np.argmax(counts))
    n = y.size
    if (
        counts.max() == n
        or (max_depth is not None and depth >= max_depth)
        or n < 2 * min_leaf
    ):
        return majority, None

    if features_per_split is not None and features_per_split < x.shape[1]:
        dims = np.sort(rng.choice(x.shape[1], size=features_per_split, replace=False))
    else:
        dims = np.arange(x.shape[1])

    best_score = -np.inf
    best = None
    x_node = x[rows]
    for dim in dims:
        found = _best_split_on_dim(x_node[:, dim], y, n_classes, min_leaf)
        if found is not None and found[0] > best_score:
            best_score, thr = found
            best = (int(dim), float(thr))
    return majority, best


def _best_split_on_dim(values, y, n_classes, min_leaf):
    """Best (score, threshold) on one feature, or None when no split is valid.

    Score is the quantity maximized by minimum weighted Gini:
    sum_sq_left/n_left + sum_sq_right/n_right over label count vectors.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    xs = values[order]
    ys = y[order]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), ys] = 1.0
    prefix = np.vstack([np.zeros(n_classes), np.cumsum(onehot, axis=0)])
    total = prefix[-1]

    positions = np.arange(min_leaf, n - min_leaf + 1)
    positions = positions[xs[positions - 1] < xs[positions]]
    if positions.size == 0:
        return None
    left = prefix[positions]
    right = total - left
    nl = positions.astype(np.float64)
    nr = n - nl
    score = (left**2).sum(axis=1) / nl + (right**2).sum(axis=1) / nr
    best = int(np.argmax(score))  # first max = lowest threshold
    p = positions[best]
    return float(score[best]), (xs[p - 1] + xs[p]) / 2.0


def predict_tree(tree: Tree, matrix: np.ndarray) -> np.ndarray:
    """Leaf class index for every row, descending all rows one level per step."""
    node = np.zeros(matrix.shape[0], dtype=np.int64)
    rows = np.arange(matrix.shape[0])
    while rows.size:
        rows = rows[tree.feature[node[rows]] >= 0]
        at = node[rows]
        go_left = matrix[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.leaf_class[node]


def tree_depth(tree: Tree) -> int:
    depth = np.zeros(len(tree.feature), dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):  # children follow their parent
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return int(depth.max())


def tree_to_nodes(tree: Tree) -> list[dict]:
    """Preorder node list with child index links, for serialization."""
    columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.leaf_class)
    return [
        {"leaf": cls} if f < 0 else {"feature": f, "threshold": thr, "left": lo, "right": hi}
        for f, thr, lo, hi, cls in zip(*(c.tolist() for c in columns))
    ]


def tree_from_nodes(nodes: list[dict], n_features: int, n_classes: int) -> Tree:
    """Inverse of tree_to_nodes. Rejects indices out of range and children
    that do not follow their parent, which rules out cycles."""
    if not nodes:
        raise ValueError("empty tree serialization")
    rows = []
    for i, spec in enumerate(nodes):
        if "leaf" in spec:
            cls = int(spec["leaf"])
            if not 0 <= cls < n_classes:
                raise ValueError(f"tree node {i}: leaf class {cls} outside [0, {n_classes})")
            rows.append((-1, 0.0, -1, -1, cls))
            continue
        dim, lo, hi = int(spec["feature"]), int(spec["left"]), int(spec["right"])
        if not 0 <= dim < n_features:
            raise ValueError(f"tree node {i}: feature {dim} outside [0, {n_features})")
        if not (i < lo < len(nodes) and i < hi < len(nodes)):
            raise ValueError(f"tree node {i}: children {lo}, {hi} not in ({i}, {len(nodes)})")
        rows.append((dim, float(spec["threshold"]), lo, hi, -1))
    return _to_tree(rows)


def _to_tree(nodes) -> Tree:
    """Tree from per-node (feature, threshold, left, right, leaf_class) rows."""
    return Tree(*(np.array(column) for column in zip(*nodes)))
