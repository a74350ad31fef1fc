"""Binary CART decision tree with Gini impurity.

A node searches all its candidate features in one batch, the exhaustive
search of Breiman et al., *CART* (1984): it sorts its rows on every feature
at once and scores each midpoint between distinct neighbouring values, with
at least ``min_leaf`` rows per side, by ``sum_c left_c^2 / n_left +
sum_c right_c^2 / n_right`` from one cumulative count per class present.
The squared count sums are exact integers, so a score has the same bits
however the rows are ordered or summed. Ties go to the lower feature index,
then the lower threshold, and leaves emit their majority class (earlier
class on vote ties), so training is fully deterministic.

Every tree grows on integer row weights (``grow_tree``): a single tree
counts each row once, and a forest tree its distinct bootstrap rows by
their draw counts, which gives the tree of the bootstrap copy.

A fitted tree is a ``Tree`` of parallel arrays indexed by node, numbered in
preorder (root 0, then the whole left subtree, then the right one). A model
file stores the five arrays as they are, and ``check_tree`` checks a loaded
one in a few array operations.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .base import LabeledDataset, TrainedModel, stored_array

defaults = {"max_depth": None, "min_leaf": 1}
seeded = False


@dataclass(frozen=True, eq=False)
class Tree:
    feature: np.ndarray     # (n_nodes,) split feature; -1 marks a leaf
    threshold: np.ndarray   # go left when x[feature] <= threshold
    left: np.ndarray        # child node indices; -1 at a leaf
    right: np.ndarray
    leaf_class: np.ndarray  # class index at a leaf; -1 at a split


def check(params: dict) -> None:
    if params["max_depth"] is not None and int(params["max_depth"]) < 1:
        raise ValueError("max_depth must be >= 1")
    if int(params["min_leaf"]) < 1:
        raise ValueError("min_leaf must be >= 1")


def fit(data: LabeledDataset, params: dict, seed: int) -> Tree:
    return grow_tree(
        np.ascontiguousarray(data.features.T),
        data.label_indices,
        np.ones(len(data), dtype=np.int64),
        len(data.class_list),
        params["max_depth"],
        int(params["min_leaf"]),
    )


def predict(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    return predict_tree(model.params, matrix)


def to_doc(tree: Tree) -> dict:
    return dict(vars(tree))


def from_doc(doc: dict, n_features: int, n_classes: int) -> Tree:
    if type(doc) is not dict:
        raise ValueError(f"a tree must be an object of arrays, got {doc!r}")
    tree = Tree(*(stored_array(doc[f.name], f.name, "<f8" if f.name == "threshold" else "<i8", 1) for f in fields(Tree)))
    check_tree(tree, n_features, n_classes)
    return tree


def check_tree(tree: Tree, n_features: int, n_classes: int) -> None:
    """Raise ValueError unless ``tree`` is a preorder tree: each leaf's class
    and each split's feature in range, each split's two children distinct
    and after it (no cycles) and its threshold finite, and each node but the
    root one split's child. The message is the one the per-node check
    (``tests/oracles.py::tree_check_oracle``) gives at the first failing node."""
    n = len(tree.feature)
    if n == 0 or any(a.shape != (n,) for a in vars(tree).values()):
        raise ValueError("tree has no nodes" if n == 0 else "tree arrays differ in length")
    at, split, lo, hi, cls = np.arange(n), tree.feature >= 0, tree.left, tree.right, tree.leaf_class
    failed = np.array([  # per node, in the order one node is checked
        ~split & ((cls < 0) | (cls >= n_classes)),
        split & (tree.feature >= n_features),
        split & ((lo == hi) | (lo <= at) | (lo >= n) | (hi <= at) | (hi >= n)),
        split & ~np.isfinite(tree.threshold),
    ])
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        message = (
            f"leaf class {cls[i]} outside [0, {n_classes})", f"feature {tree.feature[i]} outside [0, {n_features})",
            f"children {lo[i]}, {hi[i]} not two nodes in ({i}, {n})", f"threshold {tree.threshold[i]} is not finite",
        )[int(np.argmax(failed[:, i]))]
        raise ValueError(f"tree node {i}: {message}")
    parents = np.bincount(np.concatenate([lo[split], hi[split]]), minlength=n)
    if (parents[1:] != 1).any():
        i = int(np.argmax(parents[1:] != 1)) + 1
        raise ValueError(f"tree node {i} is the child of {parents[i]} splits, not 1")


def grow_tree(
    xt: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> Tree:
    """The tree on the rows of ``xt.T`` (``xt`` holds one row per feature),
    row i counted ``weights[i]`` times.

    With integer weights this is the tree grown on the copy that repeats row
    i ``weights[i]`` times, such as a bootstrap sample: class counts stay
    exact integers, and a position between distinct values has the same
    counts on each side as in the copy, so scores, tie-breaks, thresholds
    and RNG draws are the same. Rows of weight 0 take no part. Growth is
    depth-first, left before right, so nodes are numbered in preorder and
    the RNG draws each split's feature subset in that order.
    """
    rows = np.flatnonzero(weights)
    nodes: list[list] = []  # [feature, threshold, left, right, leaf_class]
    stack = [(rows, 0, -1)]  # (rows, depth, parent if a right child)
    while stack:
        rows, depth, right_of = stack.pop()
        slot = len(nodes)
        if right_of >= 0:
            nodes[right_of][3] = slot
        majority, split = _find_split(
            xt, y[rows], weights[rows], rows,
            n_classes, max_depth, min_leaf, rng, features_per_split, depth,
        )
        if split is None:
            nodes.append([-1, 0.0, -1, -1, majority])
            continue
        dim, thr = split
        nodes.append([dim, thr, slot + 1, -1, -1])
        go_left = xt[dim, rows] <= thr
        stack.append((rows[~go_left], depth + 1, slot))
        stack.append((rows[go_left], depth + 1, -1))
    return Tree(*(np.array(column) for column in zip(*nodes)))


def _find_split(xt, y, w, rows, n_classes, max_depth, min_leaf, rng, features_per_split, depth):
    """(majority class, best (feature, threshold) or None) for the node
    holding ``rows`` with labels ``y`` and weights ``w``; None leaves the
    node a leaf."""
    counts = np.bincount(y, w, minlength=n_classes).astype(np.int64)  # exact: integer weights
    majority = int(np.argmax(counts))
    n = int(counts.sum())
    if (
        counts.max() == n
        or (max_depth is not None and depth >= max_depth)
        or n < 2 * min_leaf
    ):
        return majority, None

    if features_per_split is not None and features_per_split < len(xt):
        dims = np.sort(rng.choice(len(xt), size=features_per_split, replace=False))
    else:
        dims = np.arange(len(xt))

    # one row per candidate feature, each sorted; rows with equal values may
    # sort in any order, as no valid position falls between them
    block = xt[np.ix_(dims, rows)]
    order = np.argsort(block, axis=1)
    xs = np.take_along_axis(block, order, axis=1)
    ys = y[order[:, :-1]]
    # position i splits after sorted row i; nl is the weight on its left,
    # and every sum below lies strictly between -2 n^2 and 2 n^2
    acc = np.min_scalar_type(-2 * n * n)
    ws = w.astype(acc)[order[:, :-1]]
    nl = np.cumsum(ws, axis=1, dtype=acc)
    left_sq = np.zeros(ys.shape, dtype=acc)
    cross = np.zeros(ys.shape, dtype=acc)
    for c in np.flatnonzero(counts):
        lc = np.cumsum((ys == c) * ws, axis=1, dtype=acc)
        left_sq += lc * lc
        cross += int(counts[c]) * lc
    right_sq = int(counts @ counts) - 2 * cross + left_sq
    score = left_sq / nl + right_sq / (n - nl)
    valid = xs[:, :-1] < xs[:, 1:]
    if min_leaf > 1:  # every position has at least one row on each side
        valid &= (nl >= min_leaf) & (nl <= n - min_leaf)
    score[~valid] = -np.inf
    best = int(np.argmax(score))  # first maximum: lowest dim, then lowest threshold
    col, i = divmod(best, ys.shape[1])
    if not valid[col, i]:
        return majority, None
    return majority, (int(dims[col]), float((xs[col, i] + xs[col, i + 1]) / 2.0))


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
