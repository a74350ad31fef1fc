"""Random forest: bagged CART trees with per-split feature subsampling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import LabeledDataset, TrainedModel, json_int
from .tree import Tree, from_doc as tree_from_doc, grow_tree, predict_tree, to_doc as tree_to_doc

defaults = {"n_trees": 25, "max_depth": None, "features_per_split": None}
seeded = True


@dataclass
class ForestParams:
    trees: list[Tree]
    n_trees: int
    max_depth: int | None
    features_per_split: int
    seed: int


def check(params: dict) -> None:
    if int(params["n_trees"]) < 1:
        raise ValueError("n_trees must be >= 1")
    for key in ("max_depth", "features_per_split"):  # None: no limit, or ceil(sqrt(dims))
        if params[key] is not None and int(params[key]) < 1:
            raise ValueError(f"{key} must be >= 1")


def fit(data: LabeledDataset, params: dict, seed: int) -> ForestParams:
    """Train a seeded, fully reproducible forest.

    Each tree grows on a bootstrap row sample, with leaves of one row
    allowed, and draws a fresh random feature subset at every split;
    per-tree RNGs derive from the master seed. A bootstrap sample is a
    vector of integer row weights (how often each row was drawn), so each
    tree grows on its distinct rows weighted by those counts, which gives
    the tree grown on the sample itself, and all trees share one transposed
    copy of the training rows.
    """
    n_trees = int(params["n_trees"])
    d = data.n_features
    features_per_split = params["features_per_split"]
    if features_per_split is None:
        features_per_split = int(np.ceil(np.sqrt(d)))
    features_per_split = min(features_per_split, d)

    xt = np.ascontiguousarray(data.features.T)
    n = len(data)
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        trees.append(
            grow_tree(
                xt,
                data.label_indices,
                weights,
                len(data.class_list),
                params["max_depth"],
                min_leaf=1,
                rng=rng,
                features_per_split=features_per_split,
            )
        )
    return ForestParams(
        trees=trees,
        n_trees=n_trees,
        max_depth=params["max_depth"],
        features_per_split=features_per_split,
        seed=seed,
    )


def predict(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    """Majority vote over trees; vote ties prefer the earlier class."""
    votes = np.zeros((matrix.shape[0], len(model.class_list)), dtype=np.int64)
    for tree in model.params.trees:
        votes[np.arange(matrix.shape[0]), predict_tree(tree, matrix)] += 1
    return votes.argmax(axis=1)


def to_doc(p: ForestParams) -> dict:
    return {
        "n_trees": p.n_trees,
        "max_depth": p.max_depth,
        "features_per_split": p.features_per_split,
        "bootstrap": True,
        "seed": p.seed,
        "trees": [tree_to_doc(t) for t in p.trees],
    }


def from_doc(doc: dict, n_features: int, n_classes: int) -> ForestParams:
    n_trees = json_int(doc["n_trees"], "n_trees")
    if type(doc["trees"]) is not list:
        raise ValueError(f"trees: expected a list, got {doc['trees']!r}")
    if n_trees != len(doc["trees"]):
        raise ValueError(f"forest says n_trees={n_trees} but holds {len(doc['trees'])} trees")
    max_depth = None if doc["max_depth"] is None else json_int(doc["max_depth"], "max_depth")
    features_per_split = json_int(doc["features_per_split"], "features_per_split")
    check({"n_trees": n_trees, "max_depth": max_depth, "features_per_split": features_per_split})
    return ForestParams(
        trees=[tree_from_doc(t, n_features, n_classes) for t in doc["trees"]],
        n_trees=n_trees, max_depth=max_depth, features_per_split=features_per_split,
        seed=json_int(doc["seed"], "seed"),
    )
