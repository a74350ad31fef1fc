"""Random forest: bagged CART trees with per-split feature subsampling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import LabeledDataset, TrainedModel, as_query_matrix, check_training_data
from .tree import Tree, grow_tree, predict_tree, tree_from_nodes, tree_to_nodes


@dataclass
class ForestParams:
    trees: list[Tree]
    n_trees: int
    max_depth: int | None
    features_per_split: int
    bootstrap: bool
    seed: int


def rf_train(
    data: LabeledDataset,
    n_trees: int = 25,
    max_depth: int | None = None,
    features_per_split: int | None = None,
    seed: int = 0,
    min_leaf: int = 1,
    bootstrap: bool = True,
) -> TrainedModel:
    """Train a seeded, fully reproducible forest.

    Each tree gets a bootstrap row sample (unless disabled) and draws a
    fresh random feature subset at every split; per-tree RNGs derive from
    the master seed.
    """
    check_training_data(data)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    d = data.n_features
    if features_per_split is None:
        features_per_split = int(np.ceil(np.sqrt(d)))
    features_per_split = min(max(1, features_per_split), d)

    x = data.features
    y = data.label_indices
    n_classes = len(data.class_list)
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for ss in children:
        rng = np.random.default_rng(ss)
        if bootstrap:
            rows = rng.integers(0, len(data), size=len(data))
        else:
            rows = np.arange(len(data))
        trees.append(
            grow_tree(
                x[rows],
                y[rows],
                n_classes,
                max_depth,
                min_leaf,
                rng=rng,
                features_per_split=features_per_split,
            )
        )
    params = ForestParams(
        trees=trees,
        n_trees=n_trees,
        max_depth=max_depth,
        features_per_split=features_per_split,
        bootstrap=bootstrap,
        seed=seed,
    )
    return TrainedModel(
        kind="rforest",
        params=params,
        class_list=data.class_list,
        n_features=d,
        schema_labels=data.schema_labels,
    )


def rf_predict(model: TrainedModel, x):
    """Majority vote over trees; vote ties prefer the earlier class."""
    matrix, single = as_query_matrix(model, x)
    n_classes = len(model.class_list)
    votes = np.zeros((matrix.shape[0], n_classes), dtype=np.int64)
    for tree in model.params.trees:
        idx = predict_tree(tree, matrix)
        votes[np.arange(matrix.shape[0]), idx] += 1
    winners = votes.argmax(axis=1)
    out = np.array([model.class_list[i] for i in winners], dtype=object)
    return out[0] if single else out


def fit(data: LabeledDataset, params: dict, seed: int) -> TrainedModel:
    return rf_train(
        data,
        n_trees=int(params["n_trees"]),
        max_depth=params["max_depth"],
        features_per_split=params["features_per_split"],
        seed=seed,
    )


def to_doc(p: ForestParams) -> dict:
    return {
        "n_trees": p.n_trees,
        "max_depth": p.max_depth,
        "features_per_split": p.features_per_split,
        "bootstrap": p.bootstrap,
        "seed": p.seed,
        "trees": [tree_to_nodes(t) for t in p.trees],
    }


def from_doc(doc: dict, n_features: int, n_classes: int) -> ForestParams:
    return ForestParams(
        trees=[tree_from_nodes(nodes, n_features, n_classes) for nodes in doc["trees"]],
        n_trees=int(doc["n_trees"]),
        max_depth=doc["max_depth"],
        features_per_split=int(doc["features_per_split"]),
        bootstrap=bool(doc["bootstrap"]),
        seed=int(doc["seed"]),
    )
