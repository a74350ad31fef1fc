"""The model-kind registry, the one dispatch point on model kind.

Training, prediction, persistence, the run config's ``[model.<kind>]``
keys and the grid's default model list all read this table.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

from . import forest, knn, mlp, tree
from .base import LabeledDataset, TrainedModel


@dataclass(frozen=True)
class ModelKind:
    defaults: dict[str, Any]                                  # parameter -> default
    fit: Callable[[LabeledDataset, dict, int], TrainedModel]  # (data, params, seed)
    predict: Callable[[TrainedModel, Any], Any]               # (model, x) -> labels
    to_doc: Callable[[Any], dict]                             # params -> JSON object
    from_doc: Callable[[dict, int, int], Any]                 # (doc, n_features, n_classes)


REGISTRY: dict[str, ModelKind] = {
    "knn": ModelKind({"k": 5}, knn.fit, knn.knn_predict, knn.to_doc, knn.from_doc),
    "dtree": ModelKind(
        {"max_depth": None, "min_leaf": 1},
        tree.fit, tree.dtree_predict, tree.to_doc, tree.from_doc,
    ),
    "rforest": ModelKind(
        {"n_trees": 25, "max_depth": None, "features_per_split": None},
        forest.fit, forest.rf_predict, forest.to_doc, forest.from_doc,
    ),
    "mlp": ModelKind(
        {f.name: f.default for f in fields(mlp.MlpConfig) if f.name != "seed"},
        mlp.fit, mlp.mlp_predict, mlp.to_doc, mlp.from_doc,
    ),
}

MODEL_KINDS = tuple(REGISTRY)


def lookup(kind: str) -> ModelKind:
    try:
        return REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None
