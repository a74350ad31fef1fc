"""The model-kind registry, the one dispatch point on model kind.

Each entry holds the kind's parameter defaults (the only place they are
written; mlp's come from ``MlpConfig``'s fields), whether its ``fit`` draws
from the seed (``seeded``; the grid fits a seedless kind once per cell) and
five functions from the kind's module: ``check`` raises ValueError on
out-of-range params (the defaults merged with the caller's), ``fit`` gets
such checked params and returns the kind's params object, ``predict`` maps
a checked (m, d) matrix to class indices, ``to_doc``/``from_doc`` convert
the params to and from JSON. ``check`` runs on every ``[model.<kind>]``
section when the run config is read, and again in ``pipeline.train_model``
for library callers. ``pipeline.train_model``, ``models.predict``,
``models.io``, the run config's ``[model.<kind>]`` keys and the grid's
model list and fits per cell all read this table.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from . import forest, knn, mlp, tree
from .base import LabeledDataset, TrainedModel


@dataclass(frozen=True)
class ModelKind:
    defaults: dict[str, Any]                                  # parameter -> default
    check: Callable[[dict], None]                             # merged params -> None or ValueError
    fit: Callable[[LabeledDataset, dict, int], Any]           # (data, params, seed) -> params object
    predict: Callable[[TrainedModel, np.ndarray], np.ndarray]  # (model, (m, d)) -> class indices
    to_doc: Callable[[Any], dict]                             # params -> JSON object
    from_doc: Callable[[dict, int, int], Any]                 # (doc, n_features, n_classes)
    seeded: bool                                              # fit draws from its seed


REGISTRY: dict[str, ModelKind] = {
    "knn": ModelKind({"k": 5}, knn.check, knn.fit, knn.predict, knn.to_doc, knn.from_doc, seeded=False),
    "dtree": ModelKind(
        {"max_depth": None, "min_leaf": 1},
        tree.check, tree.fit, tree.predict, tree.to_doc, tree.from_doc, seeded=False,
    ),
    "rforest": ModelKind(
        {"n_trees": 25, "max_depth": None, "features_per_split": None},
        forest.check, forest.fit, forest.predict, forest.to_doc, forest.from_doc, seeded=True,
    ),
    "mlp": ModelKind(
        {f.name: f.default for f in fields(mlp.MlpConfig) if f.name != "seed"},
        mlp.check, mlp.fit, mlp.predict, mlp.to_doc, mlp.from_doc, seeded=True,
    ),
}

MODEL_KINDS = tuple(REGISTRY)


def lookup(kind: str) -> ModelKind:
    try:
        return REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None
