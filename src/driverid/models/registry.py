"""The model-kind registry, the one dispatch point on model kind.

Each entry is the kind's own module, which defines ``defaults``, its
parameter defaults (the only place they are written; mlp's come from
``MlpConfig``'s fields), ``seeded``, whether its ``fit`` draws from the
seed (the grid fits a seedless kind once per cell), and five functions:
``check(params)`` raises ValueError on out-of-range params (the defaults
merged with the caller's), ``fit(data, params, seed)`` gets such checked
params and returns the kind's params object, ``predict(model, matrix)``
maps a checked (m, d) matrix to class indices, and ``to_doc(params)`` /
``from_doc(doc, n_features, n_classes)`` convert the params to and from
JSON. ``check`` runs on every ``[model.<kind>]`` section when the run
config is read, and again in ``pipeline.train_model`` for library callers.
``pipeline.train_model``, ``models.predict``, ``models.io``, the run
config's ``[model.<kind>]`` keys and the grid's model list and fits per
cell all read this table.
"""
from __future__ import annotations

from types import ModuleType

from . import forest, knn, mlp, tree

REGISTRY: dict[str, ModuleType] = {"knn": knn, "dtree": tree, "rforest": forest, "mlp": mlp}

MODEL_KINDS = tuple(REGISTRY)


def lookup(kind: str) -> ModuleType:
    try:
        return REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None
