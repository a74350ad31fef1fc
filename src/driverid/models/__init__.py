"""Classifiers behind one train/predict contract.

``pipeline.train_model(kind, data, params, seed)`` is the one trainer and
``predict(model, x)`` below the one predictor, for every kind. Predictions
take a single feature vector or an (m, d) matrix in the standardized
feature space the model was trained in and return driver-id labels.

Each model kind has one ``registry.REGISTRY`` entry, the kind's own
module: its parameter ``defaults``, ``seeded``, and ``check``, ``fit``,
``predict``, ``to_doc`` and ``from_doc``. ``pipeline.train_model``,
``predict`` below and ``io.save_model``/``load_model`` dispatch only
through that entry.
"""
from __future__ import annotations

import numpy as np

from .base import LabeledDataset, TrainedModel
from .io import load_model, save_model
from .mlp import MlpConfig
from .registry import MODEL_KINDS, lookup


def predict(model: TrainedModel, x):
    """The label of one vector, or an object array of labels for an (m, d) matrix.

    A query with a NaN or infinite value raises `ValueError`.
    """
    arr = np.asarray(x, dtype=np.float64)
    matrix = np.atleast_2d(arr)
    if matrix.shape[1] != model.n_features:
        raise ValueError(
            f"dimension mismatch: query has {matrix.shape[1]} features, model expects {model.n_features}"
        )
    if not np.isfinite(matrix).all():
        raise ValueError("query has a non-finite value")
    labels = np.array(model.class_list, dtype=object)[lookup(model.kind).predict(model, matrix)]
    return labels[0] if arr.ndim == 1 else labels


__all__ = [
    "MODEL_KINDS",
    "LabeledDataset",
    "TrainedModel",
    "MlpConfig",
    "predict",
    "save_model",
    "load_model",
]
