"""Classifiers behind a uniform train/predict contract.

All predictors accept a single feature vector or an (m, d) matrix of
vectors in the standardized feature space and return driver-id labels.

Each model kind has one ``registry.REGISTRY`` entry: its parameter
defaults plus ``fit``, ``predict``, ``to_doc`` and ``from_doc`` from the
kind's own module. ``pipeline.train_model``, ``predict`` below and
``io.save_model``/``load_model`` dispatch only through that entry.
"""
from __future__ import annotations

from .base import LabeledDataset, TrainedModel
from .forest import rf_predict, rf_train
from .io import load_model, save_model
from .knn import knn_predict, knn_train
from .mlp import MlpConfig, mlp_predict, mlp_predict_proba, mlp_train
from .registry import MODEL_KINDS, lookup
from .tree import dtree_predict, dtree_train


def predict(model: TrainedModel, x):
    """Dispatch to the model kind's predictor."""
    return lookup(model.kind).predict(model, x)


__all__ = [
    "MODEL_KINDS",
    "LabeledDataset",
    "TrainedModel",
    "MlpConfig",
    "predict",
    "knn_train",
    "knn_predict",
    "dtree_train",
    "dtree_predict",
    "rf_train",
    "rf_predict",
    "mlp_train",
    "mlp_predict",
    "mlp_predict_proba",
    "save_model",
    "load_model",
]
