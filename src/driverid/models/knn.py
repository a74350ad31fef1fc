"""k-nearest-neighbor classifier on Euclidean distance.

Deterministic by construction: distance ties prefer the lower training-row
index, vote ties prefer the earlier class in class_list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..segment import InsufficientData
from .base import LabeledDataset, TrainedModel


@dataclass
class KnnParams:
    k: int
    train_x: np.ndarray       # (n, d)
    train_y: np.ndarray       # (n,) class indices


def check(params: dict) -> None:
    if int(params["k"]) < 1:
        raise ValueError("k must be >= 1")


def fit(data: LabeledDataset, params: dict, seed: int) -> KnnParams:
    k = int(params["k"])
    if k > len(data):
        raise InsufficientData(f"k={k} exceeds {len(data)} training rows")
    return KnnParams(k=k, train_x=data.features.copy(), train_y=data.label_indices)


def predict(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    """Majority class among the k nearest training rows."""
    p = model.params
    n_classes = len(model.class_list)
    out = np.empty(matrix.shape[0], dtype=np.int64)
    for row, q in enumerate(matrix):
        d2 = ((p.train_x - q) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")[: p.k]
        out[row] = np.argmax(np.bincount(p.train_y[order], minlength=n_classes))
    return out


def to_doc(p: KnnParams) -> dict:
    return {"k": p.k, "train_x": p.train_x.tolist(), "train_y": p.train_y.tolist()}


def from_doc(doc: dict, n_features: int, n_classes: int) -> KnnParams:
    try:
        train_x = np.array(doc["train_x"], dtype=np.float64)
    except ValueError as err:
        raise ValueError(f"schema mismatch: ragged training rows ({err})") from None
    if train_x.ndim != 2 or train_x.shape[1] != n_features:
        raise ValueError(
            f"schema mismatch: stored rows have {train_x.shape[-1] if train_x.ndim == 2 else '?'} "
            f"features, header says {n_features}"
        )
    return KnnParams(
        k=int(doc["k"]),
        train_x=train_x,
        train_y=np.array(doc["train_y"], dtype=np.int64),
    )
