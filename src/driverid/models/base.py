"""Shared dataset and trained-model containers for the classifiers.

``pipeline.train_model`` turns a LabeledDataset of standardized feature
rows into a TrainedModel, whatever the kind. Predictions always take vectors in the same
(standardized) space the model was trained in; the fitted Standardizer is
carried on the model so persisted models can transform fresh raw features.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..features import Standardizer
from ..segment import InsufficientData


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    features: np.ndarray          # (n, d)
    labels: np.ndarray            # (n,) driver ids
    class_list: tuple[str, ...]   # sorted distinct driver ids
    schema_labels: Optional[tuple[str, ...]] = None
    label_indices: np.ndarray = field(init=False, repr=False)  # (n,) int64 positions in class_list

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=object)
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise ValueError("features must be (n, d) with one label per row")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if tuple(sorted(set(self.class_list))) != tuple(self.class_list):
            raise ValueError("class_list must be sorted and distinct")
        lookup = {c: i for i, c in enumerate(self.class_list)}
        unknown = set(labels) - lookup.keys()
        if unknown:
            raise ValueError(f"labels outside class_list: {sorted(unknown)}")
        indices = np.array([lookup[label] for label in labels], dtype=np.int64)
        for arr in (features, indices):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_indices", indices)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class TrainedModel:
    kind: str
    params: Any
    class_list: tuple[str, ...]
    n_features: int
    standardizer: Optional[Standardizer] = None
    schema_labels: Optional[tuple[str, ...]] = None
    # cleaning/segmentation/features settings it was trained under; set by the CLI
    pipeline: Optional[dict] = None

    def __post_init__(self):
        if len(self.class_list) < 1:
            raise ValueError("class_list must be nonempty")


def check_training_data(data: LabeledDataset) -> None:
    if len(data.class_list) < 2:
        raise InsufficientData("training data must contain at least 2 classes")
    if len(data) < 2:
        raise InsufficientData("training data must contain at least 2 rows")

