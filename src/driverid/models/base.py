"""Shared dataset and trained-model containers for the classifiers.

``pipeline.train_model`` turns a LabeledDataset of standardized feature
rows into a TrainedModel, whatever the kind. Predictions always take vectors in the same
(standardized) space the model was trained in; the fitted Standardizer is
carried on the model so persisted models can transform fresh raw features.

``stored_array`` checks each array a kind's ``from_doc`` takes from a
model file.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..features import Standardizer
from ..segment import InsufficientData

# LabeledDataset checks its features for finiteness about this many values at a time.
FINITE_CHECK_VALUES = 2**16


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    features: np.ndarray          # (n, d)
    label_indices: np.ndarray     # (n,) int64 positions in class_list, one per row
    class_list: tuple[str, ...]   # sorted distinct driver ids
    schema_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64).view()
        indices = np.asarray(self.label_indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"label_indices must be integers, got {indices.dtype}")
        if features.ndim != 2 or indices.shape != features.shape[:1]:
            raise ValueError("features must be (n, d) with one label index per row")
        rows = max(1, FINITE_CHECK_VALUES // max(features.shape[1], 1))  # no (n, d) bool temporary
        if not all(np.isfinite(features[i : i + rows]).all() for i in range(0, features.shape[0], rows)):
            raise ValueError("features must be finite")
        check_class_list(self.class_list)
        if indices.size and not (0 <= indices.min() and indices.max() < len(self.class_list)):
            raise ValueError(f"label_indices must lie in [0, {len(self.class_list)})")
        indices = indices.astype(np.int64, copy=False).view()
        for arr in (features, indices):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
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
        check_class_list(self.class_list)


def check_class_list(class_list) -> None:
    if tuple(sorted(set(class_list))) != tuple(class_list):
        raise ValueError("class_list must be sorted and distinct")


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float, a bool or anything else
    raises ValueError naming ``name``, so no stored count is rounded quietly."""
    if type(value) is not int:
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return value


def stored_array(value, name: str, dtype: str, ndim: int) -> np.ndarray:
    """``value`` if it is an array of ``dtype`` ("<f8" or "<i8") with
    ``ndim`` dimensions, as a model file's archive holds it; anything else,
    such as a number or a list left in the header, raises ValueError
    naming ``name``."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.dtype(dtype) and value.ndim == ndim):
        got = f"{value.dtype} array of shape {value.shape}" if isinstance(value, np.ndarray) else repr(value)
        raise ValueError(f"{name}: expected a {ndim}-d {np.dtype(dtype)} array, got {got}")
    return value


def check_training_data(data: LabeledDataset) -> None:
    if len(data.class_list) < 2:
        raise InsufficientData("training data must contain at least 2 classes")
    if len(data) < 2:
        raise InsufficientData("training data must contain at least 2 rows")

