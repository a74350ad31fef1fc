"""Shared dataset and trained-model containers for the classifiers.

``pipeline.train_model`` turns a LabeledDataset of standardized feature
rows into a TrainedModel, whatever the kind. Predictions always take vectors in the same
(standardized) space the model was trained in; the fitted Standardizer is
carried on the model so persisted models can transform fresh raw features.

``encode_array``/``decode_array`` are the one conversion between a numeric
array and its JSON form in a model file.
"""
from __future__ import annotations

import base64
import math
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
        features = np.asarray(self.features, dtype=np.float64).view()
        labels = np.asarray(self.labels, dtype=object).view()
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise ValueError("features must be (n, d) with one label per row")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        check_class_list(self.class_list)
        lookup = {c: i for i, c in enumerate(self.class_list)}
        unknown = set(labels) - lookup.keys()
        if unknown:
            raise ValueError(f"labels outside class_list: {sorted(unknown)}")
        indices = np.array([lookup[label] for label in labels], dtype=np.int64)
        for arr in (features, labels, indices):
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
        check_class_list(self.class_list)


def check_class_list(class_list) -> None:
    if tuple(sorted(set(class_list))) != tuple(class_list):
        raise ValueError("class_list must be sorted and distinct")


def encode_array(a, dtype: str) -> dict:
    """``{"dtype", "shape", "data"}``: the array as C-order little-endian
    ``dtype`` ("<f8" or "<i8") bytes in base64, which keeps every bit."""
    arr = np.asarray(a, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(doc, name: str, dtype: str) -> np.ndarray:
    """Inverse of encode_array, as a native-order, C-contiguous, writable array.

    Raises ValueError naming ``name`` when the object is not an array of
    ``dtype``, its base64 is bad, its byte count does not match its shape
    or a "<f8" value is NaN or infinite.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{name}: expected an array object, got {type(doc).__name__}")
    if doc["dtype"] != dtype:
        raise ValueError(f"{name}: dtype {doc['dtype']!r}, expected {dtype!r}")
    shape = doc["shape"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"{name}: shape {shape!r} is not a list of sizes")
    try:
        raw = base64.b64decode(doc["data"], validate=True)
    except (ValueError, TypeError) as err:  # binascii.Error is a ValueError
        raise ValueError(f"{name}: bad base64 data ({err})") from None
    itemsize = np.dtype(dtype).itemsize
    if len(raw) != math.prod(shape) * itemsize:
        raise ValueError(f"{name}: {len(raw)} bytes of data for shape {shape}")
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.dtype(dtype).newbyteorder("="))
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite value")
    return arr


def check_training_data(data: LabeledDataset) -> None:
    if len(data.class_list) < 2:
        raise InsufficientData("training data must contain at least 2 classes")
    if len(data) < 2:
        raise InsufficientData("training data must contain at least 2 rows")

