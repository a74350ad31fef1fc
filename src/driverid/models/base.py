"""Shared dataset and trained-model containers for the classifiers.

``pipeline.train_model`` turns a LabeledDataset of standardized feature
rows into a TrainedModel, whatever the kind. Predictions always take vectors in the same
(standardized) space the model was trained in; the fitted Standardizer is
carried on the model so persisted models can transform fresh raw features.

``array_doc``/``decode_array`` are the one conversion between a numeric
array and its JSON form in a model file.
"""
from __future__ import annotations

import base64
import binascii
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..features import Standardizer
from ..segment import InsufficientData

# A model file's arrays are written in pieces: ENCODE_PIECE_BYTES of array
# data (a multiple of 3) become one 131,072-character base64 piece.
ENCODE_PIECE_BYTES = 3 * 2**15
# LabeledDataset checks its features for finiteness about this many values at a time.
FINITE_CHECK_VALUES = 2**16


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
        rows = max(1, FINITE_CHECK_VALUES // max(features.shape[1], 1))  # no (n, d) bool temporary
        if not all(np.isfinite(features[i : i + rows]).all() for i in range(0, features.shape[0], rows)):
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


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float, a bool or anything else
    raises ValueError naming ``name``, so no stored count is rounded quietly."""
    if type(value) is not int:
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return value


def array_doc(a, dtype: str) -> dict:
    """``{"dtype", "shape", "data"}``: the array as C-order little-endian
    ``dtype`` ("<f8" or "<i8") bytes in base64, which keeps every bit.

    ``data`` is an iterator of base64 pieces, each the encoding of the next
    ``ENCODE_PIECE_BYTES`` bytes of a memoryview of the array, so a writer
    can stream it without ever holding the whole encoding.
    """
    arr = np.asarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(arr.shape), "data": _base64_pieces(arr.reshape(-1).view(np.uint8))}


def _base64_pieces(raw: np.ndarray):
    data = memoryview(raw)
    for start in range(0, len(data), ENCODE_PIECE_BYTES):
        yield base64.b64encode(data[start : start + ENCODE_PIECE_BYTES]).decode("ascii")


def decode_array(doc, name: str, dtype: str) -> np.ndarray:
    """Inverse of array_doc: a native-order, C-contiguous, read-only array
    over the bytes of one ``binascii.a2b_base64(data, strict_mode=True)``,
    the call ``base64.b64decode(data, validate=True)`` makes.

    Raises ValueError naming ``name`` when the object is not an array of
    ``dtype``, its data is not base64 text, its byte count does not match
    its shape or a "<f8" value is NaN or infinite.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{name}: expected an array object, got {type(doc).__name__}")
    if doc["dtype"] != dtype:
        raise ValueError(f"{name}: dtype {doc['dtype']!r}, expected {dtype!r}")
    shape = doc["shape"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"{name}: shape {shape!r} is not a list of sizes")
    size = math.prod(shape) * np.dtype(dtype).itemsize
    try:
        raw = binascii.a2b_base64(doc["data"], strict_mode=True)
    except (ValueError, TypeError) as err:  # binascii.Error is a ValueError
        raise ValueError(f"{name}: bad base64 data ({err})") from None
    if len(raw) != size:
        raise ValueError(f"{name}: {len(raw)} bytes of data for shape {shape}")
    arr = np.frombuffer(raw, dtype).reshape(shape).astype(np.dtype(dtype).newbyteorder("="), copy=False)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite value")
    return arr


def check_training_data(data: LabeledDataset) -> None:
    if len(data.class_list) < 2:
        raise InsufficientData("training data must contain at least 2 classes")
    if len(data) < 2:
        raise InsufficientData("training data must contain at least 2 rows")

