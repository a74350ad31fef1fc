"""Versioned JSON persistence for trained models.

A model file is one JSON object: ``format_version``, ``kind``,
``class_list``, ``n_features``, the ``pipeline`` record, ``schema_labels``,
the ``standardizer`` and the kind's ``params``. Every numeric array in it
(knn ``train_x``/``train_y``, the standardizer's ``mean``/``std``, mlp
``weights``/``biases``) is one ``{"dtype", "shape", "data"}`` object:
"<f8" or "<i8" values in C order, little-endian, base64-encoded (see
``base.encode_array``). That keeps every bit, so a save/load round trip
reproduces predictions exactly, and is about a third of the bytes of
decimal text. Tree and forest node lists stay plain JSON objects.
Loading refuses a NaN or infinite float, in an array or a tree threshold:
training never stores one, so it means the file was edited or damaged.

Only the current ``FORMAT_VERSION`` is read. A version-1 file, which wrote
arrays as decimal lists, is refused: retrain it with ``driverid train``.
This module writes the envelope; the kind's registry entry converts its
params.
"""
from __future__ import annotations

import json
from pathlib import Path

from ..features import Standardizer
from .base import TrainedModel, decode_array, encode_array
from .registry import lookup

FORMAT_VERSION = 2


def save_model(model: TrainedModel, sink) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "class_list": list(model.class_list),
        "n_features": model.n_features,
        "pipeline": model.pipeline,
        "schema_labels": list(model.schema_labels) if model.schema_labels else None,
        "standardizer": (
            {
                "mean": encode_array(model.standardizer.mean, "<f8"),
                "std": encode_array(model.standardizer.std, "<f8"),
            }
            if model.standardizer is not None
            else None
        ),
        "params": lookup(model.kind).to_doc(model.params),
    }
    # streamed, not built as one string: a knn document holds every training row
    if hasattr(sink, "write"):
        json.dump(doc, sink, indent=1)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def load_model(source) -> TrainedModel:
    """Read a model file; a malformed or mismatched one raises ValueError."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"could not parse model file: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("model file is not a JSON object")

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}, this driverid reads version "
            f"{FORMAT_VERSION}; retrain the model with `driverid train`"
        )
    try:
        entry = lookup(doc["kind"])
        n_features = int(doc["n_features"])
        class_list = tuple(doc["class_list"])
        std_doc = doc.get("standardizer")
        schema = doc.get("schema_labels")
        return TrainedModel(
            kind=doc["kind"],
            params=entry.from_doc(doc["params"], n_features, len(class_list)),
            class_list=class_list,
            n_features=n_features,
            standardizer=(
                _standardizer_from_doc(std_doc, n_features) if std_doc is not None else None
            ),
            schema_labels=tuple(schema) if schema else None,
            pipeline=doc.get("pipeline"),
        )
    except KeyError as err:
        raise ValueError(f"malformed model file: missing key {err.args[0]!r}") from None


def _standardizer_from_doc(doc: dict, n_features: int) -> Standardizer:
    mean = decode_array(doc["mean"], "standardizer.mean", "<f8")
    std = decode_array(doc["std"], "standardizer.std", "<f8")
    if mean.shape != (n_features,) or std.shape != (n_features,):
        raise ValueError(
            f"schema mismatch: standardizer mean {mean.shape} and std {std.shape}, "
            f"header says {n_features} features"
        )
    return Standardizer(mean, std)
