"""Versioned JSON persistence for trained models.

Floats are written with full repr precision so a save/load round trip
reproduces predictions bit for bit. This module writes the envelope; the
kind's registry entry converts its params.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..features import Standardizer
from .base import TrainedModel
from .registry import lookup

FORMAT_VERSION = 1


def save_model(model: TrainedModel, sink) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "class_list": list(model.class_list),
        "n_features": model.n_features,
        "pipeline": model.pipeline,
        "schema_labels": list(model.schema_labels) if model.schema_labels else None,
        "standardizer": (
            {"mean": model.standardizer.mean.tolist(), "std": model.standardizer.std.tolist()}
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

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
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
                Standardizer(np.array(std_doc["mean"]), np.array(std_doc["std"]))
                if std_doc is not None
                else None
            ),
            schema_labels=tuple(schema) if schema else None,
            pipeline=doc.get("pipeline"),
        )
    except KeyError as err:
        raise ValueError(f"malformed model file: missing key {err.args[0]!r}") from None
