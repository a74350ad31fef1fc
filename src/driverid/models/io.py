"""Versioned JSON persistence for trained models.

A model file is one JSON object: ``format_version``, ``kind``,
``class_list``, ``n_features``, the ``pipeline`` record, ``schema_labels``,
the ``standardizer`` and the kind's ``params``. Every numeric array in it
(knn ``train_x``/``train_y``, the standardizer's ``mean``/``std``, mlp
``weights``/``biases``) is one ``{"dtype", "shape", "data"}`` object:
"<f8" or "<i8" values in C order, little-endian, base64-encoded (see
``base.array_doc``). That keeps every bit, so a save/load round trip
reproduces predictions exactly, and is about a third of the bytes of
decimal text. Tree and forest node lists stay plain JSON objects.
Loading refuses a NaN or infinite float, in an array or a tree threshold:
training never stores one, so it means the file was edited or damaged.
It also refuses a count or index (``format_version``, ``n_features``, knn
``k``, tree node links, ...) that is not a JSON integer, such as ``2.0``
or ``true``.

A save streams each array's base64 pieces into json's own encoder output,
and a load decodes each array whole, so neither holds more than about one
copy of the file (a kNN file carries every training row). Loaded arrays
are read-only.

Only the current ``FORMAT_VERSION`` is read. A version-1 file, which wrote
arrays as decimal lists, is refused: retrain it with ``driverid train``.
This module writes the envelope; the kind's registry entry converts its
params.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

from ..features import Standardizer
from .base import TrainedModel, array_doc, decode_array, json_int
from .registry import lookup

FORMAT_VERSION = 2


def save_model(model: TrainedModel, sink) -> None:
    """Write ``model`` to a path or a text stream.

    The bytes are those of ``json.dump(doc, fh, indent=1)``, but each
    array's base64 is made and written piece by piece (``base.array_doc``),
    so a save holds no copy of a payload: not its bytes, its base64 or an
    escaped or encoded copy of it.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "class_list": list(model.class_list),
        "n_features": model.n_features,
        "pipeline": model.pipeline,
        "schema_labels": list(model.schema_labels) if model.schema_labels else None,
        "standardizer": (
            {
                "mean": array_doc(model.standardizer.mean, "<f8"),
                "std": array_doc(model.standardizer.std, "<f8"),
            }
            if model.standardizer is not None
            else None
        ),
        "params": lookup(model.kind).to_doc(model.params),
    }
    if hasattr(sink, "write"):
        _dump(doc, sink.write)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            _dump(doc, fh.write)


def _dump(doc: dict, write) -> None:
    """``json.dump(doc, fh, indent=1)`` with each iterator of base64 pieces
    in ``doc`` joined into its string, the pieces streamed: the encoder
    calls ``default`` once it has yielded all text before an iterator, and
    the pieces go between the quotes of the "" that ``default`` returns."""
    gap = None

    def default(value):
        nonlocal gap
        if not isinstance(value, Iterator):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        gap = value
        return ""

    for chunk in json.JSONEncoder(indent=1, default=default).iterencode(doc):
        if gap is not None and chunk:
            write(chunk[0])  # the opening quote
            for piece in gap:
                write(piece)
            gap, chunk = None, chunk[1:]
        write(chunk)


def load_model(source) -> TrainedModel:
    """Read a model file; a malformed or mismatched one raises ValueError.

    The file's text is dropped once it is parsed, and each array is a
    read-only view of its decoded bytes (``base.decode_array``), so a load
    holds about the text and its parsed strings, not four copies.
    """
    doc = _parse(source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}, this driverid reads version "
            f"{FORMAT_VERSION}; retrain the model with `driverid train`"
        )
    json_int(version, "format_version")
    try:
        entry = lookup(doc["kind"])
        n_features = json_int(doc["n_features"], "n_features")
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


def _parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"could not parse model file: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("model file is not a JSON object")
    return doc


def _standardizer_from_doc(doc: dict, n_features: int) -> Standardizer:
    mean = decode_array(doc["mean"], "standardizer.mean", "<f8")
    std = decode_array(doc["std"], "standardizer.std", "<f8")
    if mean.shape != (n_features,) or std.shape != (n_features,):
        raise ValueError(
            f"schema mismatch: standardizer mean {mean.shape} and std {std.shape}, "
            f"header says {n_features} features"
        )
    return Standardizer(mean, std)
