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

The base64 is streamed: a save encodes and writes each array piece by
piece, and a load decodes it slice by slice into the array, so neither
holds more than about one copy of the file (a kNN file carries every
training row).

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
_ENCODER = json.JSONEncoder(indent=1)  # json.dump's own encoder at indent=1


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
        _write_json(sink.write, doc, "\n")
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            _write_json(fh.write, doc, "\n")


def _write_json(write, value, newline: str) -> None:
    """Write ``value`` as ``json.dump(value, fh, indent=1)`` writes it at the
    depth whose line break and indent is ``newline``. An iterator is a
    string written piece by piece (base64 needs no escaping)."""
    if isinstance(value, Iterator):
        write('"')
        for piece in value:
            write(piece)
        write('"')
    elif not _holds_iterator(value):
        for chunk in _ENCODER.iterencode(value):
            write(chunk.replace("\n", newline))
    elif isinstance(value, dict):
        inner = newline + " "
        for i, (key, item) in enumerate(value.items()):
            write(("{" if i == 0 else ",") + inner + json.dumps(key) + ": ")
            _write_json(write, item, inner)
        write(newline + "}")
    else:  # a list or tuple
        inner = newline + " "
        for i, item in enumerate(value):
            write(("[" if i == 0 else ",") + inner)
            _write_json(write, item, inner)
        write(newline + "]")


def _holds_iterator(value) -> bool:
    if isinstance(value, dict):
        return any(map(_holds_iterator, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_iterator, value))
    return isinstance(value, Iterator)


def load_model(source) -> TrainedModel:
    """Read a model file; a malformed or mismatched one raises ValueError.

    The file's text is dropped once it is parsed, and each array's base64
    is decoded in slices straight into its array (``base.decode_array``),
    so a load holds about the text and its parsed strings, not four copies.
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
