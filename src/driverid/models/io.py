"""Versioned persistence for trained models: a JSON header and an ``.npz`` of its arrays.

``save_model(model, path)`` writes ``path`` (``model.json``), a UTF-8 JSON
object of ``format_version``, ``kind``, ``class_list``, ``n_features``,
``pipeline``, ``schema_labels``, ``standardizer``, the kind's ``params``
and ``arrays_sha256``, the sha256 of ``path.with_suffix(".npz")``
(``model.npz``). That archive holds every array (knn rows, the
standardizer, mlp layers, each tree's five arrays) through
`npz.write_arrays`/`read_arrays`, as for cleaned trips, so every bit is
kept; in the header each array is replaced by its dotted place, such as
``"params.weights.0"``, its member's name. Loaded arrays are read-only.

Loading raises ValueError for another format version (version 1 or 2,
arrays as decimal lists or base64 text: retrain with ``driverid train``),
an envelope field of another JSON type, an archive that is not the
header's digest or does not hold exactly its arrays, a NaN or infinity,
and a count or index that is not a JSON integer, such as ``2.0`` or
``true``. This module writes and checks the envelope; the kind's registry
entry converts and checks its params.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..features import Standardizer
from ..npz import read_arrays, write_arrays
from .base import TrainedModel, json_int, stored_array
from .registry import lookup

FORMAT_VERSION = 3

_ENVELOPE = {  # header field: (its check, what it must be)
    "kind": (lambda v: type(v) is str, "a string"),
    "class_list": (lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings"),
    "schema_labels": (lambda v: v is None or _ENVELOPE["class_list"][0](v), "null or a list of strings"),
    "pipeline": (lambda v: v is None or type(v) is dict and all(type(s) is dict for s in v.values()),
                 "null or an object of sections"),
    "standardizer": (lambda v: v is None or type(v) is dict, "null or an object"),
    "params": (lambda v: type(v) is dict, "an object"),
    "arrays_sha256": (lambda v: type(v) is str, "a string"),
}


def save_model(model: TrainedModel, path) -> None:
    """Write ``model`` as the header ``path`` and the archive beside it.

    Each array goes to the archive from its own buffer, so a save holds no
    copy of a kNN model's rows.
    """
    path, arrays = Path(path), {}
    if path.suffix == ".npz":
        raise ValueError(f"{path}: a model header's name may not end in .npz, its archive's does")

    def stash(value, place):
        if not isinstance(value, np.ndarray):
            return value
        arrays[place] = value
        return place

    std = model.standardizer
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "class_list": list(model.class_list),
        "n_features": model.n_features,
        "pipeline": model.pipeline,
        "schema_labels": list(model.schema_labels) if model.schema_labels else None,
        "standardizer": None if std is None else _walk({"mean": std.mean, "std": std.std}, "standardizer", stash),
        "params": _walk(lookup(model.kind).to_doc(model.params), "params", stash),
    }
    write_arrays(path.with_suffix(".npz"), arrays)
    with open(path.with_suffix(".npz"), "rb") as fh:
        doc["arrays_sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _walk(value, place: str, leaf):
    """``value``, found at the dotted ``place``, with each leaf (not an
    object or a list) replaced by ``leaf(that leaf, its place)``."""
    if type(value) is dict:
        return {key: _walk(item, f"{place}.{key}", leaf) for key, item in value.items()}
    if type(value) is list:
        return [_walk(item, f"{place}.{i}", leaf) for i, item in enumerate(value)]
    return leaf(value, place)


def load_model(path) -> TrainedModel:
    """Read the header ``path`` and its archive; a malformed or mismatched
    pair raises ValueError. A string in ``standardizer`` or ``params`` that
    is its own dotted place names an array, and the archive must hold
    exactly those. A load holds one copy of the arrays.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ValueError(f"cannot read model file: {err}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"could not parse model file: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("model file is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {doc.get('format_version')!r}, this driverid reads version "
            f"{FORMAT_VERSION}; retrain the model with `driverid train`"
        )
    json_int(doc["format_version"], "format_version")
    try:
        for name, (ok, what) in _ENVELOPE.items():
            if not ok(doc[name]):
                raise ValueError(f"{name} must be {what}, got {doc[name]!r}")
        if (n_features := json_int(doc["n_features"], "n_features")) < 1:
            raise ValueError(f"n_features must be positive, got {n_features}")
        names = []
        for key in ("standardizer", "params"):
            _walk(doc[key], key, lambda value, place: names.append(place) if value == place else None)
        npz = path.with_suffix(".npz")
        try:
            with open(npz, "rb") as fh:
                if hashlib.file_digest(fh, "sha256").hexdigest() != doc["arrays_sha256"]:
                    raise ValueError("sha256 differs from the header's arrays_sha256: another model's arrays?")
            arrays = read_arrays(npz, names, ("<f8", "<i8"))
        except (OSError, ValueError) as err:
            raise ValueError(f"{npz.name}: {err}") from None
        std_doc, params = (
            _walk(doc[key], key, lambda value, place: arrays[place] if value == place else value)
            for key in ("standardizer", "params")
        )
        class_list = tuple(doc["class_list"])
        return TrainedModel(
            kind=doc["kind"],
            params=lookup(doc["kind"]).from_doc(params, n_features, len(class_list)),
            class_list=class_list,
            n_features=n_features,
            standardizer=None if std_doc is None else _standardizer_from_doc(std_doc, n_features),
            schema_labels=tuple(doc["schema_labels"]) if doc["schema_labels"] else None,
            pipeline=doc["pipeline"],
        )
    except KeyError as err:
        raise ValueError(f"malformed model file: missing key {err.args[0]!r}") from None


def _standardizer_from_doc(doc: dict, n_features: int) -> Standardizer:
    mean, std = (stored_array(doc[key], f"standardizer.{key}", "<f8", 1) for key in ("mean", "std"))
    if mean.shape != (n_features,) or std.shape != (n_features,):
        raise ValueError(f"schema mismatch: standardizer {mean.shape} and {std.shape}, header says {n_features} features")
    return Standardizer(mean, std)
