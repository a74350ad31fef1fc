"""Shared composition of the stages: ingest -> clean -> split -> segment ->
featurize -> standardize -> train.

Partition tags travel with every window and feature vector, and the
standardizer fit refuses anything tagged test, so training can never touch
held-out data.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import (
    FeatureConfig,
    FeatureVector,
    Standardizer,
    apply_standardizer,
    extract_sequence,
    fit_standardizer,
    schema_labels,
)
from .models import LabeledDataset, TrainedModel
from .models.registry import lookup
from .preprocess import CleanTrip
from .segment import SegmentationConfig, segment_trip


@dataclass
class DatasetBundle:
    train: LabeledDataset
    test: LabeledDataset
    standardizer: Standardizer
    window_counts: dict = field(default_factory=dict)  # driver -> {train, test}


def build_datasets(
    trips: Sequence[CleanTrip], seg_cfg: SegmentationConfig, feat_cfg: FeatureConfig
) -> DatasetBundle:
    """Window and featurize every trip, then standardize on train statistics."""
    train_vectors: list[FeatureVector] = []
    test_vectors: list[FeatureVector] = []
    counts: dict = {}
    for trip in trips:
        train_windows, test_windows = segment_trip(trip, seg_cfg)
        train_vectors.extend(extract_sequence(train_windows, feat_cfg))
        test_vectors.extend(extract_sequence(test_windows, feat_cfg))
        entry = counts.setdefault(trip.driver_id, {"train": 0, "test": 0})
        entry["train"] += len(train_windows)
        entry["test"] += len(test_windows)

    if not train_vectors:
        raise ValueError("no training windows were produced")
    if not test_vectors:
        raise ValueError("empty test set: no test windows were produced")

    standardizer = fit_standardizer(train_vectors)
    class_list = tuple(sorted({v.driver_id for v in train_vectors}))
    train = _standardized_dataset(train_vectors, standardizer, class_list)
    test = _standardized_dataset(test_vectors, standardizer, class_list)
    return DatasetBundle(train=train, test=test, standardizer=standardizer, window_counts=counts)


def train_model(
    kind: str,
    train: LabeledDataset,
    params: dict | None = None,
    seed: int = 0,
    standardizer: Standardizer | None = None,
) -> TrainedModel:
    """Train one classifier kind; ``params`` override the kind's defaults."""
    entry = lookup(kind)
    params = params or {}
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {kind}: {sorted(unknown)}")
    model = entry.fit(train, {**entry.defaults, **params}, seed)
    model.standardizer = standardizer
    return model


def _standardized_dataset(
    vectors: Sequence[FeatureVector], standardizer: Standardizer, class_list
) -> LabeledDataset:
    matrix = apply_standardizer(standardizer, np.vstack([v.values for v in vectors]))
    return LabeledDataset(
        features=matrix,
        labels=np.array([v.driver_id for v in vectors], dtype=object),
        class_list=class_list,
        schema_labels=schema_labels(vectors[0].schema),
    )
