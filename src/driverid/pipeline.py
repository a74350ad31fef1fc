"""Shared composition of the stages: ingest -> clean -> split -> segment ->
featurize -> standardize -> train.

Each trip's train and test spans, split at `segment.split_index`, become
one window batch and one feature block each, tagged with their partition;
the standardizer fit refuses any block tagged test, so training can never
touch held-out data. `build_test_dataset` (evaluating a saved model) cuts
only the test span, from the same split index, and turns blocks into
labelled rows through the same function as `build_datasets` (train,
grid). Each trip is windowed and featurized as one `parallel.ordered_map`
item; the blocks are stacked, counted and standardized here, in trip order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .features import (
    FeatureBlock,
    FeatureConfig,
    Standardizer,
    extract_sequence,
    feature_schema,
    fit_standardizer,
    schema_labels,
    standardize_in_place,
)
from .models import LabeledDataset, TrainedModel
from .models.base import check_training_data
from .models.registry import lookup
from .parallel import ordered_map
from .preprocess import CleanTrip
from .segment import TEST, InsufficientData, SegmentationConfig, cut_windows, segment_trip, split_index

NO_TEST_WINDOWS = "empty test set: no test windows were produced"


@dataclass
class DatasetBundle:
    train: LabeledDataset
    test: LabeledDataset
    standardizer: Standardizer
    window_counts: dict = field(default_factory=dict)  # driver -> {train, test}


def build_datasets(
    trips: Sequence[CleanTrip], seg_cfg: SegmentationConfig, feat_cfg: FeatureConfig
) -> DatasetBundle:
    """Window and featurize every trip, then standardize on train statistics.

    Each partition's blocks are stacked once and dropped, so the rows are
    held at most twice: the blocks, and the one partition being stacked.
    """
    blocks = list(ordered_map(partial(_trip_blocks, trips, seg_cfg, feat_cfg), range(len(trips))))
    train_blocks = [train for train, _ in blocks]
    test_blocks = [test for _, test in blocks]
    del blocks
    counts = _window_counts(train_blocks, test_blocks)
    if not any(map(len, train_blocks)):
        raise InsufficientData("no training windows were produced")
    for driver, entry in counts.items():
        if entry["test"] and not entry["train"]:
            raise InsufficientData(f"driver {driver!r} has test windows but no training windows")
    if not any(map(len, test_blocks)):
        raise InsufficientData(NO_TEST_WINDOWS)
    standardizer = fit_standardizer(train_blocks)
    class_list = tuple(sorted({b.driver_id for b in train_blocks if len(b)}))
    schema = schema_labels(feature_schema(feat_cfg))
    train = _standardized_dataset(train_blocks, standardizer, class_list, schema)
    del train_blocks
    test = _standardized_dataset(test_blocks, standardizer, class_list, schema)
    return DatasetBundle(train=train, test=test, standardizer=standardizer, window_counts=counts)


def _window_counts(train_blocks, test_blocks) -> dict:
    """Driver -> {"train", "test"} window counts."""
    counts: dict = {}
    for train, test in zip(train_blocks, test_blocks):
        entry = counts.setdefault(train.driver_id, {"train": 0, "test": 0})
        entry["train"] += len(train)
        entry["test"] += len(test)
    return counts


def build_test_dataset(
    trips: Sequence[CleanTrip], seg_cfg: SegmentationConfig, feat_cfg: FeatureConfig, model: TrainedModel
) -> LabeledDataset:
    """Window and featurize only the test spans, standardized with the model's statistics."""
    if model.standardizer is None:
        raise ValueError("model carries no standardizer; cannot evaluate raw features")
    blocks = list(ordered_map(partial(_test_block, trips, seg_cfg, feat_cfg), range(len(trips))))
    if not any(map(len, blocks)):
        raise InsufficientData(NO_TEST_WINDOWS)
    schema = schema_labels(feature_schema(feat_cfg))
    return _standardized_dataset(blocks, model.standardizer, model.class_list, schema)


def _trip_blocks(trips, seg_cfg, feat_cfg, index: int) -> tuple[FeatureBlock, FeatureBlock]:
    """The train and test feature blocks of `trips[index]`, one `ordered_map` item."""
    train_windows, test_windows = segment_trip(trips[index], seg_cfg)
    return extract_sequence(train_windows, feat_cfg), extract_sequence(test_windows, feat_cfg)


def _test_block(trips, seg_cfg, feat_cfg, index: int) -> FeatureBlock:
    """The test feature block of `trips[index]`; its train span is never cut."""
    trip = trips[index]
    test_windows = cut_windows(trip, split_index(trip, seg_cfg), len(trip), TEST, seg_cfg)
    return extract_sequence(test_windows, feat_cfg)


def train_model(
    kind: str,
    train: LabeledDataset,
    params: dict | None = None,
    seed: int = 0,
    standardizer: Standardizer | None = None,
) -> TrainedModel:
    """Train a classifier of any kind; ``params`` override the kind's registry defaults."""
    entry = lookup(kind)
    params = params or {}
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {kind}: {sorted(unknown)}")
    params = {**entry.defaults, **params}
    entry.check(params)
    check_training_data(train)
    return TrainedModel(
        kind=kind,
        params=entry.fit(train, params, seed),
        class_list=train.class_list,
        n_features=train.n_features,
        standardizer=standardizer,
        schema_labels=train.schema_labels,
    )


def _standardized_dataset(
    blocks: Sequence[FeatureBlock], standardizer: Standardizer, class_list, schema
) -> LabeledDataset:
    """Stack feature blocks into z-scored rows, each labelled with its block's
    driver as a position in ``class_list``; a block with rows whose driver
    is not in it raises ValueError naming the driver.

    The stacked matrix is fresh, so it is z-scored in place.
    """
    position = {driver: i for i, driver in enumerate(class_list)}
    for b in blocks:
        if len(b) and b.driver_id not in position:
            raise ValueError(f"driver {b.driver_id!r} is not in the class list {list(class_list)}")
    return LabeledDataset(
        features=standardize_in_place(standardizer, np.vstack([b.values for b in blocks], dtype=np.float64)),
        label_indices=np.repeat([position.get(b.driver_id, 0) for b in blocks], [len(b) for b in blocks]),
        class_list=class_list,
        schema_labels=schema,
    )
