"""Driver identification from smartphone accelerometer/gyroscope trip logs.

Pipeline: ingest raw 6-channel logs, clean them (denoise, reorient, gap
handling, stop deletion), cut overlapping windows chronologically split
into train/test, extract trimmed-histogram and statistical features,
standardize on train data, and classify windows with kNN, decision tree,
random forest or an MLP.
"""
from __future__ import annotations

from .evaluation import EvaluationReport, GridSpec, evaluate, run_grid
from .features import (
    FeatureBlock,
    FeatureConfig,
    Standardizer,
    apply_standardizer,
    extract_sequence,
    fit_standardizer,
    trimmed_histogram,
)
from .ingest import CHANNELS, Trip, ValidationReport, parse_log, serialize_log, validate_trip
from .models import LabeledDataset, MlpConfig, TrainedModel, load_model, predict, save_model
from .pipeline import build_datasets, build_test_dataset, train_model
from .preprocess import (
    CleaningConfig,
    CleanTrip,
    StopInterval,
    clean,
    denoise,
    detect_stops,
    fill_gaps,
    remove_stops,
    reorient,
)
from .segment import (
    InsufficientData,
    SegmentationConfig,
    WindowBatch,
    cut_windows,
    segment_trip,
    split_index,
)
from .synth import DriverProfile, SyntheticTruth, generate_trip, make_profiles

__all__ = [  # the public names: those README and the demos import from here
    "CleaningConfig", "FeatureConfig", "GridSpec", "SegmentationConfig", "apply_standardizer", "clean", "denoise",
    "detect_stops", "evaluate", "extract_sequence", "fill_gaps", "fit_standardizer", "generate_trip",
    "make_profiles", "reorient", "run_grid", "segment_trip", "validate_trip",
]
__version__ = "0.1.0"
