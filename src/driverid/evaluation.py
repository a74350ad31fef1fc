"""Scoring, confusion matrices and the window/overlap/feature/model grid sweep."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .features import FAMILIES, FeatureConfig, feature_schema, subset_families
from .models import MODEL_KINDS, LabeledDataset, TrainedModel, lookup, predict
from .parallel import ordered_map
from .pipeline import build_datasets, train_model
from .preprocess import CleanTrip
from .seeds import derive_seed
from .segment import InsufficientData, SegmentationConfig

# Grid cells go out costliest kind first within each window/overlap group.
DISPATCH_ORDER = ("mlp", "rforest", "dtree", "knn")

REPORT_COLUMNS = ("window_minutes", "overlap", "features", "model", "mean_accuracy", "std", "error")

# Named feature-family combinations the grid sweeps by default.
DEFAULT_FEATURE_SUBSETS = (
    "histogram",
    "mean",
    "variance",
    "difference",
    "correlation",
    "histogram+mean",
    "histogram+variance",
    "histogram+correlation",
    "mean+variance",
    "mean+difference",
    "mean+correlation",
    "histogram+mean+variance",
    "histogram+mean+correlation",
    "mean+variance+difference",
    "mean+variance+correlation",
    "histogram+mean+variance+difference",
    "mean+variance+difference+correlation",
    "histogram+mean+variance+difference+correlation",
)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    accuracy: float
    confusion: np.ndarray          # (c, c) counts, rows true, cols predicted
    per_class_recall: np.ndarray   # NaN where a class has no test rows
    n_test_windows: int
    class_list: tuple[str, ...]
    config_snapshot: dict | None = None

    def to_dict(self) -> dict:
        recall = [None if np.isnan(r) else float(r) for r in self.per_class_recall]
        return {
            "accuracy": self.accuracy,
            "class_list": list(self.class_list),
            "confusion": self.confusion.tolist(),
            "per_class_recall": recall,
            "n_test_windows": self.n_test_windows,
            "config_snapshot": self.config_snapshot,
        }


def evaluate(
    model: TrainedModel, test: LabeledDataset, config_snapshot: dict | None = None
) -> EvaluationReport:
    """Exact confusion counting of the model on held-out rows."""
    if len(test) == 0:
        raise ValueError("empty test set")
    if test.n_features != model.n_features:
        raise ValueError(
            f"schema mismatch: test rows have {test.n_features} features, "
            f"model expects {model.n_features}"
        )
    index = {label: i for i, label in enumerate(model.class_list)}
    unknown = [test.class_list[i] for i in np.unique(test.label_indices) if test.class_list[i] not in index]
    if unknown:
        raise ValueError(f"test labels outside the model's class list: {unknown}")

    c = len(model.class_list)
    truth = np.array([index.get(label, -1) for label in test.class_list], dtype=np.int64)
    guessed, inverse = np.unique(predict(model, test.features), return_inverse=True)
    guess = np.array([index[label] for label in guessed], dtype=np.int64)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (truth[test.label_indices], guess[inverse]), 1)

    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(row_sums > 0, np.diag(confusion) / row_sums, np.nan)
    return EvaluationReport(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        confusion=confusion,
        per_class_recall=recall,
        n_test_windows=len(test),
        class_list=model.class_list,
        config_snapshot=config_snapshot,
    )


def separability_achieved(accuracy: float, n_classes: int) -> bool:
    """A separability claim requires beating chance by a factor of three."""
    return accuracy > 3.0 / n_classes


@dataclass(frozen=True)
class GridSpec:
    window_minutes_list: tuple[float, ...] = (5.0, 10.0, 15.0, 30.0)
    overlap_list: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
    feature_subset_list: tuple[str, ...] = DEFAULT_FEATURE_SUBSETS
    model_list: tuple[str, ...] = MODEL_KINDS
    repetitions: int = 5

    def __post_init__(self):
        for name in ("window_minutes_list", "overlap_list", "feature_subset_list", "model_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        unknown = [m for m in self.model_list if m not in MODEL_KINDS]
        if unknown:
            raise ValueError(f"unknown model kinds {unknown}; known: {list(MODEL_KINDS)}")
        for subset in self.feature_subset_list:
            subset_families(subset)  # rejects unknown families
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for wm, ov in product(self.window_minutes_list, self.overlap_list):
            SegmentationConfig(window_minutes=wm, overlap_fraction=ov)  # rejects out-of-range values


@dataclass
class GridRow:
    window_minutes: float
    overlap: float
    features: str
    model: str
    mean_accuracy: float | None = None
    std: float | None = None
    error: str | None = None
    accuracies: tuple[float, ...] = field(default_factory=tuple)

    def as_record(self) -> dict:
        return {column: getattr(self, column) for column in REPORT_COLUMNS}


def iter_grid(
    trips: Sequence[CleanTrip],
    grid: GridSpec,
    train_fraction: float = 0.7,
    feature_base: FeatureConfig | None = None,
    model_params: dict | None = None,
    master_seed: int = 0,
) -> Iterator[GridRow]:
    """Yield one result row per grid cell, in deterministic cell order.

    Every cell is emitted even when it has too little data
    (`InsufficientData`); the reason travels in the row, and any other
    error propagates. Features are built and standardized once per
    window/overlap group with all families on, then sliced per named
    subset. The families are independent columns and standardization works
    one column at a time, so a cell's train and test rows are bit-identical
    to `build_datasets` with `families` set to its subset, and a seedless
    row reproduces with `train_model` + `evaluate` on those rows (a seeded
    one at the cell's `derive_seed`). Every group's features are built
    first, each across processes (one trip per worker); then the cells run
    across processes (`parallel.ordered_map`), each item naming its window,
    overlap, subset and kind. Within each group the cells go out in
    `DISPATCH_ORDER`, costliest kind first, so the last cells of a sweep are
    short ones and no worker idles long at its end. Rows that finish ahead
    of an earlier cell wait in a buffer, about one group's worth at most.
    When several cells raise, the error raised is that of the first in
    dispatch order.
    """
    if len({t.driver_id for t in trips}) < 2:
        raise ValueError("grid needs trips from at least 2 drivers")
    full_cfg = replace(feature_base or FeatureConfig(), families=FAMILIES)
    model_params = model_params or {}
    columns = {subset: _subset_columns(full_cfg, subset) for subset in grid.feature_subset_list}

    bundles = {}
    for wm, ov in product(grid.window_minutes_list, grid.overlap_list):
        seg_cfg = SegmentationConfig(
            window_minutes=wm, overlap_fraction=ov, train_fraction=train_fraction
        )
        try:
            bundles[wm, ov] = build_datasets(trips, seg_cfg, full_cfg)
        except InsufficientData as err:  # short trips, long windows
            bundles[wm, ov] = str(err)
    cells = list(product(
        grid.window_minutes_list, grid.overlap_list, grid.feature_subset_list, grid.model_list
    ))
    group_size = len(grid.feature_subset_list) * len(grid.model_list)
    dispatch = sorted(
        range(len(cells)), key=lambda i: (i // group_size, DISPATCH_ORDER.index(cells[i][3]))
    )
    run = partial(_run_cell, bundles, columns, grid.repetitions, model_params, master_seed)
    done, next_row = {}, 0
    for i, row in zip(dispatch, ordered_map(run, [cells[i] for i in dispatch])):
        done[i] = row
        while next_row in done:
            yield done.pop(next_row)
            next_row += 1


def run_grid(
    trips: Sequence[CleanTrip],
    grid: GridSpec,
    train_fraction: float = 0.7,
    feature_base: FeatureConfig | None = None,
    model_params: dict | None = None,
    master_seed: int = 0,
) -> list[GridRow]:
    """Run the full grid and return rows sorted by mean accuracy, best first."""
    rows = iter_grid(trips, grid, train_fraction, feature_base, model_params, master_seed)
    return sort_rows(list(rows))


def sort_rows(rows: Sequence[GridRow]) -> list[GridRow]:
    """Best mean accuracy first, failed cells last, stable within ties."""
    return sorted(rows, key=lambda row: (row.mean_accuracy is None, -(row.mean_accuracy or 0.0)))


def _run_cell(bundles, columns, repetitions, model_params, master_seed, cell) -> GridRow:
    """One grid row; a group's bundle is its datasets or why it has none."""
    wm, ov, subset, kind = cell
    bundle = bundles[wm, ov]
    if isinstance(bundle, str):
        return GridRow(wm, ov, subset, kind, error=bundle)
    try:
        train = _slice_dataset(bundle.train, columns[subset])
        test = _slice_dataset(bundle.test, columns[subset])
        # a seedless kind would fit the same model every repetition: fit it once
        fits = repetitions if lookup(kind).seeded else 1
        accuracies = []
        for rep in range(fits):
            seed = derive_seed(master_seed, f"grid:{wm}:{ov}:{subset}:{kind}:rep{rep}")
            model = train_model(kind, train, model_params.get(kind), seed=seed)
            accuracies.append(evaluate(model, test).accuracy)
        acc = np.array(accuracies)  # the distinct fits: a seedless cell's mean is exact
        return GridRow(
            wm, ov, subset, kind,
            mean_accuracy=float(acc.mean()),
            std=float(acc.std()),
            accuracies=tuple(float(a) for a in np.repeat(acc, repetitions // fits)),
        )
    except InsufficientData as err:
        return GridRow(wm, ov, subset, kind, error=str(err))


def _subset_columns(full_cfg: FeatureConfig, subset: str) -> np.ndarray:
    families = subset_families(subset)
    return np.nonzero([entry[0] in families for entry in feature_schema(full_cfg)])[0]


def _slice_dataset(ds: LabeledDataset, columns: np.ndarray) -> LabeledDataset:
    labels = None
    if ds.schema_labels is not None:
        labels = tuple(ds.schema_labels[i] for i in columns)
    return LabeledDataset(
        features=ds.features[:, columns],
        label_indices=ds.label_indices,
        class_list=ds.class_list,
        schema_labels=labels,
    )


def render_report(rows: Sequence[GridRow]) -> str:
    """Fixed-width human-readable table, one line per grid row."""
    header = f"{'window':>7} {'overlap':>8} {'features':<50} {'model':<8} {'mean_acc':>9} {'std':>7} error"
    lines = [header, "-" * len(header)]
    for row in rows:
        mean = f"{row.mean_accuracy:.4f}" if row.mean_accuracy is not None else "-"
        std = f"{row.std:.4f}" if row.std is not None else "-"
        lines.append(
            f"{row.window_minutes:>7g} {row.overlap:>8g} {row.features:<50} "
            f"{row.model:<8} {mean:>9} {std:>7} {row.error or ''}".rstrip()
        )
    return "\n".join(lines) + "\n"


def report_csv(rows: Sequence[GridRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        rec = row.as_record()
        writer.writerow(["" if rec[c] is None else rec[c] for c in REPORT_COLUMNS])
    return buf.getvalue()


def write_reports(rows: Sequence[GridRow], out_dir, complete: bool = True, extra: dict | None = None):
    """Write grid_report.csv and grid_report.json; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "grid_report.csv"
    json_path = out / "grid_report.json"
    csv_path.write_text(report_csv(rows), encoding="utf-8")
    doc = {"complete": complete, "rows": [r.as_record() for r in rows]}
    if extra:
        doc.update(extra)
    json_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return csv_path, json_path
