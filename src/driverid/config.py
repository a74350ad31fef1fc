"""Manifest and run-configuration files.

The manifest is CSV with header ``path,driver_id,rate_hz``; relative paths
resolve against the manifest's directory. The run config is INI-style
(key = value under [section] headers, keys lowercase) with a strict
schema: any unknown section or key is rejected, because a silently ignored
typo is the main way a run stops being reproducible.
"""
from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field
from pathlib import Path

from .evaluation import DEFAULT_FEATURE_SUBSETS, GridSpec
from .features import FAMILIES, FeatureConfig, feature_config_from_families
from .models.registry import MODEL_KINDS, REGISTRY
from .preprocess import CleaningConfig
from .segment import SegmentationConfig


class ConfigError(ValueError):
    """Bad manifest, config file or command usage (exit code 2)."""


@dataclass(frozen=True)
class Manifest:
    entries: tuple[tuple[Path, str, float], ...]  # (log path, driver_id, rate_hz)
    name: str = "dataset"

    def __post_init__(self):
        if not self.entries:
            raise ConfigError("manifest must list at least one log")
        paths = [str(p) for p, _, _ in self.entries]
        if len(set(paths)) != len(paths):
            raise ConfigError("manifest paths must be distinct")
        for _, driver_id, rate in self.entries:
            if not driver_id:
                raise ConfigError("manifest driver_id must be nonempty")
            if rate <= 0:
                raise ConfigError("manifest rate_hz must be positive")


def read_manifest(path) -> Manifest:
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["path", "driver_id", "rate_hz"]:
            raise ConfigError(f"manifest {path}: expected header path,driver_id,rate_hz")
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            if len(row) != 3:
                raise ConfigError(f"manifest {path}: malformed row {row!r}")
            log_path = Path(row[0])
            if not log_path.is_absolute():
                log_path = path.parent / log_path
            try:
                rate = float(row[2])
            except ValueError:
                raise ConfigError(f"manifest {path}: bad rate_hz {row[2]!r}") from None
            rows.append((log_path, row[1].strip(), rate))
    return Manifest(entries=tuple(rows), name=path.stem)


def write_manifest(entries, path) -> None:
    """entries: iterable of (path, driver_id, rate_hz); paths written as given."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "driver_id", "rate_hz"])
        for log_path, driver_id, rate in entries:
            writer.writerow([str(log_path), driver_id, repr(float(rate))])


@dataclass
class RunConfig:
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model_kind: str = "mlp"
    model_params: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)
    master_seed: int = 0

    def pipeline_record(self) -> dict:
        """The snapshot sections that decide how feature rows are made."""
        snapshot = self.snapshot()
        return {section: snapshot[section] for section in ("cleaning", "segmentation", "features")}

    def snapshot(self) -> dict:
        """Full config as a plain dict, embedded in every report."""
        return {
            "seed": self.master_seed,
            "cleaning": {
                "denoise_window": self.cleaning.denoise_window,
                "stop_threshold": self.cleaning.stop_threshold,
                "min_stop_seconds": self.cleaning.min_stop_seconds,
                "max_gap_fill": self.cleaning.max_gap_fill,
                "reorient": self.cleaning.reorient,
                "stop_aggregate": self.cleaning.stop_aggregate,
            },
            "segmentation": {
                "window_minutes": self.segmentation.window_minutes,
                "overlap_fraction": self.segmentation.overlap_fraction,
                "train_fraction": self.segmentation.train_fraction,
            },
            "features": {
                "families": "+".join(self.features.families),
                "histogram_bins": self.features.histogram_bins,
                "trim_keep_fraction": self.features.trim_keep_fraction,
                "difference_uses_sum": self.features.difference_uses_sum,
            },
            "model": {"kind": self.model_kind, "params": dict(self.model_params)},
            "grid": {
                "window_minutes": list(self.grid.window_minutes_list),
                "overlaps": list(self.grid.overlap_list),
                "features": list(self.grid.feature_subset_list),
                "models": list(self.grid.model_list),
                "repetitions": self.grid.repetitions,
            },
        }


_SCHEMA = {
    "run": {"seed", "model"},
    "cleaning": {
        "denoise_window", "stop_threshold", "min_stop_seconds",
        "max_gap_fill", "reorient", "stop_aggregate",
    },
    "segmentation": {"window_minutes", "overlap", "train_fraction"},
    "features": {"families", "histogram_bins", "trim_keep_fraction", "difference_uses_sum"},
    **{f"model.{kind}": set(entry.defaults) for kind, entry in REGISTRY.items()},
    "grid": {"window_minutes", "overlaps", "features", "models", "repetitions"},
}


def read_run_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")

    try:
        return _build_config(parser)
    except (ValueError, KeyError) as err:
        raise ConfigError(f"invalid config {path}: {err}") from None


def _build_config(parser: configparser.ConfigParser) -> RunConfig:
    cfg = RunConfig()
    get = _SectionReader(parser)

    cleaning = CleaningConfig(
        denoise_window=get.int("cleaning", "denoise_window", cfg.cleaning.denoise_window),
        stop_threshold=get.float("cleaning", "stop_threshold", cfg.cleaning.stop_threshold),
        min_stop_seconds=get.float("cleaning", "min_stop_seconds", cfg.cleaning.min_stop_seconds),
        max_gap_fill=get.float("cleaning", "max_gap_fill", cfg.cleaning.max_gap_fill),
        reorient=get.bool("cleaning", "reorient", cfg.cleaning.reorient),
        stop_aggregate=get.str("cleaning", "stop_aggregate", cfg.cleaning.stop_aggregate),
    )
    segmentation = SegmentationConfig(
        window_minutes=get.float("segmentation", "window_minutes", cfg.segmentation.window_minutes),
        overlap_fraction=get.float("segmentation", "overlap", cfg.segmentation.overlap_fraction),
        train_fraction=get.float("segmentation", "train_fraction", cfg.segmentation.train_fraction),
    )
    families = get.str("features", "families", "all")
    features = feature_config_from_families(
        list(FAMILIES) if families == "all" else families.split("+"),
        FeatureConfig(
            histogram_bins=get.int("features", "histogram_bins", 100),
            trim_keep_fraction=get.float("features", "trim_keep_fraction", 0.95),
            difference_uses_sum=get.bool("features", "difference_uses_sum", False),
        ),
    )
    model_kind = get.str("run", "model", "mlp")
    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    model_params = _model_params(parser, model_kind)
    grid = GridSpec(
        window_minutes_list=get.floats("grid", "window_minutes", (5.0, 10.0, 15.0, 30.0)),
        overlap_list=get.floats("grid", "overlaps", (0.0, 0.25, 0.5, 0.75)),
        feature_subset_list=get.strs("grid", "features", DEFAULT_FEATURE_SUBSETS),
        model_list=get.strs("grid", "models", MODEL_KINDS),
        repetitions=get.int("grid", "repetitions", 5),
    )
    return RunConfig(
        cleaning=cleaning,
        segmentation=segmentation,
        features=features,
        model_kind=model_kind,
        model_params=model_params,
        grid=grid,
        master_seed=get.int("run", "seed", 0),
    )


def _model_params(parser, kind: str) -> dict:
    """Values of [model.<kind>], parsed after the type of each key's default."""
    if not parser.has_section(f"model.{kind}"):
        return {}
    defaults = REGISTRY[kind].defaults
    return {key: _parse_param(raw, defaults[key]) for key, raw in parser[f"model.{kind}"].items()}


def _parse_param(raw: str, default):
    if isinstance(default, tuple):
        return tuple(int(v) for v in raw.split(","))
    if default is None:  # an optional count
        return None if raw.strip().lower() == "none" else int(raw)
    return type(default)(raw)


class _SectionReader:
    def __init__(self, parser):
        self.parser = parser

    def _raw(self, section, key):
        if self.parser.has_section(section) and key in self.parser[section]:
            return self.parser[section][key]
        return None

    def str(self, section, key, default):
        raw = self._raw(section, key)
        return default if raw is None else raw.strip()

    def int(self, section, key, default):
        raw = self._raw(section, key)
        return default if raw is None else int(raw)

    def float(self, section, key, default):
        raw = self._raw(section, key)
        return default if raw is None else float(raw)

    def bool(self, section, key, default):
        raw = self._raw(section, key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"bad boolean {raw!r} for {section}.{key}")

    def floats(self, section, key, default):
        raw = self._raw(section, key)
        if raw is None:
            return tuple(default)
        return tuple(float(v) for v in raw.split(","))

    def strs(self, section, key, default):
        raw = self._raw(section, key)
        if raw is None:
            return tuple(default)
        return tuple(v.strip() for v in raw.split(","))
