"""Manifest and run-configuration files.

The manifest is CSV with header ``path,driver_id,rate_hz``; relative paths
resolve against the manifest's directory. The run config is INI-style
(key = value under [section] headers, keys lowercase) with a strict
schema: any unknown section or key is rejected, because a silently ignored
typo is the main way a run stops being reproducible. Each section sets the
fields of one dataclass, each value is parsed after the type of its
field's default, and a key the file leaves out keeps that default. Every
``[model.<kind>]`` section present is parsed, into ``model_params[kind]``,
and checked by its registry entry, so an out-of-range model parameter is a
ConfigError before any log is read.
"""
from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .evaluation import GridSpec
from .features import FeatureConfig, subset_families
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
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigError(f"manifest rate_hz must be finite and positive, got {rate}")


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


def _same_names(cls) -> dict[str, str]:
    return {f.name: f.name for f in fields(cls)}


# INI section -> {INI key: dataclass field}. [run] sets RunConfig's own
# fields; every other section sets the dataclass held in the RunConfig field
# of its name. The key schema, the value parsing, the defaults and the
# snapshot all derive from this table and the dataclasses' fields.
_SECTIONS = {
    "run": {"seed": "master_seed", "model": "model_kind"},
    "cleaning": _same_names(CleaningConfig),
    "segmentation": {
        "window_minutes": "window_minutes",
        "overlap": "overlap_fraction",
        "train_fraction": "train_fraction",
    },
    "features": _same_names(FeatureConfig),
    "grid": {
        "window_minutes": "window_minutes_list",
        "overlaps": "overlap_list",
        "features": "feature_subset_list",
        "models": "model_list",
        "repetitions": "repetitions",
    },
}
_PIPELINE_SECTIONS = ("cleaning", "segmentation", "features")
_SCHEMA = {
    **{section: set(keys) for section, keys in _SECTIONS.items()},
    **{f"model.{kind}": set(entry.defaults) for kind, entry in REGISTRY.items()},
}


@dataclass
class RunConfig:
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model_kind: str = "mlp"
    model_params: dict = field(default_factory=dict)  # kind -> params, one per [model.<kind>]
    grid: GridSpec = field(default_factory=GridSpec)
    master_seed: int = 0

    def pipeline_record(self) -> dict:
        """The snapshot sections that decide how feature rows are made, keyed by field."""
        return {section: self._record(section, by_key=False) for section in _PIPELINE_SECTIONS}

    def snapshot(self) -> dict:
        """Full config as a plain dict, embedded in every report."""
        return {
            "seed": self.master_seed,
            **self.pipeline_record(),
            "model": {"kind": self.model_kind, "params": dict(self.model_params.get(self.model_kind, {}))},
            "grid": self._record("grid", by_key=True),
        }

    def _record(self, section: str, by_key: bool) -> dict:
        """A section's values, keyed by INI key or by field: tuples as lists, families joined by +."""
        values = getattr(self, section)
        record = {}
        for key, name in _SECTIONS[section].items():
            value = getattr(values, name)
            if name == "families":
                value = "+".join(value)
            record[key if by_key else name] = list(value) if isinstance(value, tuple) else value
        return record


def read_run_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None

    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"keys in [DEFAULT] are not allowed: {sorted(parser.defaults())}")
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
    """The run config with the fields the file sets; the others keep their dataclass defaults."""
    cfg = RunConfig()
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        values = parser[section]
        owner = cfg if section == "run" else getattr(cfg, section)
        changes = {keys[key]: _parse(values, key, getattr(owner, keys[key])) for key in values}
        if section == "run":
            cfg = replace(cfg, **changes)
        else:
            setattr(cfg, section, replace(owner, **changes))
    if cfg.model_kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {cfg.model_kind!r}")
    for kind, entry in REGISTRY.items():
        if parser.has_section(f"model.{kind}"):
            values = parser[f"model.{kind}"]
            params = {key: _parse(values, key, entry.defaults[key]) for key in values}
            try:
                entry.check({**entry.defaults, **params})
            except ValueError as err:
                raise ValueError(f"[model.{kind}] {err}") from None
            cfg.model_params[kind] = params
    return cfg


def _parse(values: configparser.SectionProxy, key: str, default):
    """One INI value, parsed after the type of its field's default."""
    try:
        if key == "families":  # [features] families is a subset string such as mean+variance
            return subset_families(values[key])
        if isinstance(default, bool):
            return values.getboolean(key)
        if isinstance(default, tuple):
            return tuple(type(default[0])(v.strip()) for v in values[key].split(","))
        if default is None:  # an optional count
            return None if values[key].lower() == "none" else int(values[key])
        return type(default)(values[key])
    except ValueError as err:
        raise ValueError(f"[{values.name}] {key}: {err}") from None
