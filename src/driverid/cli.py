"""Batch command-line frontend: synth, clean, train, evaluate, grid.

Every command is driven by a manifest plus an optional INI run config and
is reproducible byte for byte from (inputs, config, seed). Exit codes:
0 success, 1 runtime failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from functools import partial
from itertools import product
from pathlib import Path

from . import evaluation as ev
from . import ingest, preprocess, synth
from .config import ConfigError, Manifest, RunConfig, read_manifest, read_run_config, write_manifest
from .models import load_model, lookup, save_model
from .parallel import ordered_map
from .pipeline import build_datasets, build_test_dataset, train_model
from .seeds import derive_seed
from .segment import SegmentationConfig


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"error: {err}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driverid",
        description="Driver identification pipeline over smartphone IMU trip logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled trip corpus")
    p.add_argument("--drivers", type=int, default=10)
    p.add_argument("--hours", type=float, default=1.5, help="driving hours per driver")
    p.add_argument("--rate", type=float, default=2.0, help="sampling rate in Hz")
    p.add_argument("--separation", choices=("easy", "hard"), default="easy")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None, help="output manifest path (default OUT/manifest.csv)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("clean", help="run the cleaning chain over a manifest of logs")
    _common_args(p)
    p.set_defaults(handler=cmd_clean)

    p = sub.add_parser("train", help="train a classifier end to end")
    _common_args(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on the test partition")
    _common_args(p)
    p.add_argument("--model", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("grid", help="sweep windows x overlaps x features x models")
    _common_args(p)
    p.set_defaults(handler=cmd_grid)
    return parser


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)


def _load_run_config(args) -> RunConfig:
    cfg = read_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.master_seed = args.seed
    return cfg


def cmd_synth(args) -> int:
    if args.drivers < 2:
        raise ConfigError("--drivers must be at least 2")
    if not (math.isfinite(args.hours) and args.hours * 3600.0 >= 60.0):
        raise ConfigError("--hours must be finite and cover at least one minute")
    if not (math.isfinite(args.rate) and args.rate > 0):
        raise ConfigError(f"--rate must be finite and positive, got {args.rate}")
    if not math.isfinite(args.hours * 3600.0 * args.rate):
        raise ConfigError(f"--hours {args.hours} at --rate {args.rate} gives a non-finite sample count")
    if args.hours * 3600.0 * args.rate > sys.maxsize:  # np.intp's largest value, an array's largest size
        raise ConfigError(f"--hours {args.hours} at --rate {args.rate} gives more samples than an array can hold")
    seed = args.seed
    if args.config:
        cfg = read_run_config(args.config)
        if args.hours * 60.0 < cfg.segmentation.window_minutes:
            raise ConfigError(
                f"--hours {args.hours} is shorter than one "
                f"{cfg.segmentation.window_minutes}-minute window"
            )
        if seed is None:
            seed = cfg.master_seed
    if seed is None:
        seed = 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profiles = synth.make_profiles(args.drivers, args.separation, seed)
    write = partial(_synth_to_disk, profiles, args.hours * 3600.0, args.rate, out)
    entries = list(ordered_map(write, range(len(profiles))))
    manifest_path = Path(args.manifest) if args.manifest else out / "manifest.csv"
    write_manifest(entries, manifest_path)
    print(f"wrote {len(entries)} trips and {manifest_path}")
    return 0


def _synth_to_disk(profiles, seconds: float, rate: float, out: Path, index: int) -> tuple:
    """Generate driver INDEX's trip and write its log and truth file into
    OUT; returns its manifest entry."""
    driver_id = f"driver{index + 1:02d}"
    trip, truth = synth.generate_trip(profiles[index], seconds, rate, driver_id=driver_id)
    log_path = out / f"{driver_id}.csv"
    ingest.write_log(trip, log_path)
    (out / f"{driver_id}.truth.json").write_text(json.dumps(truth.to_dict(), indent=1), encoding="utf-8")
    return log_path.name, driver_id, rate


def _log_tasks(manifest: Manifest, cfg: RunConfig) -> list[tuple]:
    """The manifest's entries, each with its sidecar if it is a cleaned trip
    (None for a raw log), after checking that every log exists and that
    every cleaned trip fits this run.

    An entry NAME.clean.SUFFIX is a cleaned trip when it is an .npz or
    NAME.clean.json sits beside it. It must then be NAME.clean.npz, and its
    sidecar must have this format, this run's cleaning settings and the
    manifest's driver and rate.
    """
    cleaning = cfg.pipeline_record()["cleaning"]
    tasks = []
    for path, driver_id, rate in manifest.entries:
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"manifest log not found: {path}")
        sidecar_path = path.with_suffix(".json")
        sidecar = None
        if path.stem.endswith(".clean") and (path.suffix == ".npz" or sidecar_path.is_file()):
            if path.suffix != ".npz":
                raise ConfigError(
                    f"manifest log {path} was written by an older `driverid clean`; "
                    "clean the raw logs again"
                )
            try:
                sidecar = preprocess.read_sidecar(sidecar_path)
            except ValueError as err:
                raise ConfigError(f"{sidecar_path}: {err}") from None
            ours = {"cleaning": cleaning, "trip": {"driver_id": driver_id, "nominal_rate_hz": rate}}
            theirs = {"cleaning": sidecar["cleaning"], "trip": {key: sidecar.get(key) for key in ours["trip"]}}
            _check_pipeline_record(ours, theirs, sidecar_path)
        tasks.append((path, driver_id, rate, sidecar))
    return tasks


def _check_windows(manifest: Manifest, key: str, window_minutes) -> None:
    """Refuse, before any log is read, a window of fewer than 2 samples, or of
    a sample count that overflows, at a rate the manifest lists."""
    rates = dict.fromkeys(rate for _, _, rate in manifest.entries)
    for minutes, rate in product(window_minutes, rates):
        try:
            w = SegmentationConfig(window_minutes=minutes).window_samples(rate)
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from None
        if w < 2:
            raise ConfigError(f"{key} = {minutes} gives a window of {w} samples at {rate} Hz, fewer than 2")


def _clean_trip(cleaning, task) -> preprocess.CleanTrip:
    """One manifest entry as a CleanTrip: a raw log read and cleaned, or a cleaned trip read back."""
    path, driver_id, rate, sidecar = task
    if sidecar is None:
        return preprocess.clean(ingest.read_log(path, driver_id, rate), cleaning)
    try:
        return preprocess.read_clean(path, sidecar)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _clean_all(manifest: Manifest, cfg: RunConfig) -> list[preprocess.CleanTrip]:
    """Every manifest entry as a CleanTrip, all held at once: `grid` builds
    each window/overlap group from the same trips, so it cleans them once."""
    return list(ordered_map(partial(_clean_trip, cfg.cleaning), _log_tasks(manifest, cfg)))


class _CleanTrips(Sequence):
    """The manifest entries' trips, each read and cleaned (`_clean_trip`) when
    indexed: `build_datasets` and `build_test_dataset` index a trip in the
    worker that windows and featurizes it, so no CleanTrip reaches this process."""

    def __init__(self, cleaning, tasks):
        self.cleaning, self.tasks = cleaning, tasks

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, index: int) -> preprocess.CleanTrip:
        return _clean_trip(self.cleaning, self.tasks[index])


def _cleaned_name(path: Path) -> str:
    """NAME.clean.npz for a manifest log NAME.SUFFIX or NAME.clean.SUFFIX."""
    return f"{path.stem.removesuffix('.clean')}.clean.npz"


def _clean_to_disk(cfg: RunConfig, out: Path, task) -> tuple:
    """Clean one manifest entry into OUT as its ``_cleaned_name`` and the
    sidecar beside it; returns its manifest entry."""
    cleaned = _clean_trip(cfg.cleaning, task)
    arrays = out / _cleaned_name(task[0])
    preprocess.write_clean(cleaned, arrays, arrays.with_suffix(".json"), cfg.pipeline_record()["cleaning"])
    return arrays.name, cleaned.driver_id, cleaned.nominal_rate_hz


def cmd_clean(args) -> int:
    cfg = _load_run_config(args)
    manifest = read_manifest(args.manifest)
    names = [_cleaned_name(path) for path, _, _ in manifest.entries]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"manifest has {names.count(name)} logs that `clean` would write as {name}")
    out = Path(args.out)
    tasks = _log_tasks(manifest, cfg)
    out.mkdir(parents=True, exist_ok=True)
    entries = list(ordered_map(partial(_clean_to_disk, cfg, out), tasks))
    write_manifest(entries, out / "manifest.csv")
    print(f"cleaned {len(entries)} trips into {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    manifest = read_manifest(args.manifest)
    _check_windows(manifest, "[segmentation] window_minutes", [cfg.segmentation.window_minutes])
    trips = _CleanTrips(cfg.cleaning, _log_tasks(manifest, cfg))
    bundle = build_datasets(trips, cfg.segmentation, cfg.features)
    sub_seed = derive_seed(cfg.master_seed, f"train:{cfg.model_kind}")
    model = train_model(
        cfg.model_kind,
        bundle.train,
        cfg.model_params.get(cfg.model_kind),
        seed=sub_seed,
        standardizer=bundle.standardizer,
    )
    model.pipeline = cfg.pipeline_record()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    save_model(model, model_path)
    report = {
        "dataset": manifest.name,
        "classes": list(model.class_list),
        "n_features": model.n_features,
        "window_counts": bundle.window_counts,
        "seed": cfg.master_seed,
        "sub_seed": sub_seed,
        "config_snapshot": cfg.snapshot(),
    }
    (out / "train_report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"trained {cfg.model_kind} on {len(bundle.train)} windows -> {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    manifest = read_manifest(args.manifest)
    _check_windows(manifest, "[segmentation] window_minutes", [cfg.segmentation.window_minutes])
    try:
        model = load_model(args.model)
    except ValueError as err:  # a version, schema or syntax mismatch: the user's input
        raise ConfigError(f"{args.model}: {err}") from None
    if model.pipeline is None:
        raise ConfigError(
            f"{args.model} records no cleaning/segmentation/features config; "
            "retrain it with `driverid train`"
        )
    _check_pipeline_record(cfg.pipeline_record(), model.pipeline, args.model)
    unknown = sorted({driver for _, driver, _ in manifest.entries} - set(model.class_list))
    if unknown:
        raise ConfigError(f"manifest drivers {unknown} are not among the classes {args.model} was trained on")
    trips = _CleanTrips(cfg.cleaning, _log_tasks(manifest, cfg))
    test = build_test_dataset(trips, cfg.segmentation, cfg.features, model)
    report = ev.evaluate(model, test, config_snapshot=cfg.snapshot())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=1), encoding="utf-8")
    (out / "report.csv").write_text(_confusion_csv(report), encoding="utf-8")
    print(f"accuracy {report.accuracy:.4f} on {report.n_test_windows} test windows")
    return 0


def _check_pipeline_record(ours: dict, theirs: dict, source) -> None:
    """Refuse a model file or sidecar whose record, {section: {key: value}},
    differs from this run's in any key: test data featurized otherwise than
    the model's training data, or a trip cleaned otherwise than this run cleans."""
    ours, theirs = _flatten(ours), _flatten(theirs)
    for key in [*ours, *(k for k in theirs if k not in ours)]:
        if ours.get(key) != theirs.get(key):
            raise ConfigError(f"this run has {key} = {ours.get(key)!r}, but {source} records {theirs.get(key)!r}")


def _flatten(record: dict) -> dict:
    return {f"{section}.{key}": value for section, keys in record.items() for key, value in keys.items()}


def cmd_grid(args) -> int:
    cfg = _load_run_config(args)
    manifest = read_manifest(args.manifest)
    _check_windows(manifest, "[grid] window_minutes", cfg.grid.window_minutes_list)
    cleaned = _clean_all(manifest, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    complete = True
    try:
        for row in ev.iter_grid(
            cleaned,
            cfg.grid,
            train_fraction=cfg.segmentation.train_fraction,
            feature_base=cfg.features,
            model_params=cfg.model_params,
            master_seed=cfg.master_seed,
        ):
            rows.append(row)
    except KeyboardInterrupt:
        complete = False
    rows = ev.sort_rows(rows)
    params = {kind: {**lookup(kind).defaults, **cfg.model_params.get(kind, {})} for kind in cfg.grid.model_list}
    extra = {"seed": cfg.master_seed, "config_snapshot": cfg.snapshot(), "model_params": params}
    ev.write_reports(rows, out, complete=complete, extra=extra)
    print(ev.render_report(rows), end="")
    if not complete:
        print("interrupted: partial results flagged incomplete", file=sys.stderr)
        return 1
    return 0


def _confusion_csv(report: ev.EvaluationReport) -> str:
    lines = ["true\\predicted," + ",".join(report.class_list)]
    for label, row in zip(report.class_list, report.confusion):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
    lines.append(f"accuracy,{report.accuracy!r}")
    lines.append(f"n_test_windows,{report.n_test_windows}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
