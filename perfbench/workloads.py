"""The three benchmark workloads: inputs made from a seed, a timed pass, output checks.

Every workload is one sequential batch job in one process. Its inputs come
from the same driver population as the acceptance corpus in
``tests/conftest.py`` (``make_profiles(10, "easy", 1234)``); the workload
seed draws each driver's trip from ``SeedSequence(seed)``. At seed 1234 the
trips are exactly the acceptance corpus. The program only ever sees the
generated trips or the logs written from them.

Calls into driverid go through its module attributes (``pipeline.build_datasets``,
not a name imported here), so that the traced run's rebinding sees them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from driverid import cli, evaluation, ingest, models, pipeline, preprocess
from driverid.config import write_manifest
from driverid.evaluation import GridSpec
from driverid.features import FeatureConfig
from driverid.segment import SegmentationConfig
from driverid.synth import generate_trip, make_profiles

ACCEPTANCE_SEED = 1234   # the acceptance corpus: its population, and its trips at this seed
DRIVERS = 10
RATE_HZ = 2.0
BENCH_DIR = Path(__file__).resolve().parent
CLI_CONFIG = BENCH_DIR / "cli-e2e.ini"

# Floors the acceptance suite asserts on its own corpus (seed 1234). Other
# seeds draw other trips, on which they are not a property of the program;
# there a model must still beat chance threefold (evaluation.separability_achieved).
ACCEPTANCE_FLOORS = {"mlp": 0.90, "knn": 0.60}


def accuracy_floor(kind: str, seed: int) -> float:
    return ACCEPTANCE_FLOORS[kind] if seed == ACCEPTANCE_SEED else 3.0 / DRIVERS


def make_trips(seed: int, hours: float, drivers: int = DRIVERS) -> list[ingest.Trip]:
    population = make_profiles(drivers, "easy", ACCEPTANCE_SEED)
    trip_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(drivers)]
    return [
        generate_trip(
            dataclasses.replace(profile, seed=trip_seed), hours * 3600.0, RATE_HZ,
            driver_id=f"driver{i + 1:02d}",
        )[0]
        for i, (profile, trip_seed) in enumerate(zip(population, trip_seeds))
    ]


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Ledger:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


class Digests:
    """sha256 of each output artifact, which must repeat across the passes
    and runs of one checkout for the same workload and seed."""

    def __init__(self, path: Path):
        self.path = path
        self.seen: dict[str, str] = json.loads(path.read_text()) if path.is_file() else {}
        self.current: dict[str, str] = {}

    def check(self, ledger: Ledger, key: str, artifact: Path) -> None:
        digest = sha256(artifact)
        self.current[key] = digest
        first = self.seen.setdefault(key, digest)
        ledger.check(first == digest, f"{key} is not byte-identical ({digest} != {first})")

    def save(self) -> None:
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))


@dataclasses.dataclass
class PassResult:
    """One timed pass. `check` fills in accuracy, and items where checks decide them."""

    wall_s: float
    items: int = 0                 # work done: raw rows read, windows or successful cells
    accuracy: float = float("nan")
    phases: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict, repr=False)


class CliE2E:
    """synth-style logs on disk, then `driverid clean`, `train`, `evaluate`."""

    name = "cli-e2e"
    item_unit = "samples"
    throughput_name = "samples_per_s"
    hours = 4.0

    def setup(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True)
        entries, rows = [], 0
        for trip in make_trips(seed, self.hours):
            path = workdir / f"{trip.driver_id}.csv"
            ingest.write_log(trip, path)
            entries.append((path.name, trip.driver_id, RATE_HZ))
            rows += len(trip)
        write_manifest(entries, workdir / "manifest.csv")
        return workdir, rows

    def same_inputs(self, a, b) -> bool:
        (dir_a, _), (dir_b, _) = a, b
        names = sorted(p.name for p in dir_a.iterdir())
        return names == sorted(p.name for p in dir_b.iterdir()) and all(
            sha256(dir_a / n) == sha256(dir_b / n) for n in names
        )

    def discard(self, inputs) -> None:
        shutil.rmtree(inputs[0])

    def run_pass(self, inputs, out: Path) -> PassResult:
        corpus, raw_rows = inputs
        manifest = str(corpus / "manifest.csv")
        common = ["--manifest", manifest, "--config", str(CLI_CONFIG)]
        commands = (
            ("clean", ["clean", *common, "--out", str(out / "clean")]),
            ("train", ["train", *common, "--out", str(out / "model")]),
            ("evaluate", ["evaluate", *common, "--model", str(out / "model" / "model.json"),
                          "--out", str(out / "eval")]),
        )
        phases, codes = {}, {}
        start = time.perf_counter()
        for command, argv in commands:
            t = time.perf_counter()
            codes[command] = _run_cli(argv)
            phases[f"cli_{command}_s"] = time.perf_counter() - t
        wall = time.perf_counter() - start
        # clean, train and evaluate each read every raw log once
        return PassResult(wall, 3 * raw_rows, phases=phases, outputs={"codes": codes})

    def check(self, result: PassResult, out: Path, seed: int, ledger: Ledger, digests: Digests):
        for command, code in result.outputs["codes"].items():
            ledger.check(code == 0, f"driverid {command} exited {code}")
        report = out / "eval" / "report.json"
        if ledger.check(report.is_file(), "evaluate wrote no report.json"):
            result.accuracy = json.loads(report.read_text(encoding="utf-8"))["accuracy"]
            floor = accuracy_floor("mlp", seed)
            ledger.check(result.accuracy >= floor,
                         f"mlp accuracy {result.accuracy:.4f} below floor {floor:.2f}")
        for artifact in (out / "model" / "model.json", out / "eval" / "report.json",
                         out / "eval" / "report.csv"):
            if ledger.check(artifact.is_file(), f"missing {artifact.name}"):
                digests.check(ledger, f"{self.name}/seed{seed}/{artifact.name}", artifact)


def _run_cli(argv) -> int:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except SystemExit as err:  # argparse usage errors
        return err.code if isinstance(err.code, int) else 2


class _CleanedCorpus:
    """Workloads whose set-up generates and cleans the corpus in memory."""

    hours = 4.0

    def __init__(self, hours: float | None = None):
        self.hours = hours or self.hours

    def setup(self, seed: int, workdir: Path):
        return [preprocess.clean(trip) for trip in make_trips(seed, self.hours)]

    def same_inputs(self, a, b) -> bool:
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))

    def discard(self, inputs) -> None:
        pass


class DenseKnn(_CleanedCorpus):
    """5 min / 0.9 windows, kNN train, save/load round trip, evaluate."""

    name = "dense-knn"
    item_unit = "windows"
    throughput_name = "windows_per_s"
    segmentation = SegmentationConfig(window_minutes=5.0, overlap_fraction=0.9, train_fraction=0.7)
    check_stride = 8  # the reload check predicts every 8th test row with both models

    def run_pass(self, trips, out: Path) -> PassResult:
        out.mkdir(parents=True)
        path = out / "model.json"
        start = time.perf_counter()
        bundle = pipeline.build_datasets(trips, self.segmentation, FeatureConfig())
        model = pipeline.train_model("knn", bundle.train, standardizer=bundle.standardizer)
        models.save_model(model, path)
        loaded = models.load_model(path)
        report = evaluation.evaluate(loaded, bundle.test)
        wall = time.perf_counter() - start
        return PassResult(wall, len(bundle.train) + len(bundle.test), report.accuracy,
                          outputs={"model": model, "loaded": loaded, "test": bundle.test})

    def check(self, result: PassResult, out: Path, seed: int, ledger: Ledger, digests: Digests):
        model, loaded = result.outputs["model"], result.outputs["loaded"]
        ledger.check(_same_knn(model, loaded), "reloaded knn model differs from the saved one")
        rows = result.outputs["test"].features[:: self.check_stride]
        ledger.check(
            np.array_equal(models.predict(model, rows), models.predict(loaded, rows)),
            "reloaded knn model predicts differently",
        )
        floor = accuracy_floor("knn", seed)
        ledger.check(result.accuracy >= floor,
                     f"knn accuracy {result.accuracy:.4f} below floor {floor:.2f}")
        digests.check(ledger, f"{self.name}/seed{seed}/model.json", out / "model.json")


def _same_knn(a, b) -> bool:
    return (
        a.params.k == b.params.k
        and np.array_equal(a.params.train_x, b.params.train_x)
        and np.array_equal(a.params.train_y, b.params.train_y)
        and tuple(a.class_list) == tuple(b.class_list)
        and np.array_equal(a.standardizer.mean, b.standardizer.mean)
        and np.array_equal(a.standardizer.std, b.standardizer.std)
    )


class GridSlice(_CleanedCorpus):
    """A fixed 24-cell slice of the grid sweep, then its reports."""

    name = "grid-slice"
    item_unit = "cells"
    throughput_name = "cells_per_s"
    hours = 2.0
    master_seed = 7
    grid = GridSpec(
        window_minutes_list=(10.0, 15.0),
        overlap_list=(0.75,),
        feature_subset_list=(
            "histogram",
            "mean+variance+correlation",
            "histogram+mean+variance+difference+correlation",
        ),
        model_list=("knn", "dtree", "rforest", "mlp"),
        repetitions=2,
    )

    def __init__(self, hours: float | None = None, grid: GridSpec | None = None):
        super().__init__(hours)
        self.grid = grid or self.grid

    def run_pass(self, trips, out: Path) -> PassResult:
        start = time.perf_counter()
        rows = evaluation.run_grid(trips, self.grid, master_seed=self.master_seed)
        paths = evaluation.write_reports(rows, out, extra={"seed": self.master_seed})
        wall = time.perf_counter() - start
        return PassResult(wall, outputs={"rows": rows, "paths": paths})

    def check(self, result: PassResult, out: Path, seed: int, ledger: Ledger, digests: Digests):
        ok = [row for row in result.outputs["rows"] if ledger.check(
            row.error is None,
            f"grid cell {row.window_minutes:g} min/{row.features}/{row.model}: {row.error}",
        )]
        for artifact in map(Path, result.outputs["paths"]):
            digests.check(ledger, f"{self.name}/seed{seed}/{artifact.name}", artifact)
        # a failed cell is not work done: it counts in `failed`, never in throughput
        result.items = len(ok)
        if ok:
            result.accuracy = float(np.mean([row.mean_accuracy for row in ok]))


WORKLOADS = {w.name: w for w in (CliE2E, DenseKnn, GridSlice)}
