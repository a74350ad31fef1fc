"""Shared fixtures: small synthetic trips and the session-scoped benchmark corpus."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import driverid as d
from driverid import parallel
from driverid.models import LabeledDataset
from driverid.preprocess import StopInterval
from driverid.segment import WindowBatch

BENCH_SEED = 1234
BENCH_DRIVERS = 10
BENCH_HOURS = 4.0


@pytest.fixture(scope="session")
def easy_profiles():
    return d.make_profiles(BENCH_DRIVERS, "easy", BENCH_SEED)


@pytest.fixture(scope="session")
def easy_corpus(easy_profiles):
    """Cleaned 10-driver corpus used by the end-to-end acceptance checks."""
    trips = []
    for i, profile in enumerate(easy_profiles):
        trip, _ = d.generate_trip(
            profile, BENCH_HOURS * 3600.0, 2.0, driver_id=f"driver{i + 1:02d}"
        )
        trips.append(d.clean(trip))
    return trips


@pytest.fixture(scope="session")
def bench_bundle(easy_corpus):
    from driverid.features import FeatureConfig
    from driverid.pipeline import build_datasets
    from driverid.segment import SegmentationConfig

    seg = SegmentationConfig(window_minutes=15, overlap_fraction=0.75, train_fraction=0.7)
    return build_datasets(easy_corpus, seg, FeatureConfig())


def stops_in_gaps(t, flags):
    """Sample-free stop intervals, one inside each gap (t[i], t[i + 1]) with
    `flags[i]` set, so a CleanTrip over `t` that records them breaks there."""
    return tuple(
        StopInterval(float(t[i] + (t[i + 1] - t[i]) / 4), float(t[i] + (t[i + 1] - t[i]) / 2))
        for i in np.flatnonzero(flags)
    )


@pytest.fixture
def workers(monkeypatch):
    """Call with n to let `parallel.ordered_map` use n CPUs (a test-only pin)."""
    return lambda n: monkeypatch.setattr(parallel, "cpu_count", lambda: n)


@pytest.fixture
def one_worker(workers):
    """Run `ordered_map` in this process, so spies and counters here see every call."""
    workers(1)


@pytest.fixture
def quiet_trip():
    """Uniform 2 Hz trip with no missing values, no stops worth deleting."""
    rng = np.random.default_rng(0)
    n = 400
    t = np.arange(n) / 2.0
    data = rng.standard_normal((n, 6))
    data[:, 2] += 9.81
    return d.Trip("quiet", t, data, 2.0)


def stoppy_profile(seed: int, stops_per_hour: float = 2.5) -> d.DriverProfile:
    profile = d.make_profiles(10, "easy", seed)[seed % 10]
    return dataclasses.replace(profile, stop_frequency=stops_per_hour)


def window_batch(*channels, driver="d", partition="train") -> WindowBatch:
    """A batch of the given equal-length (6, w) windows, back to back at 2 Hz."""
    stacked = np.stack([np.asarray(c, dtype=float) for c in channels])
    start = np.arange(len(stacked)) * stacked.shape[2] / 2.0
    return WindowBatch(driver, partition, start, start + stacked.shape[2] / 2.0, stacked)


def labeled(features, names, class_list=None) -> LabeledDataset:
    """A dataset of FEATURES whose rows belong to the drivers NAMES, each held
    as its position in CLASS_LIST (by default the sorted distinct names)."""
    class_list = tuple(sorted(set(names)) if class_list is None else class_list)
    return LabeledDataset(features, np.array([class_list.index(n) for n in names], dtype=np.int64), class_list)


def edit_saved(path: Path, edits: dict) -> None:
    """Apply EDITS to the saved model at PATH. A key path (a tuple) maps to
    a new value, DELETE or a function of the old value. An array, or a
    function, at the place of an archive member replaces that member, and
    the header's digest is then pinned to the new archive, so the edit
    reaches the checks behind the digest; anything else edits the header."""
    npz = path.with_suffix(".npz")
    doc = json.loads(path.read_text())
    with np.load(npz) as archive:
        arrays = {name: archive[name] for name in archive.files}
    members = {}
    for key, value in edits.items():
        place = ".".join(map(str, key))
        if place in arrays and (callable(value) or isinstance(value, np.ndarray)):
            members[place] = value(arrays[place]) if callable(value) else value
            continue
        edit_doc(doc, key, value)
    if members:
        np.savez(npz, **{**arrays, **members})
        with open(npz, "rb") as fh:
            doc["arrays_sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()
    path.write_text(json.dumps(doc))


def edit_doc(doc, key: tuple, value) -> None:
    """Set the JSON document DOC's value at the key path KEY to VALUE, DELETE
    it, or replace it by VALUE(old value) if VALUE is a function."""
    holder = doc
    for step in key[:-1]:
        holder = holder[step]
    if value is DELETE:
        del holder[key[-1]]
    else:
        holder[key[-1]] = value(holder[key[-1]]) if callable(value) else value


DELETE = object()  # an edit_saved or edit_doc value: delete the key

# values of every JSON type, and out-of-range ones, to put in a model file's header
HEADER_VALUES = [None, "x", 1.5, -1, True, [], {}, 10**30, DELETE]


def header_places(value, place=()):
    """Every key path in a JSON header: each object key and list index, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield (*place, key)
        yield from header_places(item, (*place, key))
