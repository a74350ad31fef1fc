"""Parsing, validation and serialization of raw trip logs.

A trip log is UTF-8 CSV with the fixed header ``t,ax,ay,az,gx,gy,gz``:
one row per sample, timestamps in seconds, acceleration in m/s^2, angular
velocity in rad/s, decimal point ``.``, missing channel values written as
the literal ``NaN``. The driver label and nominal rate are not part of the
file; they come from the manifest. `parse_log` reads every log through one
array pass, malformed or not.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHANNELS = ("ax", "ay", "az", "gx", "gy", "gz")
ACCEL_COLUMNS = slice(0, 3)
LOG_HEADER = "t," + ",".join(CHANNELS)
LOG_CHUNK_ROWS = 512  # rows `write_log` renders at a time: a write holds one chunk's text, not the log's


@dataclass(frozen=True, eq=False)
class Trip:
    """An ordered, labeled 6-channel recording for one driver.

    `t` has shape (n,), finite, strictly increasing, seconds. `data` has
    shape (n, 6) in CHANNELS order; NaN entries are missing values and
    infinite ones are rejected. The trip holds read-only views, so trips can
    be shared across threads while the caller's arrays stay writable. A
    trip equals only a trip of its own type.
    """

    driver_id: str
    t: np.ndarray
    data: np.ndarray
    nominal_rate_hz: float

    def __post_init__(self):
        if not self.driver_id:
            raise ValueError("driver_id must be nonempty")
        if not (np.isfinite(self.nominal_rate_hz) and self.nominal_rate_hz > 0):
            raise ValueError("nominal_rate_hz must be finite and positive")
        t = np.asarray(self.t, dtype=np.float64).view()
        data = np.asarray(self.data, dtype=np.float64).view()
        if t.ndim != 1 or data.shape != (t.size, 6):
            raise ValueError(f"expected t (n,) and data (n, 6), got {t.shape} and {data.shape}")
        if not np.isfinite(t).all():
            raise ValueError("timestamps must be finite")
        if np.isinf(data).any():
            raise ValueError("channel values must be finite or NaN (missing)")
        if t.size and t[0] < 0:
            raise ValueError("timestamps must be nonnegative")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        t.setflags(write=False)
        data.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.driver_id == other.driver_id
            and self.nominal_rate_hz == other.nominal_rate_hz
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.data, other.data, equal_nan=True)
        )


@dataclass(frozen=True)
class ValidationReport:
    """Exact counts from a read-only pass over a trip."""

    n_samples: int
    n_missing: int  # samples with at least one missing channel
    n_gaps: int     # inter-sample intervals longer than two periods (continuity_breaks)


def parse_log(text: str, driver_id: str, rate_hz: float) -> Trip:
    """Parse the text of a trip log into a Trip (`read_log` reads a file).

    Rows whose channel fields do not parse as finite numbers keep the row
    with those channels flagged missing; rows without 7 fields or whose
    timestamp does not parse as a finite number are dropped and counted in
    a single summary warning. A negative or non-monotonic timestamp aborts
    with an error naming its line.

    Every field is converted in one numpy str-to-float cast, which calls
    Python's ``float``; only when some field does not parse are the fields
    converted one at a time.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("empty log")
    header = lines[0].strip().lstrip("﻿")
    if header != LOG_HEADER:
        raise ValueError(f"malformed header: expected {LOG_HEADER!r}, got {header!r}")

    body = [line for line in lines[1:] if line.strip()]
    rows = [line for line in body if line.count(",") == 6]
    fields = ",".join(rows).split(",") if rows else []
    try:
        table = np.array(fields, dtype=np.float64).reshape(-1, 7)
    except ValueError:  # a field that does not parse
        table = np.array([_float_or_nan(field) for field in fields]).reshape(-1, 7)
    kept = np.isfinite(table[:, 0])
    table = table[kept]
    t = table[:, 0]
    bad = np.flatnonzero((t < 0) | (np.diff(t, prepend=-np.inf) <= 0))
    if bad.size:  # the line of the first bad stamp, found only on this path
        linenos = [n for n, line in enumerate(lines[1:], start=2) if line.count(",") == 6]
        kind = "negative" if t[bad[0]] < 0 else "non-monotonic"
        raise ValueError(f"{kind} timestamp at line {np.array(linenos)[kept][bad[0]]}")
    if len(body) > t.size:
        warnings.warn(f"rejected {len(body) - t.size} rows with unparseable timestamps or field counts")
    if not t.size:
        raise ValueError("empty log")
    data = np.ascontiguousarray(table[:, 1:])
    data[~np.isfinite(data)] = np.nan
    return Trip(driver_id, np.ascontiguousarray(t), data, rate_hz)


def serialize_log(trip: Trip) -> str:
    """Render a trip in the canonical log format. parse_log inverts this exactly.

    Values are written with ``repr`` (the shortest string that reads back
    as the same float); missing values are written as ``NaN``.
    """
    table = np.column_stack((trip.t, trip.data))
    text = "\n".join([LOG_HEADER, *(",".join(map(repr, row)) for row in table.tolist())]) + "\n"
    if np.isnan(trip.data).any():  # no finite repr holds these letters
        text = text.replace("nan", "NaN")
    return text


def write_log(trip: Trip, path) -> None:
    """Write ``serialize_log(trip)`` to PATH as the logs of LOG_CHUNK_ROWS-row
    slices in turn, each without its header but the first."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_HEADER + "\n")
        for start in range(0, len(trip), LOG_CHUNK_ROWS):
            rows = slice(start, start + LOG_CHUNK_ROWS)
            chunk = serialize_log(Trip(trip.driver_id, trip.t[rows], trip.data[rows], trip.nominal_rate_hz))
            fh.write(chunk[len(LOG_HEADER) + 1:])


def read_log(path, driver_id: str, rate_hz: float) -> Trip:
    return parse_log(Path(path).read_text(encoding="utf-8"), driver_id, rate_hz)


def continuity_breaks(t: np.ndarray, rate_hz: float) -> np.ndarray:
    """`out[i]` flags a sampling discontinuity between samples i and i+1:
    they lie more than two sample periods apart."""
    return np.diff(t) > 2.0 * (1.0 / rate_hz)


def validate_trip(trip: Trip) -> ValidationReport:
    """Count samples, missing-channel samples and sampling gaps. Never mutates."""
    missing = int(np.isnan(trip.data).any(axis=1).sum())
    gaps = int(continuity_breaks(trip.t, trip.nominal_rate_hz).sum())
    return ValidationReport(n_samples=len(trip), n_missing=missing, n_gaps=gaps)


def _float_or_nan(field: str) -> float:
    try:
        return float(field)
    except ValueError:
        return np.nan

