"""Trip cleaning chain: denoise, reorient, fill or drop missing values, delete stops.

Stages run in a fixed order (moving-average denoise, gravity reorientation,
gap handling, stop removal) and each stage is a pure trip-to-trip function.
Stop intervals are half-open [start_t, end_t) with end_t one sample period
past the last stopped sample, so interval durations add up exactly to the
removed data time.

`write_clean` stores a CleanTrip as two files, its samples in an ``.npz``
(through `npz.write_arrays`, as model files store their arrays) and its
cleaning record in a JSON sidecar, and `read_clean` rebuilds the
equal CleanTrip from them, so a trip the `driverid clean` command wrote is
read back, not cleaned again.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import ACCEL_COLUMNS, Trip, continuity_breaks
from .npz import read_arrays, write_arrays

GRAVITY = 9.81
CLEAN_FORMAT = 1  # the sidecar's "format": the layout of a cleaned trip's two files


@dataclass(frozen=True)
class CleaningConfig:
    denoise_window: int = 5
    stop_threshold: float = 0.5       # m/s^2 band for "unchanged" magnitude
    min_stop_seconds: float = 6.0
    max_gap_fill: float = 2.0         # longest missing span bridged by interpolation
    reorient: bool = True
    stop_aggregate: str = "magnitude"  # or "sum" of the three accel axes

    def __post_init__(self):
        if self.denoise_window < 1 or self.denoise_window % 2 == 0:
            raise ValueError("denoise_window must be a positive odd integer")
        for name in ("stop_threshold", "min_stop_seconds", "max_gap_fill"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.stop_aggregate not in ("magnitude", "sum"):
            raise ValueError("stop_aggregate must be 'magnitude' or 'sum'")


@dataclass(frozen=True)
class StopInterval:
    """Half-open [start_t, end_t) span of stopped driving."""

    start_t: float
    end_t: float

    @property
    def duration(self) -> float:
        return self.end_t - self.start_t


@dataclass(frozen=True, eq=False)
class CleanTrip(Trip):
    """Analysis-ready trip: no missing channels, stop time deleted.

    Timestamps keep their original values (time is never re-compacted).
    `stop_intervals` are the deleted spans, each holding none of the trip's
    samples; `removed_gap_seconds` counts samples dropped by gap handling.
    `break_after[i]` flags a continuity break between samples i and i+1 so
    that windowing never bridges removed time. It is derived, not passed:
    a pair breaks when the samples lie more than two periods apart
    (`continuity_breaks`) or when a recorded stop starts between them. The
    cleaning record takes no part in equality.
    """

    removed_gap_seconds: float = 0.0
    stop_intervals: tuple[StopInterval, ...] = ()
    provenance: tuple[str, ...] = ()
    break_after: np.ndarray = field(init=False)  # bool, shape (n-1,)

    def __post_init__(self):
        super().__post_init__()
        if self.t.size == 0:
            raise ValueError("no movement data")
        if np.isnan(self.data).any():
            raise ValueError("CleanTrip may not contain missing channels")
        if not 0 <= self.removed_gap_seconds < np.inf:
            raise ValueError("removed_gap_seconds must be finite and nonnegative")
        stops = _check_stops(self.stop_intervals)
        at = np.searchsorted(self.t, [s.start_t for s in stops])  # first sample at or after each start
        if (np.append(self.t, np.inf)[at] < [s.end_t for s in stops]).any():
            raise ValueError("a recorded stop interval holds a sample of the trip")
        breaks = continuity_breaks(self.t, self.nominal_rate_hz)
        breaks[at[(at > 0) & (at < self.t.size)] - 1] = True
        breaks.setflags(write=False)
        object.__setattr__(self, "stop_intervals", stops)
        object.__setattr__(self, "break_after", breaks)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return super().__eq__(other) and np.array_equal(self.break_after, other.break_after)

    @property
    def duration_seconds(self) -> float:
        """Movement data time, counted as samples over the nominal rate."""
        return len(self) / self.nominal_rate_hz

    @property
    def removed_stop_seconds(self) -> float:
        return float(sum(s.duration for s in self.stop_intervals))

    def sidecar(self) -> dict:
        return {
            "driver_id": self.driver_id,
            "nominal_rate_hz": self.nominal_rate_hz,
            "provenance": list(self.provenance),
            "removed_stop_seconds": self.removed_stop_seconds,
            "removed_gap_seconds": self.removed_gap_seconds,
            "stop_intervals": [[s.start_t, s.end_t] for s in self.stop_intervals],
        }


def write_clean(trip: CleanTrip, arrays: Path, sidecar: Path, cleaning: dict) -> None:
    """Write TRIP as ARRAYS, an ``.npz`` of float64 ``t`` (n,) and ``data``
    (n, 6), and SIDECAR, a JSON object of its cleaning record plus
    ``"format"`` and the ``cleaning`` settings that made it."""
    write_arrays(arrays, {"t": trip.t, "data": trip.data})
    doc = {"format": CLEAN_FORMAT, "cleaning": cleaning, **trip.sidecar()}
    sidecar.write_text(json.dumps(doc, indent=1, allow_nan=False), encoding="utf-8")


def read_sidecar(path: Path) -> dict:
    """The JSON object in a cleaned trip's sidecar, once its ``"format"`` is
    CLEAN_FORMAT and every field `read_clean` reads has its JSON type;
    ValueError otherwise."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read sidecar: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("sidecar is not a JSON object")
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != CLEAN_FORMAT:
        raise ValueError(f"sidecar format {fmt!r}, expected {CLEAN_FORMAT}; clean the raw logs again")
    if not isinstance(doc.get("cleaning"), dict):
        raise ValueError("sidecar has no cleaning settings")
    if not isinstance(doc.get("driver_id"), str):
        raise ValueError("sidecar driver_id must be a string")
    for name in ("nominal_rate_hz", "removed_gap_seconds"):
        if not _is_number(doc.get(name)):
            raise ValueError(f"sidecar {name} must be a number, got {doc.get(name)!r}")
    stops = doc.get("stop_intervals")
    if not (isinstance(stops, list) and all(
        isinstance(s, list) and len(s) == 2 and all(map(_is_number, s)) for s in stops
    )):
        raise ValueError("sidecar stop_intervals must be a list of [start_t, end_t] number pairs")
    provenance = doc.get("provenance")
    if not (isinstance(provenance, list) and all(isinstance(p, str) for p in provenance)):
        raise ValueError("sidecar provenance must be a list of stage names")
    return doc


def _is_number(value) -> bool:
    """A JSON number that a float can hold (an int beyond float range is not)."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def read_clean(arrays: Path, sidecar: dict) -> CleanTrip:
    """The CleanTrip that `write_clean` wrote as ARRAYS, with SIDECAR, the
    object `read_sidecar` read from its sidecar.

    Nothing in the archive is trusted: `npz.read_arrays` requires exactly
    the finite float64 arrays ``t`` and ``data``, and the trip is rebuilt
    through the CleanTrip constructor, whose checks all hold (``t`` (n,)
    and ``data`` (n, 6) among them) and which derives ``break_after``
    again. Raises ValueError.
    """
    loaded = read_arrays(arrays, ("t", "data"), ("<f8",))
    return CleanTrip(
        driver_id=sidecar["driver_id"],
        t=loaded["t"],
        data=loaded["data"],
        nominal_rate_hz=float(sidecar["nominal_rate_hz"]),
        removed_gap_seconds=float(sidecar["removed_gap_seconds"]),
        stop_intervals=tuple(StopInterval(float(a), float(b)) for a, b in sidecar["stop_intervals"]),
        provenance=tuple(sidecar["provenance"]),
    )


def denoise(trip: Trip, window: int) -> Trip:
    """Centered moving average per channel.

    The averaging window is clipped at the signal edges (it shrinks rather
    than padding). Missing values are excluded from every average and stay
    missing in the output.
    """
    n = len(trip)
    if window % 2 == 0 or window < 1:
        raise ValueError("denoise window must be a positive odd integer")
    if window > n:
        raise ValueError(f"denoise window {window} exceeds sample count {n}")
    if window == 1:
        return trip

    half = window // 2
    x = trip.data
    valid = ~np.isnan(x)
    filled = np.where(valid, x, 0.0)
    csum = np.vstack([np.zeros(6), np.cumsum(filled, axis=0)])
    ccnt = np.vstack([np.zeros(6), np.cumsum(valid, axis=0)])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    sums = csum[hi] - csum[lo]
    counts = ccnt[hi] - ccnt[lo]
    with np.errstate(invalid="ignore"):
        out = sums / counts
    out[~valid] = np.nan
    return Trip(trip.driver_id, trip.t.copy(), out, trip.nominal_rate_hz)


def gravity_rotation(mean_accel: np.ndarray) -> np.ndarray:
    """Rotation matrix taking `mean_accel` onto the +z gravity axis."""
    u = np.asarray(mean_accel, dtype=np.float64)
    norm = np.linalg.norm(u)
    if norm < 1.0:
        raise ValueError("cannot estimate gravity")
    u = u / norm
    target = np.array([0.0, 0.0, 1.0])
    v = np.cross(u, target)
    s2 = float(v @ v)
    c = float(u @ target)
    if s2 < 1e-24:
        if c > 0:
            return np.eye(3)
        # anti-parallel: flip 180 degrees about the first canonical axis
        return np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / s2)


def reorient(trip: Trip) -> Trip:
    """Rotate all six channels so the trip-mean accelerometer vector points at +z.

    A single rigid rotation is estimated from samples with a complete
    accelerometer triple and applied to both the accelerometer and the
    gyroscope, so per-sample vector magnitudes are preserved.
    """
    accel = trip.data[:, ACCEL_COLUMNS]
    complete = ~np.isnan(accel).any(axis=1)
    if not complete.any():
        raise ValueError("cannot estimate gravity")
    _require_contiguous_span(trip, complete, 10.0)
    mean_accel = accel[complete].mean(axis=0)
    rot = gravity_rotation(mean_accel)
    out = trip.data.copy()
    out[:, 0:3] = trip.data[:, 0:3] @ rot.T
    out[:, 3:6] = trip.data[:, 3:6] @ rot.T
    return Trip(trip.driver_id, trip.t.copy(), out, trip.nominal_rate_hz)


def fill_gaps(trip: Trip, max_gap_fill: float) -> Trip:
    """Interpolate short missing runs, drop samples covered by long ones.

    A missing run on a channel is bridged linearly when the time span
    between its two valid anchor samples is at most `max_gap_fill` seconds;
    otherwise the covered samples are removed from the trip entirely.
    Leading and trailing missing runs have no anchor pair and are removed.
    """
    n = len(trip)
    data = trip.data.copy()
    t = trip.t
    if not (~np.isnan(trip.data)).all(axis=1).any():
        raise ValueError("no valid data")

    drop = np.zeros(n, dtype=bool)
    for col in range(6):
        x = trip.data[:, col]
        invalid = np.isnan(x)
        if not invalid.any():
            continue
        for start, stop in _runs(invalid):  # [start, stop) of missing samples
            prev_anchor = start - 1
            next_anchor = stop
            if prev_anchor < 0 or next_anchor >= n:
                drop[start:stop] = True
                continue
            span = t[next_anchor] - t[prev_anchor]
            if span > max_gap_fill:
                drop[start:stop] = True
            else:
                data[start:stop, col] = np.interp(
                    t[start:stop],
                    [t[prev_anchor], t[next_anchor]],
                    [x[prev_anchor], x[next_anchor]],
                )

    if drop.any():
        keep = ~drop
        data = data[keep]
        t = t[keep]
    return Trip(trip.driver_id, np.array(t), data, trip.nominal_rate_hz)


def detect_stops(
    trip: Trip,
    threshold: float = 0.5,
    min_stop_seconds: float = 6.0,
    aggregate: str = "magnitude",
) -> list[StopInterval]:
    """Find maximal runs where the aggregated acceleration stays within a band.

    The per-sample aggregate m(t) is the Euclidean magnitude of the three
    accelerometer axes (or their plain sum when aggregate="sum"). A stop is
    a maximal run of consecutive samples with max(m) - min(m) <= threshold
    whose half-open duration reaches min_stop_seconds. Runs never bridge a
    sampling discontinuity longer than two sample periods. Returned
    intervals are disjoint and sorted.

    For every sample i, r(i) is the end of the longest in-band run [i, r(i))
    inside i's contiguous block (see ``_run_ends``). Stops are picked
    greedily from the left: the first i at or after the cursor whose run is
    long enough gives the stop [t[i], t[r(i) - 1] + period), and the cursor
    moves to r(i). This equals a scan that grows a run sample by sample and,
    when the run ends, either records it and restarts at its end or retries
    from the next start, because r is monotone: [i + 1, r(i)) lies inside
    the in-band run [i, r(i)), so r(i + 1) >= r(i) and the scan never has to
    look back.
    """
    accel = trip.data[:, ACCEL_COLUMNS]
    if not np.isfinite(accel).all():
        raise ValueError("detect_stops requires gap-filled, finite accelerometer channels")
    if aggregate == "magnitude":
        m = np.sqrt((accel**2).sum(axis=1))
    elif aggregate == "sum":
        m = accel.sum(axis=1)
    else:
        raise ValueError("aggregate must be 'magnitude' or 'sum'")

    period = 1.0 / trip.nominal_rate_hz
    t = trip.t
    starts = np.arange(len(trip))
    # first sample of each later block
    breaks = np.flatnonzero(continuity_breaks(t, trip.nominal_rate_hz)) + 1
    block_end = np.append(breaks, len(trip))[np.searchsorted(breaks, starts, side="right")]
    run_end = _run_ends(m, block_end, threshold)
    long_enough = np.flatnonzero((run_end > starts) & (t[run_end - 1] - t + period >= min_stop_seconds))

    stops: list[StopInterval] = []
    k = 0
    while k < long_enough.size:
        i = long_enough[k]
        stops.append(StopInterval(float(t[i]), float(t[run_end[i] - 1] + period)))
        k = np.searchsorted(long_enough, run_end[i])  # first start at or after the cursor
    return stops


def _run_ends(m: np.ndarray, block_end: np.ndarray, threshold: float) -> np.ndarray:
    """For every i, the largest r <= block_end[i] with max(m[i:r]) - min(m[i:r]) <= threshold.

    Sparse tables hold the max and min of m over every [p, p + 2**k); each
    run grows by 2**k for k from the largest power down whenever the grown
    run stays in band (binary lifting). A run's range only grows with its
    length, so this finds the longest run in O(n log n).
    """
    tables = [(m, m)]  # level k: max and min over [p, p + 2**k), p < n - 2**k + 1
    while 2 ** len(tables) <= m.size:
        half = 2 ** (len(tables) - 1)
        top, bottom = tables[-1]
        tables.append((np.maximum(top[:-half], top[half:]), np.minimum(bottom[:-half], bottom[half:])))

    end = np.arange(m.size)
    hi = np.full(m.size, -np.inf)
    lo = np.full(m.size, np.inf)
    for k in reversed(range(len(tables))):
        top, bottom = tables[k]
        at = np.minimum(end, top.size - 1)  # clipped where the step overruns anyway
        grown_hi = np.maximum(hi, top[at])
        grown_lo = np.minimum(lo, bottom[at])
        grow = (end + 2**k <= block_end) & ~(grown_hi - grown_lo > threshold)
        end = np.where(grow, end + 2**k, end)
        hi = np.where(grow, grown_hi, hi)
        lo = np.where(grow, grown_lo, lo)
    return end


def remove_stops(trip: Trip, stops: Sequence[StopInterval]) -> CleanTrip:
    """Delete all samples inside the stop intervals, keeping original timestamps.

    The stops that held a sample are recorded on the CleanTrip, which
    derives its continuity breaks from them: a kept sample never lies in a
    stop, so a stop that removed samples between kept samples i and i+1
    starts between them.
    """
    stops = _check_stops(stops)
    if np.isnan(trip.data).any():
        raise ValueError("remove_stops requires gap-filled channels")

    # samples lo[k] .. hi[k] - 1 lie in stop k
    lo = np.searchsorted(trip.t, [s.start_t for s in stops])
    hi = np.searchsorted(trip.t, [s.end_t for s in stops])
    keep = np.ones(len(trip), dtype=bool)
    for a, b in zip(lo, hi):
        keep[a:b] = False
    if not keep.any():
        raise ValueError("no movement data")
    return CleanTrip(
        driver_id=trip.driver_id,
        t=trip.t[keep],
        data=trip.data[keep],
        nominal_rate_hz=trip.nominal_rate_hz,
        stop_intervals=tuple(s for s, a, b in zip(stops, lo, hi) if b > a),
        provenance=("remove_stops",),
    )


def _check_stops(stops: Sequence[StopInterval]) -> tuple[StopInterval, ...]:
    """The stops as a tuple, once they are StopIntervals with finite bounds
    and positive duration, sorted and disjoint."""
    stops = tuple(stops)
    if not all(isinstance(s, StopInterval) for s in stops):
        raise ValueError("stop intervals must be StopInterval objects")
    if not np.isfinite([(s.start_t, s.end_t) for s in stops]).all():
        raise ValueError("stop interval bounds must be finite")
    if not all(b.start_t >= a.end_t for a, b in zip(stops, stops[1:])):
        raise ValueError("stop intervals must be sorted and disjoint")
    if not all(s.end_t > s.start_t for s in stops):
        raise ValueError("stop interval must have positive duration")
    return stops


def clean(trip: Trip, cfg: CleaningConfig = CleaningConfig()) -> CleanTrip:
    """Run the full cleaning chain and record its provenance."""
    provenance = ("denoise", "reorient") if cfg.reorient else ("denoise",)
    stage = denoise(trip, cfg.denoise_window)
    if cfg.reorient:
        stage = reorient(stage)
    before_fill = len(stage)
    stage = fill_gaps(stage, cfg.max_gap_fill)  # rebinding frees the unfilled trip
    stops = detect_stops(stage, cfg.stop_threshold, cfg.min_stop_seconds, cfg.stop_aggregate)
    return replace(
        remove_stops(stage, stops),
        removed_gap_seconds=(before_fill - len(stage)) / trip.nominal_rate_hz,
        provenance=(*provenance, "fill_gaps", "remove_stops"),
    )


def _runs(mask: np.ndarray):
    """Yield [start, stop) index pairs of maximal True runs."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.diff(padded.astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    stops = np.nonzero(edges == -1)[0]
    return zip(starts, stops)


def _require_contiguous_span(trip: Trip, mask: np.ndarray, min_seconds: float) -> None:
    period = 1.0 / trip.nominal_rate_hz
    best = 0.0
    for start, stop in _runs(mask):
        best = max(best, trip.t[stop - 1] - trip.t[start] + period)
    if best < min_seconds - 1e-9:
        raise ValueError(
            f"cannot estimate gravity: need {min_seconds:.0f}s of complete "
            f"accelerometer data, longest run is {best:.1f}s"
        )
