"""Chronological train/test splitting and overlapping window cutting.

The split is chronological over movement samples (earliest fraction trains,
the remainder tests) so that no time span can contribute to both
partitions. `split_index` is the one home of the split point and of the
rule that each side has room for one window; `cut_windows` windows one
sample range of a cleaned trip, and `segment_trip` composes the two. A
window is emitted only when it lies fully inside its range and bridges no
continuity break. The windows of one range travel together as one
`WindowBatch`: a single `(n, 6, w)` channel array plus per-window start
and end times.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .preprocess import CleanTrip

TRAIN = "train"
TEST = "test"


class InsufficientData(ValueError):
    """Too little data for a split, a window set, a standardizer or a training set.

    The grid sweep records this error in the failing cell's report row;
    every other error propagates.
    """


@dataclass(frozen=True)
class SegmentationConfig:
    window_minutes: float = 15.0
    overlap_fraction: float = 0.75
    train_fraction: float = 0.7

    def __post_init__(self):
        if not (np.isfinite(self.window_minutes) and self.window_minutes > 0):
            raise ValueError("window_minutes must be finite and positive")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")

    def window_samples(self, rate_hz: float) -> int:
        w = self.window_minutes * 60.0 * rate_hz
        if not np.isfinite(w):
            raise ValueError(f"a {self.window_minutes}-minute window at {rate_hz} Hz has a non-finite sample count")
        return int(round(w))

    def stride_samples(self, rate_hz: float) -> int:
        w = self.window_samples(rate_hz)
        return max(1, int(round(w * (1.0 - self.overlap_fraction))))


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """The windows of one sample range, in time order, with half-open time spans."""

    driver_id: str
    partition: str
    start_t: np.ndarray         # (n,)
    end_t: np.ndarray           # (n,)
    channels: np.ndarray        # (n, 6, w), C-contiguous, channel order

    def __post_init__(self):
        ch = np.ascontiguousarray(self.channels, dtype=np.float64).view()
        if ch.ndim != 3 or ch.shape[1] != 6 or ch.shape[2] < 2:
            raise ValueError("channels must be an (n, 6, w) array with w >= 2")
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)

    def __len__(self) -> int:
        return self.channels.shape[0]


def split_index(trip: CleanTrip, cfg: SegmentationConfig) -> int:
    """The first test sample of a trip split chronologically.

    The earliest floor(train_fraction * n) samples train; the rest test.
    Each side must have room for one window, or the split raises
    "insufficient data for split".
    """
    n = len(trip)
    n_train = int(np.floor(cfg.train_fraction * n))
    n_test = n - n_train
    w = cfg.window_samples(trip.nominal_rate_hz)
    if n_train < w or n_test < w:
        raise InsufficientData(
            f"insufficient data for split: trip {trip.driver_id!r} has {n} samples, "
            f"split gives {n_train}/{n_test}, need {w} per side"
        )
    return n_train


def cut_windows(
    trip: CleanTrip, start: int, stop: int, partition: str, cfg: SegmentationConfig
) -> WindowBatch:
    """Cut fixed-length overlapping windows from samples [start, stop) of a trip.

    Windows start every stride samples from `start`; only windows that fit
    entirely in the range and cross no recorded continuity break are
    emitted, and a trailing partial window is discarded. A range shorter
    than one window yields an empty batch.
    """
    rate = trip.nominal_rate_hz
    w = cfg.window_samples(rate)
    if w < 2:
        raise ValueError(f"window of {cfg.window_minutes} min at {rate} Hz has {w} samples")
    stride = cfg.stride_samples(rate)
    t = trip.t[start:stop]
    data = trip.data[start:stop]
    n = t.size
    starts = np.arange(0, max(n - w + 1, 0), stride)

    # prefix sum of break flags for O(1) "any break inside?" checks
    breaks = trip.break_after[start : max(stop - 1, start)]
    break_cum = np.concatenate([[0], np.cumsum(breaks, dtype=np.int64)])
    starts = starts[break_cum[starts + w - 1] == break_cum[starts]]
    if n >= w:
        # view[i, c, k] == data[i + k, c]; fancy indexing copies the kept windows
        channels = sliding_window_view(data, w, axis=0)[starts]
    else:
        channels = np.empty((0, 6, w))
    return WindowBatch(
        driver_id=trip.driver_id,
        partition=partition,
        start_t=t[starts],
        end_t=t[starts + w - 1] + 1.0 / rate,
        channels=channels,
    )


def segment_trip(trip: CleanTrip, cfg: SegmentationConfig) -> tuple[WindowBatch, WindowBatch]:
    """Split then window one cleaned trip; returns (train batch, test batch)."""
    split = split_index(trip, cfg)
    return cut_windows(trip, 0, split, TRAIN, cfg), cut_windows(trip, split, len(trip), TEST, cfg)
