"""Chronological train/test splitting and overlapping window cutting.

The split is chronological over movement samples (earliest fraction trains,
the remainder tests) so that no time span can contribute to both
partitions. Windows are cut per partition; a window is emitted only when it
lies fully inside its span and bridges no continuity break. The windows of
one span travel together as one `WindowBatch`: a single `(n, 6, w)` channel
array plus per-window start and end times.
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
        if self.window_minutes <= 0:
            raise ValueError("window_minutes must be positive")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")

    def window_samples(self, rate_hz: float) -> int:
        return int(round(self.window_minutes * 60.0 * rate_hz))

    def stride_samples(self, rate_hz: float) -> int:
        w = self.window_samples(rate_hz)
        return max(1, int(round(w * (1.0 - self.overlap_fraction))))


@dataclass(frozen=True, eq=False)
class Span:
    """A contiguous chronological slice of a cleaned trip, tagged train or test."""

    driver_id: str
    t: np.ndarray
    data: np.ndarray            # (n, 6)
    break_after: np.ndarray     # (n-1,) bool
    nominal_rate_hz: float
    partition: str

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """The windows of one span, in time order, with half-open time spans."""

    driver_id: str
    partition: str
    start_t: np.ndarray         # (n,)
    end_t: np.ndarray           # (n,)
    channels: np.ndarray        # (n, 6, w), C-contiguous, channel order

    def __post_init__(self):
        ch = np.ascontiguousarray(self.channels, dtype=np.float64)
        if ch.ndim != 3 or ch.shape[1] != 6 or ch.shape[2] < 2:
            raise ValueError("channels must be an (n, 6, w) array with w >= 2")
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)

    def __len__(self) -> int:
        return self.channels.shape[0]


def split_train_test(
    trip: CleanTrip, train_fraction: float, min_span_samples: int = 1
) -> tuple[Span, Span]:
    """Split a trip chronologically into train and test spans.

    The earliest floor(train_fraction * n) samples train; the rest test.
    `min_span_samples` lets callers demand room for at least one window on
    each side; a short side raises "insufficient data for split".
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(trip)
    n_train = int(np.floor(train_fraction * n))
    n_test = n - n_train
    if n_train < min_span_samples or n_test < min_span_samples:
        raise InsufficientData(
            f"insufficient data for split: trip {trip.driver_id!r} has {n} samples, "
            f"split gives {n_train}/{n_test}, need {min_span_samples} per side"
        )
    return (
        _span(trip, 0, n_train, TRAIN),
        _span(trip, n_train, n, TEST),
    )


def cut_windows(span: Span, cfg: SegmentationConfig, rate_hz: float) -> WindowBatch:
    """Cut fixed-length overlapping windows from a span.

    Windows start every stride samples; only windows that fit entirely in
    the span and cross no recorded continuity break are emitted, and a
    trailing partial window is discarded. A span shorter than one window
    yields an empty batch.
    """
    w = cfg.window_samples(rate_hz)
    if w < 2:
        raise ValueError(f"window of {cfg.window_minutes} min at {rate_hz} Hz has {w} samples")
    stride = cfg.stride_samples(rate_hz)
    n = len(span)
    starts = np.arange(0, max(n - w + 1, 0), stride)

    # prefix sum of break flags for O(1) "any break inside?" checks
    break_cum = np.concatenate([[0], np.cumsum(span.break_after, dtype=np.int64)])
    starts = starts[break_cum[starts + w - 1] == break_cum[starts]]
    if n >= w:
        # view[i, c, k] == data[i + k, c]; fancy indexing copies the kept windows
        channels = sliding_window_view(span.data, w, axis=0)[starts]
    else:
        channels = np.empty((0, 6, w))
    return WindowBatch(
        driver_id=span.driver_id,
        partition=span.partition,
        start_t=span.t[starts],
        end_t=span.t[starts + w - 1] + 1.0 / rate_hz,
        channels=channels,
    )


def segment_trip(trip: CleanTrip, cfg: SegmentationConfig) -> tuple[WindowBatch, WindowBatch]:
    """Split then window one cleaned trip; returns (train batch, test batch)."""
    rate = trip.nominal_rate_hz
    w = cfg.window_samples(rate)
    train_span, test_span = split_train_test(trip, cfg.train_fraction, min_span_samples=w)
    return cut_windows(train_span, cfg, rate), cut_windows(test_span, cfg, rate)


def _span(trip: CleanTrip, start: int, stop: int, partition: str) -> Span:
    return Span(
        driver_id=trip.driver_id,
        t=trip.t[start:stop],
        data=trip.data[start:stop],
        break_after=trip.break_after[start : max(stop - 1, start)],
        nominal_rate_hz=trip.nominal_rate_hz,
        partition=partition,
    )
