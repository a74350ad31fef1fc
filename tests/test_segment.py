import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driverid as d
from driverid.preprocess import CleanTrip
from driverid.segment import SegmentationConfig, cut_windows, segment_trip, split_index
from conftest import stops_in_gaps
from oracles import window_starts_oracle


def make_clean_trip(n=2000, rate=2.0, breaks=(), driver="t"):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((n, 6))
    data[:, 2] += 9.81
    flags = np.zeros(n - 1, dtype=bool)
    for b in breaks:
        flags[b] = True
    t = np.arange(n) / rate
    return CleanTrip(
        driver_id=driver,
        t=t,
        data=data,
        nominal_rate_hz=rate,
        stop_intervals=stops_in_gaps(t, flags),
    )


def cut_all(trip, cfg):
    return cut_windows(trip, 0, len(trip), "train", cfg)


def split_cfg(fraction, window_samples=2, rate=2.0):
    return SegmentationConfig(window_minutes=window_samples / (60.0 * rate), train_fraction=fraction)


class TestSplit:
    def test_1000_samples_at_07(self):
        trip = make_clean_trip(1000)
        split = split_index(trip, split_cfg(0.7))
        assert split == 700
        assert len(trip) - split == 300
        assert trip.t[split - 1] < trip.t[split]

    def test_even_split_of_ten(self):
        trip = make_clean_trip(10)
        split = split_index(trip, split_cfg(0.5))
        assert split == 5 and len(trip) - split == 5

    def test_disjoint_and_exhaustive(self):
        # 2-sample windows at stride 1 start at every sample but the last of each side
        trip = make_clean_trip(777)
        train, test = segment_trip(trip, split_cfg(0.7))
        assert len(train) + len(test) == len(trip) - 2
        assert set(train.start_t) & set(test.start_t) == set()
        assert train.end_t[-1] <= test.start_t[0]

    def test_insufficient_data_raises(self):
        trip = make_clean_trip(100)
        with pytest.raises(ValueError, match="insufficient data for split"):
            split_index(trip, split_cfg(0.7, window_samples=50))

    def test_bad_fraction_rejected(self):
        trip = make_clean_trip(100)
        with pytest.raises(ValueError):
            split_index(trip, split_cfg(1.0))


class TestCutWindows:
    def test_exact_span_yields_one_window(self):
        # 1200 samples, 10-minute window at 2 Hz = 1200 samples
        trip = make_clean_trip(1200)
        cfg = SegmentationConfig(window_minutes=10, overlap_fraction=0.0)
        windows = cut_all(trip, cfg)
        assert len(windows) == 1
        assert windows.channels.shape[2] == 1200

    def test_half_overlap_offsets(self):
        trip = make_clean_trip(1800)
        cfg = SegmentationConfig(window_minutes=10, overlap_fraction=0.5)
        windows = cut_all(trip, cfg)
        assert len(windows) == 2
        assert windows.start_t[0] == 0.0
        assert windows.start_t[1] == pytest.approx(300.0)

    def test_stride_arithmetic_75_percent(self):
        cfg = SegmentationConfig(window_minutes=10, overlap_fraction=0.75)
        assert cfg.window_samples(2.0) == 1200
        assert cfg.stride_samples(2.0) == 300

    def test_short_span_yields_empty_list(self):
        trip = make_clean_trip(100)
        cfg = SegmentationConfig(window_minutes=10, overlap_fraction=0.0)
        assert len(cut_all(trip, cfg)) == 0

    def test_windows_never_cross_breaks(self):
        trip = make_clean_trip(3000, breaks=(1500,))
        cfg = SegmentationConfig(window_minutes=10, overlap_fraction=0.75)
        windows = cut_all(trip, cfg)
        assert len(windows), "expected some windows"
        for start_t, end_t in zip(windows.start_t, windows.end_t):
            inside = (start_t <= trip.t[1500]) and (trip.t[1501] < end_t)
            assert not inside

    def test_windows_never_cross_a_sampling_hole(self):
        # two 75 s blocks at 2 Hz with 450 s of removed time between them
        t = np.concatenate([np.arange(150) / 2.0, 525.0 + np.arange(150) / 2.0])
        trip = CleanTrip("t", t, np.random.default_rng(2).standard_normal((300, 6)), 2.0)
        assert np.flatnonzero(trip.break_after).tolist() == [149]
        windows = cut_all(trip, SegmentationConfig(window_minutes=1.0, overlap_fraction=0.5))
        assert windows.start_t.tolist() == [0.0, 525.0 + 15.0]
        assert (windows.end_t - windows.start_t).tolist() == [60.0, 60.0]

    def test_window_count_formula_against_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(5, 400))
            w = int(rng.integers(2, 80))
            overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75, 0.9]))
            trip = make_clean_trip(max(n, 2))
            cfg = SegmentationConfig(window_minutes=w / (60.0 * 2.0), overlap_fraction=overlap)
            if cfg.window_samples(2.0) < 2:
                continue
            windows = cut_windows(trip, 0, n, "train", cfg)
            s = cfg.stride_samples(2.0)
            expected = max(0, (n - cfg.window_samples(2.0)) // s + 1)
            assert len(windows) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 300),
        w=st.integers(2, 80),
        overlap=st.floats(0.0, 0.99),
        breaks=st.sets(st.integers(0, 298), max_size=8),
    )
    def test_starts_match_enumeration_oracle(self, n, w, overlap, breaks):
        rate = 2.0
        # the trip runs one sample past the windowed range, so it exists at n = 0
        flags = np.zeros(n, dtype=bool)
        flags[[b for b in breaks if b < n - 1]] = True
        data = np.random.default_rng(n).standard_normal((n + 1, 6))
        t = np.arange(n + 1) / rate
        trip = CleanTrip("t", t, data, rate, stop_intervals=stops_in_gaps(t, flags))
        cfg = SegmentationConfig(window_minutes=w / (60.0 * rate), overlap_fraction=overlap)
        assert cfg.window_samples(rate) == w
        windows = cut_windows(trip, 0, n, "train", cfg)
        expected = window_starts_oracle(trip.t[:n], flags[: max(n - 1, 0)], w, cfg.stride_samples(rate))
        assert windows.start_t.tolist() == expected
        assert windows.channels.shape == (len(expected), 6, w)
        for channels, start_t in zip(windows.channels, expected):
            off = int(round(start_t * rate))
            assert np.array_equal(channels, data[off : off + w].T)

    def test_each_window_has_expected_duration(self):
        trip = make_clean_trip(4000)
        cfg = SegmentationConfig(window_minutes=5, overlap_fraction=0.25)
        windows = cut_all(trip, cfg)
        for start_t, end_t in zip(windows.start_t, windows.end_t):
            assert end_t - start_t == pytest.approx(300.0, abs=0.5)
        assert windows.channels.shape[2] == cfg.window_samples(2.0)


class TestPartitionPurity:
    def test_train_test_spans_never_intersect(self):
        rng = np.random.default_rng(123)
        trip = make_clean_trip(6000, breaks=(1000, 3500))
        for _ in range(50):
            minutes = float(rng.uniform(0.5, 12.0))
            overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            fraction = float(rng.uniform(0.3, 0.8))
            cfg = SegmentationConfig(minutes, overlap, fraction)
            try:
                train_windows, test_windows = segment_trip(trip, cfg)
            except ValueError:
                continue
            for a_start, a_end in zip(train_windows.start_t, train_windows.end_t):
                for b_start, b_end in zip(test_windows.start_t, test_windows.end_t):
                    assert a_end <= b_start or b_end <= a_start

    def test_partition_tags_assigned(self):
        trip = make_clean_trip(4000)
        train_windows, test_windows = segment_trip(
            trip, SegmentationConfig(window_minutes=5, overlap_fraction=0.5)
        )
        assert train_windows.partition == "train"
        assert test_windows.partition == "test"
        assert len(train_windows) and len(test_windows)


class TestSegmentationConfig:
    def test_overlap_bounds(self):
        with pytest.raises(ValueError):
            SegmentationConfig(overlap_fraction=1.0)
        with pytest.raises(ValueError):
            SegmentationConfig(overlap_fraction=-0.1)

    def test_train_fraction_bounds(self):
        with pytest.raises(ValueError):
            SegmentationConfig(train_fraction=0.0)

    def test_stride_is_at_least_one(self):
        cfg = SegmentationConfig(window_minutes=2 / 120.0, overlap_fraction=0.75)
        assert cfg.stride_samples(2.0) >= 1
