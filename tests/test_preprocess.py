import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driverid as d
from driverid.ingest import Trip
from driverid.preprocess import (
    CleaningConfig,
    StopInterval,
    clean,
    denoise,
    detect_stops,
    fill_gaps,
    gravity_rotation,
    remove_stops,
    reorient,
)
from oracles import break_flags_oracle, denoise_oracle, fill_gaps_oracle, stop_runs_oracle


def trip_from_channel(values, rate=2.0, column=0, base=None):
    values = np.asarray(values, dtype=float)
    n = values.size
    data = np.zeros((n, 6)) if base is None else np.tile(base, (n, 1)).astype(float)
    data[:, column] = values
    return Trip("t", np.arange(n) / rate, data, rate)


class TestDenoise:
    def test_constant_signal_is_fixed_point(self):
        trip = trip_from_channel(np.full(20, 3.3))
        out = denoise(trip, 5)
        assert np.allclose(out.data[:, 0], 3.3)

    def test_window_one_is_identity(self, quiet_trip):
        assert denoise(quiet_trip, 1) == quiet_trip

    def test_hand_computed_shrunken_edges(self):
        trip = trip_from_channel([0.0, 3.0, 0.0, 3.0, 0.0])
        out = denoise(trip, 3)
        assert np.allclose(out.data[:, 0], [1.5, 1.0, 2.0, 1.0, 1.5])

    def test_even_window_rejected(self, quiet_trip):
        with pytest.raises(ValueError, match="odd"):
            denoise(quiet_trip, 4)

    def test_window_exceeding_length_rejected(self):
        trip = trip_from_channel([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exceeds"):
            denoise(trip, 5)

    def test_missing_values_excluded_and_kept_missing(self):
        values = np.array([1.0, np.nan, 3.0, 5.0])
        trip = trip_from_channel(values)
        out = denoise(trip, 3)
        assert np.isnan(out.data[1, 0])
        # neighbors average over the valid entries only
        assert out.data[0, 0] == 1.0          # window {1.0, nan} -> 1.0
        assert out.data[2, 0] == 4.0          # window {nan, 3.0, 5.0} -> 4.0

    def test_mean_preserved_for_centrally_antisymmetric_signal(self):
        # signals with s[i] + s[n-1-i] = 2m keep their mean under the
        # clipped-window average for any window; a linear ramp is one
        rng = np.random.default_rng(5)
        for n in (9, 15, 33):
            half = rng.standard_normal(n // 2)
            sig = np.concatenate([half, [0.0], -half[::-1]]) + 2.5
            trip = trip_from_channel(sig)
            out = denoise(trip, n if n % 2 else n - 1)
            assert abs(out.data[:, 0].mean() - sig.mean()) < 1e-9

    def test_output_within_input_range(self, quiet_trip):
        out = denoise(quiet_trip, 7)
        for c in range(6):
            assert out.data[:, c].min() >= quiet_trip.data[:, c].min() - 1e-12
            assert out.data[:, c].max() <= quiet_trip.data[:, c].max() + 1e-12


    @settings(max_examples=200, deadline=None)
    @given(
        column=st.lists(
            st.one_of(st.integers(-2**20, 2**20).map(lambda k: k / 8.0), st.just(np.nan)),
            min_size=1,
            max_size=40,
        ),
        window=st.integers(0, 20).map(lambda h: 2 * h + 1),
    )
    def test_matches_naive_oracle(self, column, window):
        # Values are multiples of 1/8 well inside float64's exact range, so
        # every partial sum is exact and the results must agree bit for bit.
        if window > len(column):
            window = 1 + 2 * ((len(column) - 1) // 2)
        out = denoise(trip_from_channel(column), window)
        assert np.array_equal(out.data[:, 0], denoise_oracle(column, window), equal_nan=True)


class TestReorient:
    def make_gravity_trip(self, gravity_vec, n=60, rate=2.0, seed=0):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((n, 6)) * 0.01
        noise -= noise.mean(axis=0)  # trip-mean accel is exactly gravity_vec
        data = np.tile(np.concatenate([gravity_vec, [0.0, 0.0, 0.0]]), (n, 1)) + noise
        return Trip("g", np.arange(n) / rate, data, rate)

    def test_already_aligned_is_identity(self):
        trip = self.make_gravity_trip(np.array([0.0, 0.0, 9.81]))
        out = reorient(trip)
        assert np.allclose(out.data, trip.data, atol=1e-12)

    def test_sideways_gravity_rotated_onto_z(self):
        trip = self.make_gravity_trip(np.array([9.81, 0.0, 0.0]))
        out = reorient(trip)
        mean = out.data[:, 0:3].mean(axis=0)
        assert abs(mean[0]) < 1e-9 and abs(mean[1]) < 1e-9
        assert mean[2] > 9.7

    def test_antiparallel_gravity_handled(self):
        trip = self.make_gravity_trip(np.array([0.0, 0.0, -9.81]), seed=1)
        out = reorient(trip)
        assert out.data[:, 2].mean() > 9.7

    def test_magnitudes_preserved_under_random_rotation(self):
        profile = d.make_profiles(3, "easy", 11)[0]
        trip, _ = d.generate_trip(profile, 300, 2.0, driver_id="x")
        out = reorient(trip)
        before = np.linalg.norm(trip.data[:, 0:3], axis=1)
        after = np.linalg.norm(out.data[:, 0:3], axis=1)
        assert np.max(np.abs(after - before) / before) < 1e-9
        g_before = np.linalg.norm(trip.data[:, 3:6], axis=1)
        g_after = np.linalg.norm(out.data[:, 3:6], axis=1)
        mask = g_before > 1e-12
        assert np.max(np.abs(g_after[mask] - g_before[mask]) / g_before[mask]) < 1e-9

    def test_tiny_mean_rejected(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((60, 6)) * 0.1
        trip = Trip("z", np.arange(60) / 2.0, data, 2.0)
        with pytest.raises(ValueError, match="cannot estimate gravity"):
            reorient(trip)

    def test_gravity_rotation_is_orthogonal(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal(3) * 5 + np.array([0, 0, 6])
            rot = gravity_rotation(v)
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            aligned = rot @ (v / np.linalg.norm(v))
            assert np.allclose(aligned, [0, 0, 1], atol=1e-9)


class TestFillGaps:
    def test_linear_midpoint(self):
        values = np.array([1.0, np.nan, 2.0])
        trip = trip_from_channel(values, base=np.ones(6))
        out = fill_gaps(trip, 2.0)
        assert out.data[1, 0] == pytest.approx(1.5)
        assert len(out) == 3

    def test_no_missing_is_identity(self, quiet_trip):
        assert fill_gaps(quiet_trip, 2.0) == quiet_trip

    def test_long_run_removed(self):
        # 5 s of missing at 2 Hz with max fill 2 s: samples dropped
        values = np.ones(30)
        values[10:20] = np.nan
        trip = trip_from_channel(values, base=np.ones(6))
        out = fill_gaps(trip, 2.0)
        assert len(out) == 20
        assert not np.isnan(out.data).any()
        # timestamps preserved, hole left in place
        assert out.t[10] == pytest.approx(10.0)

    def test_leading_and_trailing_runs_removed(self):
        values = np.ones(10)
        values[:2] = np.nan
        values[-1] = np.nan
        trip = trip_from_channel(values, base=np.ones(6))
        out = fill_gaps(trip, 10.0)
        assert len(out) == 7

    def test_all_invalid_rejected(self):
        values = np.full(10, np.nan)
        trip = trip_from_channel(values)
        trip.data.setflags(write=True)
        trip.data[:, 1:] = np.nan
        with pytest.raises(ValueError, match="no valid data"):
            fill_gaps(Trip("t", trip.t, trip.data, 2.0), 2.0)

    def test_never_invents_samples_and_interpolation_bounded(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(50)
        missing = slice(20, 23)
        anchor_lo, anchor_hi = values[19], values[23]
        values[missing] = np.nan
        trip = trip_from_channel(values, base=np.ones(6))
        out = fill_gaps(trip, 2.0)
        assert len(out) <= len(trip)
        filled = out.data[missing, 0]
        assert filled.min() >= min(anchor_lo, anchor_hi) - 1e-12
        assert filled.max() <= max(anchor_lo, anchor_hi) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_run_scan_oracle(self, data):
        rate = data.draw(st.sampled_from([1.0, 2.0, 4.0]))
        size = data.draw(st.integers(0, 39))
        # steps of one or two periods are continuous; longer ones are sampling holes
        steps = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 7]), min_size=size, max_size=size))
        t = np.concatenate([[0.0], np.cumsum(steps)]) / rate
        n = t.size
        values = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=6 * n, max_size=6 * n))
        rows = np.array(values).reshape(n, 6)
        runs = st.tuples(st.integers(0, 5), st.integers(0, n - 1), st.integers(1, 4))
        for col, start, length in data.draw(st.lists(runs, max_size=6)):
            rows[start : start + length, col] = np.nan
        # runs that reach either edge have only one anchor
        rows[: data.draw(st.sampled_from([0, 0, 1, 2])), data.draw(st.integers(0, 5))] = np.nan
        rows[n - data.draw(st.sampled_from([0, 0, 1, 2])) :, data.draw(st.integers(0, 5))] = np.nan
        max_gap_fill = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0]))
        trip = Trip("g", t, rows, rate)
        try:
            expected_t, expected_rows = fill_gaps_oracle(t.tolist(), rows.tolist(), max_gap_fill)
        except ValueError:
            with pytest.raises(ValueError, match="no valid data"):
                fill_gaps(trip, max_gap_fill)
            return
        out = fill_gaps(trip, max_gap_fill)
        assert out.t.tolist() == expected_t
        np.testing.assert_allclose(out.data, np.array(expected_rows).reshape(-1, 6), rtol=1e-12, atol=1e-12)


class TestDetectStops:
    def constant_trip(self, seconds=10.0, rate=2.0):
        n = int(seconds * rate)
        data = np.zeros((n, 6))
        data[:, 2] = 9.81
        return Trip("s", np.arange(n) / rate, data, rate)

    def test_constant_trip_is_one_full_stop(self):
        trip = self.constant_trip(10.0)
        stops = detect_stops(trip, 0.5, 6.0)
        assert len(stops) == 1
        assert stops[0].start_t == 0.0
        assert stops[0].end_t == pytest.approx(10.0)

    def test_alternating_magnitude_yields_nothing(self):
        n = 40
        data = np.zeros((n, 6))
        data[:, 2] = 9.81 + np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        trip = Trip("s", np.arange(n) / 2.0, data, 2.0)
        assert detect_stops(trip, 0.5, 6.0) == []

    def test_short_quiet_run_below_min_duration_kept(self):
        # 4 s of quiet inside varying driving: shorter than 6 s, not a stop
        n = 60
        rng = np.random.default_rng(3)
        data = np.zeros((n, 6))
        data[:, 2] = 9.81 + rng.uniform(-1, 1, n).cumsum() % 3.0
        data[26:34, 2] = 9.81
        data[26:34, 0] = 0.0
        trip = Trip("s", np.arange(n) / 2.0, data, 2.0)
        for stop in detect_stops(trip, 0.5, 6.0):
            assert not (stop.start_t >= 13.0 and stop.end_t <= 17.0)

    def test_synthetic_truth_recovered_exactly(self):
        from conftest import stoppy_profile

        for seed in (0, 1, 2):
            profile = stoppy_profile(seed)
            trip, truth = d.generate_trip(profile, 1800.0, 2.0, driver_id="x")
            stops = detect_stops(trip, 0.5, 6.0)
            detected = [(s.start_t, s.end_t) for s in stops]
            for start, end in truth.stop_intervals:
                assert any(
                    abs(a - start) <= 0.5 and abs(b - end) <= 0.5 for a, b in detected
                ), f"stop {(start, end)} not recovered in seed {seed}: {detected}"

    def test_depends_only_on_magnitude_series(self):
        # two trips with identical magnitude series give identical intervals
        rng = np.random.default_rng(8)
        n = 200
        mags = np.abs(rng.standard_normal(n)) + 9.0
        mags[60:80] = 9.5  # quiet run
        t = np.arange(n) / 2.0
        a = np.zeros((n, 6))
        a[:, 0] = mags
        b = np.zeros((n, 6))
        # same magnitudes, rotated into a different axis split
        b[:, 1] = mags * np.sqrt(0.5)
        b[:, 2] = mags * np.sqrt(0.5)
        stops_a = detect_stops(Trip("a", t, a, 2.0), 0.5, 6.0)
        stops_b = detect_stops(Trip("b", t, b, 2.0), 0.5, 6.0)
        assert [(s.start_t, s.end_t) for s in stops_a] == [
            (s.start_t, s.end_t) for s in stops_b
        ]

    def test_sum_aggregate_supported(self):
        trip = self.constant_trip(12.0)
        stops = detect_stops(trip, 0.5, 6.0, aggregate="sum")
        assert len(stops) == 1


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_run_enumeration_oracle(self, data):
        rate = data.draw(st.sampled_from([1.0, 2.0, 4.0]))
        period = 1.0 / rate
        # steps of one or two periods stay inside a block; longer ones split it
        steps = data.draw(
            st.lists(st.sampled_from([1, 1, 1, 1, 1, 1, 2, 2.5, 3, 7]), min_size=0, max_size=59)
        )
        t = np.concatenate([[0.0], np.cumsum(steps) * period]) + data.draw(
            st.sampled_from([0.0, 0.5, 100.25])
        )
        # planted bands: magnitudes on a 1/4 grid, so max - min hits the
        # threshold exactly; free vectors in between
        level = st.integers(36, 42).map(lambda k: k / 4.0)
        planted = st.tuples(level, st.integers(0, 2), st.sampled_from([1.0, -1.0])).map(
            lambda p: tuple(p[0] * p[2] if axis == p[1] else 0.0 for axis in range(3))
        )
        free = st.tuples(*[st.floats(-12.0, 12.0)] * 3)
        accel = data.draw(
            st.lists(st.one_of(planted, planted, free), min_size=t.size, max_size=t.size)
        )
        rows = np.zeros((t.size, 6))
        rows[:, :3] = accel
        trip = Trip("s", t, rows, rate)
        threshold = data.draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
        min_seconds = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5, 6.0]))
        for aggregate in ("magnitude", "sum"):
            stops = detect_stops(trip, threshold, min_seconds, aggregate)
            expected = stop_runs_oracle(t, accel, rate, threshold, min_seconds, aggregate)
            assert [(s.start_t, s.end_t) for s in stops] == expected


class TestRemoveStops:
    def test_empty_stop_list_keeps_everything(self, quiet_trip):
        out = remove_stops(quiet_trip, [])
        assert len(out) == len(quiet_trip)
        assert out.removed_stop_seconds == 0.0

    def test_ten_second_stop_in_100s_trip(self):
        n = 200  # 100 s at 2 Hz
        data = np.ones((n, 6))
        trip = Trip("s", np.arange(n) / 2.0, data, 2.0)
        out = remove_stops(trip, [StopInterval(40.0, 50.0)])
        assert len(out) == n - 20
        assert out.removed_stop_seconds == pytest.approx(10.0)
        # timestamps not re-compacted; a break is recorded at the hole
        assert 40.0 not in out.t
        idx = np.searchsorted(out.t, 50.0)
        assert out.break_after[idx - 1]

    def test_covering_whole_trip_rejected(self, quiet_trip):
        span = StopInterval(-1.0, quiet_trip.t[-1] + 1.0)
        with pytest.raises(ValueError, match="no movement data"):
            remove_stops(quiet_trip, [span])

    def test_overlapping_intervals_rejected(self, quiet_trip):
        stops = [StopInterval(0.0, 5.0), StopInterval(4.0, 9.0)]
        with pytest.raises(ValueError, match="disjoint"):
            remove_stops(quiet_trip, stops)

    def test_detection_idempotent_after_removal(self):
        from conftest import stoppy_profile

        profile = stoppy_profile(4)
        trip, _ = d.generate_trip(profile, 1800.0, 2.0, driver_id="x")
        stops = detect_stops(trip, 0.5, 6.0)
        cleaned = remove_stops(trip, stops)
        again = detect_stops(cleaned, 0.5, 6.0)
        for s in again:
            for removed in stops:
                inside = s.start_t >= removed.start_t and s.end_t <= removed.end_t
                assert not inside

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_break_flags_match_oracle(self, data):
        rate = data.draw(st.sampled_from([1.0, 2.0, 3.0, 4.0]))
        period = 1.0 / rate
        # steps of one or two periods are continuous; longer ones are sampling holes
        steps = data.draw(st.lists(st.sampled_from([1, 1, 1, 1, 2, 2.5, 3, 7]), max_size=59))
        t = np.concatenate([[0.0], np.cumsum(steps) * period]) + data.draw(
            st.sampled_from([0.0, 0.5, 100.25])
        )
        # stop edges on a half-period grid that reaches past both ends of the trip
        span = int(round((t[-1] - t[0]) / period)) * 2
        cuts = data.draw(st.lists(st.integers(-4, span + 4), max_size=10, unique=True))
        edges = [t[0] + k * period / 2.0 for k in sorted(cuts)]
        stops = list(zip(edges[::2], edges[1::2]))
        trip = Trip("s", t, np.zeros((t.size, 6)), rate)
        removed = [StopInterval(a, b) for a, b in stops]
        if all(any(a <= ti < b for a, b in stops) for ti in t):
            with pytest.raises(ValueError, match="no movement data"):
                remove_stops(trip, removed)
        else:
            expected = break_flags_oracle(t, stops, rate)
            assert remove_stops(trip, removed).break_after.tolist() == expected


class TestCleanChain:
    def test_ideal_trip_keeps_every_sample(self):
        rng = np.random.default_rng(6)
        n = 600
        data = rng.standard_normal((n, 6)) * 2.0
        data[:, 2] += 9.81
        trip = Trip("ideal", np.arange(n) / 2.0, data, 2.0)
        out = clean(trip, CleaningConfig(denoise_window=1))
        assert len(out) == n
        assert out.removed_stop_seconds == 0.0
        assert out.removed_gap_seconds == 0.0

    def test_thirty_percent_stop_time_removed(self):
        # 300 s trip with 90 s of injected stops: clean duration ~70%
        from conftest import stoppy_profile

        profile = stoppy_profile(9, stops_per_hour=0.0)
        trip, _ = d.generate_trip(profile, 300.0, 2.0, driver_id="x", device_rotation=False)
        data = trip.data.copy()
        data[200:380] = np.random.default_rng(0).standard_normal((180, 6)) * 0.01
        data[200:380, 2] += 9.81
        doctored = Trip("x", trip.t, data, 2.0)
        out = clean(doctored, CleaningConfig(denoise_window=1, reorient=False))
        total = len(doctored) / 2.0
        assert out.removed_stop_seconds == pytest.approx(90.0, abs=1.0)
        assert out.duration_seconds == pytest.approx(total - 90.0, abs=1.0)

    def test_reorient_false_omits_stage(self, quiet_trip):
        out = clean(quiet_trip, CleaningConfig(reorient=False))
        assert "reorient" not in out.provenance
        assert out.provenance == ("denoise", "fill_gaps", "remove_stops")

    def test_provenance_lists_stages_in_order(self, quiet_trip):
        out = clean(quiet_trip, CleaningConfig())
        assert out.provenance == ("denoise", "reorient", "fill_gaps", "remove_stops")

    def test_duration_identity(self):
        from conftest import stoppy_profile

        for seed in (3, 5):
            profile = stoppy_profile(seed)
            trip, _ = d.generate_trip(
                profile, 1800.0, 2.0, driver_id="x",
                missing_rate_per_hour=6.0, missing_duration_range=(3.0, 8.0),
            )
            out = clean(trip, CleaningConfig(denoise_window=1))
            period = 1.0 / trip.nominal_rate_hz
            input_duration = len(trip) * period
            identity = out.duration_seconds + out.removed_stop_seconds + out.removed_gap_seconds
            assert abs(input_duration - identity) <= period + 1e-9


class TestCleaningConfig:
    def test_even_denoise_window_rejected(self):
        with pytest.raises(ValueError):
            CleaningConfig(denoise_window=4)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            CleaningConfig(stop_threshold=0.0)

    def test_bad_aggregate_rejected(self):
        with pytest.raises(ValueError):
            CleaningConfig(stop_aggregate="median")
