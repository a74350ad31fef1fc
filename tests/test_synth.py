import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driverid as d
from driverid.preprocess import detect_stops, fill_gaps
from driverid.synth import DriverProfile, _add_events, generate_trip, make_profiles

from conftest import BENCH_HOURS
from oracles import synth_events_oracle


class TestMakeProfiles:
    def test_easy_spacing_rule(self):
        profiles = make_profiles(10, "easy", seed=3)
        assert len(profiles) == 10
        for i in range(10):
            for j in range(i + 1, 10):
                a, b = profiles[i], profiles[j]
                sigma = max(a.noise_sigma, b.noise_sigma)
                separated = [
                    abs(a.accel_aggressiveness - b.accel_aggressiveness) >= 3 * sigma,
                    abs(a.brake_harshness - b.brake_harshness) >= 3 * sigma,
                ]
                assert sum(separated) >= 2

    def test_same_seed_identical(self):
        assert make_profiles(6, "easy", 9) == make_profiles(6, "easy", 9)
        assert make_profiles(6, "hard", 9) == make_profiles(6, "hard", 9)

    def test_single_profile_rejected(self):
        with pytest.raises(ValueError):
            make_profiles(1, "easy", 0)

    def test_too_many_easy_profiles_rejected(self):
        with pytest.raises(ValueError, match="cannot space"):
            make_profiles(40, "easy", 0)

    def test_hard_profiles_overlap_ranges(self):
        profiles = make_profiles(8, "hard", 1)
        assert len({p.seed for p in profiles}) == 8


class TestGenerateTrip:
    def test_degenerate_profile_constant_channels(self):
        profile = DriverProfile(
            accel_aggressiveness=1.0,
            brake_harshness=1.0,
            turn_rate_scale=0.3,
            event_rate=0.0,
            noise_sigma=0.0,
            stop_frequency=0.0,
            ride_texture=0.0,
            seed=5,
        )
        trip, truth = generate_trip(profile, 120.0, 2.0, device_rotation=False)
        assert np.allclose(trip.data[:, 0:2], 0.0)
        assert np.allclose(trip.data[:, 2], 9.81)
        assert truth.stop_intervals == ()

    def test_sample_count_arithmetic(self):
        profile = make_profiles(2, "easy", 0)[0]
        trip, _ = generate_trip(profile, 3600.0, 2.0)
        assert len(trip) == 7200

    def test_determinism(self):
        profile = make_profiles(2, "easy", 4)[1]
        a, _ = generate_trip(profile, 600.0, 2.0)
        b, _ = generate_trip(profile, 600.0, 2.0)
        assert a == b

    def test_minimum_duration_enforced(self):
        profile = make_profiles(2, "easy", 0)[0]
        with pytest.raises(ValueError, match="60"):
            generate_trip(profile, 30.0, 2.0)

    def test_truth_stops_recovered_by_detection(self):
        from conftest import stoppy_profile

        found_any = False
        for seed in range(6):
            profile = stoppy_profile(seed)
            trip, truth = generate_trip(profile, 1800.0, 2.0, driver_id="x")
            detected = [(s.start_t, s.end_t) for s in detect_stops(trip, 0.5, 6.0)]
            for start, end in truth.stop_intervals:
                found_any = True
                assert any(
                    abs(a - start) <= 0.5 and abs(b - end) <= 0.5 for a, b in detected
                )
            # no detection entirely inside a driving region
            for a, b in detected:
                assert any(
                    a >= s - 0.5 and b <= e + 0.5 for s, e in truth.stop_intervals
                )
        assert found_any

    def test_gap_injection_recorded_and_fillable(self):
        profile = make_profiles(2, "easy", 8)[0]
        trip, truth = generate_trip(
            profile, 1200.0, 2.0, missing_rate_per_hour=20.0,
            missing_duration_range=(1.0, 4.0),
        )
        assert truth.gap_intervals
        assert np.isnan(trip.data).any()
        filled = fill_gaps(trip, max_gap_fill=10.0)
        assert not np.isnan(filled.data).any()

    def test_a_stop_with_no_room_is_left_out(self):
        # this profile draws a stop longer than a 72 s trip's room between its
        # 30 s edge margins; the stop is left out and the trip still made
        profile = make_profiles(12, "easy", 0)[2]
        trip, truth = generate_trip(profile, 72.0)
        assert len(trip) == 144 and truth.stop_intervals == ()

    def test_a_gap_with_no_room_is_left_out(self):
        # gaps of 40-60 s in a 60 s trip: a gap only fits below 50 s, inside
        # the 5 s edge margins (its end rounds to a sample, up to 55.5 s), and
        # the others are left out
        profile = make_profiles(2, "easy", 8)[0]
        trip, truth = generate_trip(
            profile, 60.0, 2.0, missing_rate_per_hour=600.0, missing_duration_range=(40.0, 60.0),
        )
        assert all(5.0 <= start < end <= 55.5 for start, end in truth.gap_intervals)
        missing = np.isnan(trip.data).any(axis=1)
        inside = np.zeros(len(trip), bool)
        for start, end in truth.gap_intervals:
            inside |= (trip.t >= start) & (trip.t < end)
        assert not (missing & ~inside).any()

    def test_device_rotation_recorded_and_orthogonal(self):
        profile = make_profiles(2, "easy", 2)[0]
        _, truth = generate_trip(profile, 300.0, 2.0)
        rot = truth.device_rotation
        assert rot is not None
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_truth_dict_serializable(self):
        import json

        profile = make_profiles(2, "easy", 2)[0]
        _, truth = generate_trip(profile, 300.0, 2.0)
        doc = json.dumps(truth.to_dict())
        assert "stop_intervals" in doc

    def test_truth_profile_keys_are_the_profile_fields_in_order(self):
        import dataclasses

        profile = make_profiles(2, "hard", 2)[1]
        _, truth = generate_trip(profile, 300.0, 2.0)
        names = [f.name for f in dataclasses.fields(DriverProfile)]
        assert list(truth.to_dict()["profile"]) == names


class TestEvents:
    @settings(max_examples=60, deadline=None)
    @given(
        separation=st.sampled_from(["easy", "hard"]),
        seed=st.integers(0, 40),
        index=st.integers(0, 11),
        duration_s=st.floats(60.0, 4 * 3600.0),
        rate_hz=st.floats(0.5, 20.0),
        zeroed=st.sampled_from([None, "event_rate", "event_duration_scale"]),
    )
    def test_events_match_the_oracle_bit_for_bit(self, separation, seed, index, duration_s, rate_hz, zeroed):
        # The events land on nonzero channels, so the order of every sum shows,
        # and the generator must end where the oracle's draws leave it.
        profile = make_profiles(12, separation, seed)[index]
        if zeroed:
            profile = dataclasses.replace(profile, **{zeroed: 0.0})
        n = int(round(duration_s * rate_hz))
        t = np.arange(n) / rate_hz
        data = np.random.default_rng(seed).standard_normal((n, 6))
        expected = data.copy()
        rng, twin = np.random.default_rng(profile.seed), np.random.default_rng(profile.seed)
        _add_events(data, t, profile, rng, rate_hz)
        synth_events_oracle(expected, t, profile, twin, rate_hz)
        assert data.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


class TestGoldenCorpus:
    def test_trips_match_the_golden_digest(self, easy_profiles):
        """The conftest easy corpus before cleaning, a trip with gaps and one
        without a device rotation come out as when the digest was taken."""
        made = [
            generate_trip(profile, BENCH_HOURS * 3600.0, 2.0, driver_id=f"driver{i + 1:02d}")
            for i, profile in enumerate(easy_profiles)
        ]
        made.append(generate_trip(easy_profiles[0], 3600.0, 5.0, missing_rate_per_hour=8.0))
        made.append(generate_trip(make_profiles(4, "hard", 3)[1], 1800.0, 10.0, device_rotation=False))
        assert made[-2][1].gap_intervals and made[-1][1].device_rotation is None
        digest = hashlib.sha256()
        for trip, truth in made:
            for a in (trip.t, trip.data):
                digest.update(f"{a.dtype.str} {a.shape}".encode())
                digest.update(np.ascontiguousarray(a).tobytes())
            digest.update(json.dumps(truth.to_dict(), indent=1).encode())
        assert digest.hexdigest() == GOLDEN_CORPUS_SHA256


class TestEndToEndSeparability:
    def test_small_corpus_beats_chance_widely(self):
        from driverid.features import FeatureConfig
        from driverid.pipeline import build_datasets, train_model
        from driverid.evaluation import evaluate, separability_achieved
        from driverid.segment import SegmentationConfig

        profiles = make_profiles(5, "easy", 17)
        trips = []
        for i, p in enumerate(profiles):
            trip, _ = generate_trip(p, 3000.0, 2.0, driver_id=f"drv{i}")
            trips.append(d.clean(trip))
        seg = SegmentationConfig(window_minutes=5, overlap_fraction=0.5, train_fraction=0.7)
        cfg = FeatureConfig(families=("mean", "variance", "correlation"))
        bundle = build_datasets(trips, seg, cfg)
        model = train_model("rforest", bundle.train, seed=1)
        report = evaluate(model, bundle.test)
        assert separability_achieved(report.accuracy, 5)


# sha256 of TestGoldenCorpus's trips (each t and data array's dtype, shape and
# bytes, then the truth JSON as `driverid synth` writes it)
GOLDEN_CORPUS_SHA256 = "8f24611b65486ab23028515b9834beabb91b99be9c1b28b600cc1c423795e429"
