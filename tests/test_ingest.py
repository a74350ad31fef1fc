import io

import numpy as np
import pytest

from driverid.ingest import (
    LOG_HEADER,
    Trip,
    parse_log,
    serialize_log,
    validate_trip,
    write_log,
    read_log,
)


def make_log(rows):
    return LOG_HEADER + "\n" + "\n".join(rows) + "\n"


class TestParseLog:
    def test_three_rows_at_half_second_spacing(self):
        log = make_log(
            ["0.0,0.1,0.2,9.8,0.01,0.02,0.03",
             "0.5,0.2,0.1,9.7,0.02,0.01,0.04",
             "1.0,0.3,0.0,9.9,0.00,0.03,0.02"]
        )
        trip = parse_log(log, "d1", 2.0)
        assert len(trip) == 3
        assert trip.nominal_rate_hz == 2.0
        assert trip.driver_id == "d1"
        assert np.allclose(trip.t, [0.0, 0.5, 1.0])

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty log"):
            parse_log("", "d1", 2.0)

    def test_header_only_rejected(self):
        with pytest.raises(ValueError, match="empty log"):
            parse_log(LOG_HEADER + "\n", "d1", 2.0)

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError, match="malformed header"):
            parse_log("time,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n", "d1", 2.0)

    def test_nan_channel_becomes_missing_others_parse(self):
        log = make_log(["0.0,NaN,0.2,9.8,0.01,0.02,0.03"])
        trip = parse_log(log, "d1", 2.0)
        assert np.isnan(trip.data[0, 0])
        assert trip.data[0, 1] == 0.2
        assert trip.data[0, 5] == 0.03

    def test_unparseable_channel_becomes_missing(self):
        log = make_log(["0.0,zzz,0.2,9.8,0.01,0.02,0.03"])
        trip = parse_log(log, "d1", 2.0)
        assert np.isnan(trip.data[0, 0])

    def test_unparseable_timestamp_drops_row_with_warning(self):
        log = make_log(
            ["0.0,1,2,3,4,5,6", "oops,1,2,3,4,5,6", "1.0,1,2,3,4,5,6"]
        )
        with pytest.warns(UserWarning, match="rejected 1 rows"):
            trip = parse_log(log, "d1", 2.0)
        assert len(trip) == 2

    def test_sample_count_is_rows_minus_rejected(self):
        rows = [f"{i * 0.5},1,2,3,4,5,6" for i in range(10)]
        rows.insert(4, "bad,1,2,3,4,5,6")
        rows.insert(7, "also bad,1,2,3,4,5,6")
        with pytest.warns(UserWarning):
            trip = parse_log(make_log(rows), "d1", 2.0)
        assert len(trip) == 10

    def test_non_monotonic_timestamp_names_line(self):
        log = make_log(["0.0,1,2,3,4,5,6", "0.5,1,2,3,4,5,6", "0.4,1,2,3,4,5,6"])
        with pytest.raises(ValueError, match="line 4"):
            parse_log(log, "d1", 2.0)

    def test_reads_bytes_and_file_objects(self):
        log = make_log(["0.0,1,2,3,4,5,6"])
        assert len(parse_log(log.encode(), "d1", 2.0)) == 1
        assert len(parse_log(io.StringIO(log), "d1", 2.0)) == 1


class TestRoundTrip:
    def test_parse_inverts_serialize(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.3, 0.7, size=50))
        data = rng.standard_normal((50, 6)) * rng.uniform(0.001, 100)
        data[rng.uniform(size=(50, 6)) < 0.1] = np.nan
        trip = Trip("abc", t, data, 2.0)
        assert parse_log(serialize_log(trip), "abc", 2.0) == trip

    def test_write_then_read_file(self, tmp_path, quiet_trip):
        path = tmp_path / "trip.csv"
        write_log(quiet_trip, path)
        assert read_log(path, "quiet", 2.0) == quiet_trip

    def test_serialization_is_deterministic(self, quiet_trip):
        assert serialize_log(quiet_trip) == serialize_log(quiet_trip)


class TestTripInvariants:
    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trip("d", np.array([0.0, 1.0, 1.0]), np.zeros((3, 6)), 2.0)

    def test_rejects_empty_driver_id(self):
        with pytest.raises(ValueError, match="driver_id"):
            Trip("", np.array([0.0]), np.zeros((1, 6)), 2.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            Trip("d", np.array([0.0]), np.zeros((1, 6)), 0.0)

    def test_arrays_are_read_only(self, quiet_trip):
        with pytest.raises(ValueError):
            quiet_trip.data[0, 0] = 1.0


class TestValidateTrip:
    def test_clean_uniform_trip(self, quiet_trip):
        report = validate_trip(quiet_trip)
        assert report.n_samples == len(quiet_trip)
        assert report.n_missing == 0
        assert report.n_gaps == 0

    def test_counts_one_missing_sample(self):
        data = np.ones((5, 6))
        data[2, 1] = np.nan
        trip = Trip("d", np.arange(5) / 2.0, data, 2.0)
        assert validate_trip(trip).n_missing == 1

    def test_counts_gap_longer_than_two_periods(self):
        # 10 samples at 2 Hz with one 3-second hole: exactly one interval > 1.0 s
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 5.5, 6.0, 6.5, 7.0])
        trip = Trip("d", t, np.ones((10, 6)), 2.0)
        report = validate_trip(trip)
        assert report.n_gaps == 1

    def test_never_mutates(self, quiet_trip):
        before = quiet_trip.data.copy()
        validate_trip(quiet_trip)
        assert np.array_equal(quiet_trip.data, before)
