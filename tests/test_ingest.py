import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driverid import ingest
from driverid.ingest import (
    LOG_CHUNK_ROWS,
    LOG_HEADER,
    Trip,
    parse_log,
    serialize_log,
    validate_trip,
    write_log,
    read_log,
)
from driverid.features import Standardizer
from driverid.models import LabeledDataset
from driverid.preprocess import CleanTrip, StopInterval
from driverid.segment import WindowBatch
from driverid.synth import generate_trip, make_profiles
from oracles import parse_log_oracle


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

    @pytest.mark.parametrize("stamp", ["inf", "Infinity", "nan"])
    def test_non_finite_last_timestamp_drops_row_with_warning(self, stamp):
        log = make_log(["0.0,1,2,3,4,5,6", f"{stamp},1,2,3,4,5,6"])
        with pytest.warns(UserWarning, match="rejected 1 rows"):
            trip = parse_log(log, "d1", 2.0)
        assert len(trip) == 1

    def test_six_and_eight_field_rows_rejected_when_fields_add_up(self):
        # 6 + 8 + 7 fields would fill three 7-field rows with increasing timestamps
        log = make_log(["0.0,1,2,3,4,5", "5.0,6,7,8,9,10,11,12", "20.0,1,2,3,4,5,6"])
        with pytest.warns(UserWarning, match="rejected 2 rows"):
            trip = parse_log(log, "d1", 2.0)
        assert trip.t.tolist() == [20.0]

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

    def test_negative_first_timestamp_names_line(self):
        log = make_log(["-0.5,1,2,3,4,5,6", "0.0,1,2,3,4,5,6"])
        with pytest.raises(ValueError, match="negative timestamp at line 2"):
            parse_log(log, "d1", 2.0)


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

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.integers(0, 3),
        extra_rows=st.integers(-2, 2),
        boundary=st.integers(1, 3),
        nan_from=st.integers(-4, 1),
        nan_rows=st.integers(0, 6),
        channel=st.integers(0, 5),
    )
    def test_written_bytes_are_serialize_log(self, chunks, extra_rows, boundary, nan_from, nan_rows, channel):
        """Lengths around multiples of LOG_CHUNK_ROWS, with a run of NaN at or across a chunk boundary."""
        n = max(chunks * LOG_CHUNK_ROWS + extra_rows, 0)
        data = np.random.default_rng(n).standard_normal((n, 6))
        start = boundary * LOG_CHUNK_ROWS + nan_from
        data[start : start + nan_rows, channel] = np.nan
        trip = Trip("d", np.arange(n) / 2.0, data, 2.0)
        with tempfile.TemporaryDirectory() as tmp:
            write_log(trip, Path(tmp) / "d.csv")
            assert (Path(tmp) / "d.csv").read_bytes() == serialize_log(trip).encode()

    def test_serialization_is_deterministic(self, quiet_trip):
        assert serialize_log(quiet_trip) == serialize_log(quiet_trip)

    def test_clean_log_converts_in_one_cast(self, monkeypatch):
        """Every field of a written log parses, NaN included, so the per-field conversion never runs."""
        trip, _ = generate_trip(make_profiles(2)[0], 1200.0, 2.0, driver_id="d", missing_rate_per_hour=20.0)
        assert np.isnan(trip.data).any()

        def per_field(field):
            raise AssertionError(f"converted {field!r} one field at a time")

        monkeypatch.setattr(ingest, "_float_or_nan", per_field)
        assert parse_log(serialize_log(trip), "d", 2.0) == trip


# Field texts that float() reads besides repr of a float (odd spellings and
# non-finite values), and some it rejects.
ODD_FIELDS = ("NaN", "nan", "inf", "-Infinity", "1_0", "1e-400", " 1.5 ", "\u0663.5", "-0.0")
BAD_FIELDS = ("zzz", "", "0x10", "1.5.2")
MALFORMED_ROWS = (
    "six_fields", "eight_fields", "blank", "bad_timestamp", "bad_channel",
    "duplicate_timestamp", "decreasing_timestamp", "negative_timestamp",
)


@st.composite
def trips(draw):
    """Trips with finite, nonnegative, strictly increasing timestamps and
    finite or NaN channel values."""
    times = draw(st.sets(st.floats(0.0, 1e12), min_size=1, max_size=30))
    t = np.array(sorted(times))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.nan))
    data = np.array(draw(st.lists(values, min_size=6 * t.size, max_size=6 * t.size)))
    return Trip("h", t, data.reshape(t.size, 6), 2.0)


@st.composite
def log_texts(draw):
    """Logs whose body mixes clean rows with malformed ones of any kinds. A
    duplicate or decreasing stamp is drawn against the last kept row, not
    the row just before it, so it stays an ordering error after dropped rows."""
    fields = st.one_of(st.floats(allow_nan=False).map(repr), st.sampled_from(ODD_FIELDS))
    kinds = ("good",) * 8 + tuple(draw(st.sets(st.sampled_from(MALFORMED_ROWS))))
    lines = [LOG_HEADER]
    kept = t = 0.0
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=25)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        t += draw(st.sampled_from([0.5, 0.25, 3.0, 1e-3]))
        stamp = {
            "bad_timestamp": draw(st.sampled_from(["oops", "inf", "nan", "-Infinity", ""])),
            "duplicate_timestamp": repr(kept),
            "decreasing_timestamp": repr(kept - draw(st.sampled_from([0.25, 1e-3]))),
            "negative_timestamp": repr(-t),
        }.get(kind, repr(t))
        if kind in ("good", "bad_channel"):
            kept = t
        width = {"six_fields": 5, "eight_fields": 7}.get(kind, 6)
        values = draw(st.lists(fields, min_size=width, max_size=width))
        if kind == "bad_channel":
            values[draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_FIELDS))
        row = ",".join([stamp, *values])
        lines.append(draw(st.sampled_from(["", " "])) + row + draw(st.sampled_from(["", "  "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


def outcome(parse):
    """(result or error text, warning texts) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse()
        except ValueError as err:
            result = f"error: {err}"
    return result, [str(w.message) for w in caught]


class TestParseLogProperties:
    @settings(max_examples=200, deadline=None)
    @given(trips())
    def test_parse_inverts_serialize(self, trip):
        assert parse_log(serialize_log(trip), "h", 2.0) == trip

    @settings(max_examples=100, deadline=None)
    @given(
        trips(),
        st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 5), st.sampled_from([np.inf, -np.inf])), min_size=1
        ),
    )
    def test_serialize_writes_repr_or_nan_per_value(self, trip, infinities):
        rows = [
            ",".join(repr(float(v)) if math.isfinite(v) else "NaN" for v in (t, *values))
            for t, values in zip(trip.t, trip.data)
        ]
        assert serialize_log(trip) == "\n".join([LOG_HEADER, *rows]) + "\n"
        data = trip.data.copy()
        for row, col, value in infinities:
            data[row % len(trip), col] = value
        with pytest.raises(ValueError, match="finite or NaN"):
            Trip("h", trip.t, data, 2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        trips(),
        st.lists(
            st.tuples(st.integers(0, 29), st.integers(-1, 5), st.sampled_from([np.inf, -np.inf, np.nan]))
        ),
    )
    def test_every_trip_accepted_round_trips(self, trip, plants):
        t, data = trip.t.copy(), trip.data.copy()
        for row, col, value in plants:  # column -1 plants into the timestamps
            if col < 0:
                t[row % len(t)] = value
            else:
                data[row % len(t), col] = value
        try:
            planted = Trip("h", t, data, 2.0)
        except ValueError:
            assert not np.isfinite(t).all() or np.isinf(data).any()
            return
        assert parse_log(serialize_log(planted), "h", 2.0) == planted

    @settings(max_examples=400, deadline=None)
    @given(log_texts())
    # an ordering error after a dropped 6-field row: line 4, not the third nonblank line
    @example(make_log(["0.0,1,2,3,4,5", "1.0,1,2,3,4,5,6", "0.5,1,2,3,4,5,6"]))
    def test_agrees_with_line_oracle(self, text):
        got, got_warnings = outcome(lambda: parse_log(text, "h", 2.0))
        want, want_warnings = outcome(lambda: parse_log_oracle(text, LOG_HEADER))
        assert got_warnings == want_warnings
        if isinstance(want, str):
            assert got == want
            return
        ts, rows = want
        assert np.array_equal(got.t, np.array(ts))
        assert np.array_equal(got.data, np.array(rows).reshape(-1, 6), equal_nan=True)


class TestTripInvariants:
    """The checks every Trip makes; TestCleanTripInvariants runs them on CleanTrip."""

    trip_type = Trip

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            self.trip_type("d", np.array([0.0, 1.0, 1.0]), np.zeros((3, 6)), 2.0)

    @pytest.mark.parametrize(
        "stamp, value, message",
        [
            (np.inf, 0.0, "timestamps must be finite"),
            (np.nan, 0.0, "timestamps must be finite"),
            (1.0, np.inf, "finite or NaN"),
            (1.0, -np.inf, "finite or NaN"),
        ],
    )
    def test_rejects_non_finite_timestamps_and_infinite_values(self, stamp, value, message):
        data = np.zeros((2, 6))
        data[1, 3] = value
        with pytest.raises(ValueError, match=message):
            self.trip_type("d", np.array([0.0, stamp]), data, 2.0)

    def test_rejects_empty_driver_id(self):
        with pytest.raises(ValueError, match="driver_id"):
            self.trip_type("", np.array([0.0]), np.zeros((1, 6)), 2.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            self.trip_type("d", np.array([0.0]), np.zeros((1, 6)), 0.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="nominal_rate_hz must be finite"):
            self.trip_type("d", np.array([0.0]), np.zeros((1, 6)), rate)

    def test_rejects_timestamps_and_rows_of_different_lengths(self):
        with pytest.raises(ValueError, match="expected t"):
            self.trip_type("d", np.arange(10) / 2.0, np.zeros((7, 6)), 2.0)

    def test_arrays_are_read_only(self):
        trip = self.trip_type("d", np.arange(3) / 2.0, np.zeros((3, 6)), 2.0)
        with pytest.raises(ValueError):
            trip.data[0, 0] = 1.0


@pytest.mark.parametrize(
    "build, shape, attr",
    [
        (lambda a: Trip("d", np.arange(3) / 2.0, a, 2.0), (3, 6), "data"),
        (lambda a: WindowBatch("d", "train", np.zeros(1), np.ones(1), a), (1, 6, 2), "channels"),
        (lambda a: Standardizer(a, np.ones(3)), (3,), "mean"),
        (lambda a: LabeledDataset(a, np.array([0, 1]), ("a", "b")), (2, 3), "features"),
        (lambda a: LabeledDataset(np.zeros((2, 3)), a, ("a", "b")), (2,), "label_indices"),
    ],
)
def test_freezes_a_view_not_the_callers_array(build, shape, attr):
    array = np.zeros(shape, dtype=np.int64 if attr == "label_indices" else np.float64)
    held = getattr(build(array), attr)
    assert not held.flags.writeable and np.shares_memory(held, array)
    array[...] = 1.0  # the caller's array stays writable
    assert (held == 1.0).all()


class TestCleanTripInvariants(TestTripInvariants):
    trip_type = CleanTrip

    def test_never_equals_the_other_trip_type(self):
        t, data = np.arange(3) / 2.0, np.zeros((3, 6))
        trip, cleaned = Trip("d", t, data, 2.0), CleanTrip("d", t, data, 2.0)
        assert trip == Trip("d", t, data, 2.0) and cleaned == CleanTrip("d", t, data, 2.0)
        assert trip != cleaned and cleaned != trip

    def test_rejects_missing_channels(self):
        data = np.zeros((2, 6))
        data[1, 4] = np.nan
        with pytest.raises(ValueError, match="missing channels"):
            CleanTrip("d", np.array([0.0, 0.5]), data, 2.0)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="no movement data"):
            CleanTrip("d", np.zeros(0), np.zeros((0, 6)), 2.0)

    @pytest.mark.parametrize(
        "record, error, message",
        [
            ({"removed_stop_seconds": -5.0, "stop_intervals": ((1, 2),)}, TypeError, "removed_stop_seconds"),
            ({"break_after": np.zeros(2, dtype=bool)}, TypeError, "break_after"),
            ({"stop_intervals": ((1, 2),)}, ValueError, "StopInterval objects"),
            ({"stop_intervals": (StopInterval(2.0, 3.0), StopInterval(0.1, 0.2))}, ValueError, "sorted"),
            ({"stop_intervals": (StopInterval(1.2, 1.2),)}, ValueError, "positive duration"),
            ({"stop_intervals": (StopInterval(0.1, 0.6),)}, ValueError, "holds a sample"),
            ({"stop_intervals": (StopInterval(-3.0, 1e-9),)}, ValueError, "holds a sample"),
            ({"removed_gap_seconds": -1.0}, ValueError, "removed_gap_seconds"),
            ({"removed_gap_seconds": np.nan}, ValueError, "removed_gap_seconds"),
            ({"stop_intervals": (StopInterval(-np.inf, -1.0),)}, ValueError, "finite"),
            ({"removed_gap_seconds": np.inf}, ValueError, "removed_gap_seconds"),
        ],
    )
    def test_rejects_a_bad_cleaning_record(self, record, error, message):
        """Derived values are not inputs, and the record is checked when the trip is built."""
        with pytest.raises(error, match=message):
            CleanTrip("d", np.arange(3) / 2.0, np.zeros((3, 6)), 2.0, **record)

    def test_break_flags_derive_from_timestamps_and_stops(self):
        t = np.array([0.0, 0.5, 1.0, 2.5, 3.0, 3.5])  # a 1.5 s sampling hole after sample 2
        stops = (StopInterval(-2.0, -1.0), StopInterval(3.1, 3.4), StopInterval(4.0, 9.0))
        trip = CleanTrip("d", t, np.zeros((6, 6)), 2.0, stop_intervals=stops)
        # stops before the first and after the last sample break nothing
        assert trip.break_after.tolist() == [False, False, True, False, True]
        assert trip.removed_stop_seconds == float(sum(s.duration for s in stops))
        assert trip.sidecar()["stop_intervals"] == [[-2.0, -1.0], [3.1, 3.4], [4.0, 9.0]]


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
