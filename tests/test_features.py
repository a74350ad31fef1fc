import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driverid.features import (
    CHUNK_SAMPLES,
    STD_FLOOR,
    FeatureBlock,
    FeatureConfig,
    Standardizer,
    apply_standardizer,
    extract_sequence,
    feature_schema,
    fit_standardizer,
    schema_labels,
    standardize_in_place,
    trim_quantiles,
    trimmed_histogram,
    trimmed_histograms,
)
from driverid.cli import main
from driverid.config import RunConfig, write_manifest
from driverid.ingest import serialize_log, write_log
from driverid.models import LabeledDataset, load_model, save_model
from driverid.pipeline import build_datasets, train_model
from driverid.preprocess import write_clean
from driverid.segment import TRAIN, SegmentationConfig, WindowBatch, segment_trip
from driverid.synth import generate_trip

from conftest import labeled, window_batch
from oracles import corr_oracle, histogram_oracle, mean_var_oracle


WORKLOAD_WIDTHS = sorted({2**k + d for k in range(1, 12) for d in (-1, 0, 1)} - {1} | {600, 1200, 1800})


def expected_histogram(signal, bins, keep):
    """`histogram_oracle`'s row, or the refusal a trimmed histogram of `signal` must raise:
    "too narrow" when the bin edges do not increase, "no sample" when the oracle's trimmed
    range is empty."""
    tail = (1.0 - keep) / 2.0
    lo, hi = np.quantile(signal, [tail, 1.0 - tail])
    if lo != hi and (np.diff(np.linspace(lo, hi, bins + 1)) <= 0).any():
        return "too narrow"
    try:
        return histogram_oracle(signal, bins, keep)
    except ZeroDivisionError:
        return "no sample"


def random_channels(rng, n=64):
    return rng.standard_normal((6, n)) * rng.uniform(0.5, 4.0)


def family_rows(family, *channels, **cfg):
    """One feature family's rows for a batch of the given windows."""
    config = FeatureConfig(families=(family,), **cfg)
    return extract_sequence(window_batch(*channels), config).values


def family_row(family, channels, **cfg):
    """One feature family of a single window, featurized alone."""
    return family_rows(family, channels, **cfg)[0]


class TestTrimmedHistogram:
    def test_constant_signal_one_hot(self):
        out = trimmed_histogram(np.full(50, 2.5), 100, 0.95)
        assert out[0] == 1.0
        assert out[1:].sum() == 0.0

    def test_uniform_grid_flat_histogram(self):
        out = trimmed_histogram(np.linspace(0, 1, 1000), 100, 1.0)
        assert np.allclose(out, 0.01, atol=0.002)

    def test_matches_counting_oracle_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(20, 400))
            signal = rng.standard_normal(n) * rng.uniform(0.1, 10)
            bins = int(rng.integers(2, 120))
            keep = float(rng.choice([0.5, 0.9, 0.95, 1.0]))
            ours = trimmed_histogram(signal, bins, keep)
            oracle = histogram_oracle(signal, bins, keep)
            assert np.array_equal(ours, oracle), f"n={n} bins={bins} keep={keep}"

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = trimmed_histogram(rng.standard_normal(200), 100, 0.95)
            assert abs(out.sum() - 1.0) < 1e-9
            assert (out >= 0).all()

    def test_trim_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(10, 500))
            signal = rng.standard_normal(n)
            keep = 0.95
            tail = (1 - keep) / 2
            q_lo, q_hi = np.quantile(signal, [tail, 1 - tail])
            outside = ((signal < q_lo) | (signal > q_hi)).sum()
            assert outside <= np.ceil((1 - keep) * n) + 1

    def test_shift_leaves_bin_occupancy_unchanged(self):
        rng = np.random.default_rng(8)
        signal = rng.standard_normal(300)
        a = trimmed_histogram(signal, 50, 0.95)
        b = trimmed_histogram(signal + 123.45, 50, 0.95)
        assert np.allclose(a, b, atol=1e-12)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            trimmed_histogram(np.array([1.0]), 10, 0.95)

    @pytest.mark.parametrize(
        "signal, keep", [([0.0, 1.0], 0.95), ([0.0, 1.0, 2.0, 3.0], 0.01)], ids=["2-at-0.95", "4-at-0.01"]
    )
    def test_empty_trimmed_range_rejected(self, signal, keep):
        # no sample lies between the two quantiles, so there is nothing to normalize
        with pytest.raises(ValueError, match=rf"{len(signal)}-sample .* trim_keep_fraction {keep}$"):
            trimmed_histogram(np.array(signal), 10, keep)


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_extract_matches_oracle_bit_for_bit(self, data):
        # values on a quarter grid, so samples sit exactly on quantiles and bin edges
        n, w = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 50))
        bins, keep = data.draw(st.integers(1, 120)), data.draw(st.sampled_from([0.5, 0.9, 0.95, 1.0]))
        channels = data.draw(arrays(np.int8, (n * 6, w), elements=st.integers(-8, 8), fill=st.nothing())) / 4
        for row in data.draw(st.sets(st.integers(0, n * 6 - 1))):
            channels[row] = channels[row, 0]  # constant rows mixed into the batch
        channels = channels.reshape(n, 6, w)
        cfg = FeatureConfig(families=("histogram",), histogram_bins=bins, trim_keep_fraction=keep)
        try:
            rows = extract_sequence(window_batch(*channels), cfg).values.reshape(n, 6, bins)
        except ValueError as err:
            assert "no sample" in str(err)
            with pytest.raises(ZeroDivisionError):  # the oracle's empty trimmed range
                for window in channels:
                    for signal in window:
                        histogram_oracle(signal, bins, keep)
            return
        for i in range(n):
            for c in range(6):
                assert rows[i, c].tolist() == histogram_oracle(channels[i, c], bins, keep)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_oracle_at_workload_widths(self, data):
        # Widths up to the workloads' 1,800 samples and past them, the powers of two and
        # their neighbours included. Values tie on edges and quantiles (quarter grid), or
        # span a few ULPs of 1e6, so the range is just too narrow for `bins` or just wide enough.
        m = data.draw(st.integers(1, 3))
        w = data.draw(st.sampled_from(WORKLOAD_WIDTHS) | st.integers(2, 2049))
        bins, keep = data.draw(st.integers(1, 120)), data.draw(st.sampled_from([0.5, 0.9, 0.95, 1.0]))
        values = data.draw(st.sampled_from(["quarter grid", "magnitudes", "near degenerate"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if values == "quarter grid":
            x = rng.integers(-8, 9, (m, w)) / 4
        elif values == "magnitudes":
            x = rng.standard_normal((m, w)) * 10.0 ** rng.uniform(-3, 6, (m, w))
        else:
            spread = data.draw(st.integers(1, 400))
            x = 1e6 + rng.integers(0, spread + 1, (m, w)) * np.spacing(1e6)
        for row in data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
            x[row] = x[row, 0]  # constant rows mixed into the batch
        expected = [expected_histogram(row, bins, keep) for row in x]
        refusals = [e for e in expected if isinstance(e, str)]
        try:
            out = trimmed_histograms(x, bins, keep)
        except ValueError as err:
            assert refusals  # and the narrow-range check runs first, over every row
            assert ("too narrow" if "too narrow" in refusals else "no sample") in str(err)
            return
        assert not refusals
        assert out.tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_trim_quantiles_equal_np_quantile_bit_for_bit(self, data):
        m, w = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 700))
        keep = data.draw(st.sampled_from([0.01, 0.5, 0.9, 0.95, 1.0]) | st.floats(0.0, 1.0, exclude_min=True))
        values = data.draw(st.sampled_from(["quarter grid", "floats", "magnitudes"]))
        if values == "quarter grid":  # order statistics tie
            x = data.draw(arrays(np.int8, (m, w), elements=st.integers(-8, 8))) / 4
        elif values == "floats":
            x = data.draw(arrays(np.float64, (m, w), elements=st.floats(-1e6, 1e6)))
        else:  # neighbours of unlike magnitude, so their difference rounds
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = rng.standard_normal((m, w)) * 10.0 ** rng.uniform(-3, 6, (m, w))
        if data.draw(st.booleans()):
            x = x + 1e6
        tail = (1.0 - keep) / 2.0
        lo, hi = trim_quantiles(np.sort(x, axis=-1), keep)
        assert lo.shape == hi.shape == (m, 1)
        expected = np.quantile(x, [tail, 1.0 - tail], axis=-1)
        assert np.stack([lo[:, 0], hi[:, 0]]).tobytes() == expected.tobytes()

    def test_trim_quantiles_equal_np_quantile_at_every_short_width(self):
        # every position fraction a short window gives, 0.5 included
        rng = np.random.default_rng(17)
        for w in range(2, 80):
            x = rng.standard_normal((40, w)) * 10.0 ** rng.uniform(-3, 6, (40, w))
            for keep in (0.01, 0.5, 0.9, 0.95, 1.0):
                tail = (1.0 - keep) / 2.0
                lo, hi = trim_quantiles(np.sort(x, axis=-1), keep)
                expected = np.quantile(x, [tail, 1.0 - tail], axis=-1)
                assert np.stack([lo[:, 0], hi[:, 0]]).tobytes() == expected.tobytes(), (w, keep)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, value):
        signal = np.arange(600.0)
        signal[3] = value  # trimmed away at keep 0.95, yet still rejected
        with pytest.raises(ValueError, match="non-finite"):
            trimmed_histogram(signal, 100, 0.95)
        with pytest.raises(ValueError, match="non-finite"):
            extract_sequence(window_batch(np.tile(signal, (6, 1))), FeatureConfig())


class TestMeanVariance:
    def test_constant_channel(self):
        w = np.full((6, 10), 4.0)
        assert np.allclose(family_row("mean", w), 4.0)
        assert np.allclose(family_row("variance", w), 0.0)

    def test_two_point_hand_case(self):
        channels = np.tile([1.0, 3.0], (6, 1))
        assert np.allclose(family_row("mean", channels), 2.0)
        assert np.allclose(family_row("variance", channels), 1.0)  # population variance

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            w = random_channels(rng, n=int(rng.integers(8, 200)))
            means = family_row("mean", w)
            variances = family_row("variance", w)
            for c in range(6):
                m, v = mean_var_oracle(list(w[c]))
                assert means[c] == pytest.approx(m, rel=1e-12, abs=1e-12)
                assert variances[c] == pytest.approx(v, rel=1e-12, abs=1e-12)


class TestDifference:
    def test_first_window_is_zero(self):
        rng = np.random.default_rng(2)
        w = random_channels(rng)
        assert np.array_equal(family_row("difference", w), np.zeros(6))

    def test_unit_shift_hand_case(self):
        prev = np.tile(np.arange(6, dtype=float)[:, None], (1, 4))
        cur = np.tile(np.arange(1, 7, dtype=float)[:, None], (1, 4))
        assert np.allclose(family_rows("difference", prev, cur)[1], 1.0)

    def test_matches_mean_delta_oracle_over_sequence(self):
        rng = np.random.default_rng(31)
        windows = [random_channels(rng, 40) for _ in range(6)]
        cfg = FeatureConfig()
        block = extract_sequence(window_batch(*windows), cfg)
        schema = feature_schema(cfg)
        diff_cols = [i for i, s in enumerate(schema) if s[0] == "difference"]
        for k in range(1, len(windows)):
            expected = [
                (sum(windows[k][c]) / windows[k].shape[1])
                - (sum(windows[k - 1][c]) / windows[k - 1].shape[1])
                for c in range(6)
            ]
            assert np.allclose(block.values[k, diff_cols], expected, atol=1e-12)

    def test_sum_mode(self):
        prev = np.full((6, 4), 1.0)
        cur = np.full((6, 4), 2.0)
        out = family_rows("difference", prev, cur, difference_uses_sum=True)[1]
        assert np.allclose(out, 2.0 * 4 - 1.0)


class TestCorrelation:
    def test_identical_channels_give_one(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(50)
        channels = np.vstack([base, base, rng.standard_normal((4, 50))])
        out = family_row("correlation", channels)
        assert out[0] == pytest.approx(1.0)

    def test_negated_channel_gives_minus_one(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(50)
        channels = np.vstack([base, -base, rng.standard_normal((4, 50))])
        out = family_row("correlation", channels)
        assert out[0] == pytest.approx(-1.0)

    def test_zero_variance_channel_yields_zero(self):
        rng = np.random.default_rng(6)
        channels = rng.standard_normal((6, 40))
        channels[3] = 7.0
        out = family_row("correlation", channels)
        schema_pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for k, (i, j) in enumerate(schema_pairs):
            if i == 3 or j == 3:
                assert out[k] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_direct_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        w = random_channels(rng, n=data.draw(st.integers(2, 120)))
        for c in data.draw(st.sets(st.integers(0, 5))):
            w[c] = data.draw(st.integers(-8, 8)) / 4  # zero variance: a quarter-grid mean is exact
        ours = family_row("correlation", w)
        k = 0
        for i in range(6):
            for j in range(i + 1, 6):
                expected = corr_oracle(list(w[i]), list(w[j]))
                assert ours[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)
                k += 1

    def test_reconstructed_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(51)
        vals = family_row("correlation", random_channels(rng))
        mat = np.eye(6)
        k = 0
        for i in range(6):
            for j in range(i + 1, 6):
                mat[i, j] = mat[j, i] = vals[k]
                k += 1
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 1.0)
        assert (np.abs(vals) <= 1.0).all()


class TestExtract:
    def test_full_dimension_is_633(self):
        cfg = FeatureConfig()
        assert cfg.dimension() == 633
        rng = np.random.default_rng(61)
        block = extract_sequence(window_batch(random_channels(rng)), cfg)
        assert block.values.shape == (1, 633)

    def test_empty_batch_gives_empty_block(self):
        empty = WindowBatch("d", "train", np.empty(0), np.empty(0), np.empty((0, 6, 8)))
        block = extract_sequence(empty, FeatureConfig())
        assert block.values.shape == (0, 633)

    def test_histogram_only_is_600(self):
        cfg = FeatureConfig(families=("histogram",))
        assert cfg.dimension() == 600

    def test_mean_plus_correlation_is_21(self):
        cfg = FeatureConfig(families=("mean", "correlation"))
        assert cfg.dimension() == 21

    def test_schema_deterministic(self):
        cfg = FeatureConfig(histogram_bins=10)
        assert feature_schema(cfg) == feature_schema(FeatureConfig(histogram_bins=10))

    def test_schema_family_order_fixed(self):
        cfg = FeatureConfig(histogram_bins=2)
        families = [entry[0] for entry in feature_schema(cfg)]
        seen = list(dict.fromkeys(families))
        assert seen == ["histogram", "mean", "variance", "difference", "correlation"]

    def test_shift_invariance_of_variance_correlation_histogram(self):
        rng = np.random.default_rng(71)
        w = random_channels(rng)
        cfg = FeatureConfig(families=("histogram", "variance", "correlation"))
        a = extract_sequence(window_batch(w), cfg)
        b = extract_sequence(window_batch(w + 55.0), cfg)
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_at_least_one_family_required(self):
        with pytest.raises(ValueError):
            FeatureConfig(families=())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FeatureConfig(families=("histogram", "wavelet"))

    def test_labels_match_schema_length(self):
        cfg = FeatureConfig()
        assert len(schema_labels(feature_schema(cfg))) == 633

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        w=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        constant=st.sets(st.integers(0, 5)),
        use_sum=st.booleans(),
    )
    def test_batch_rows_equal_windows_featurized_alone(self, n, w, seed, constant, use_sum):
        rng = np.random.default_rng(seed)
        channels = rng.standard_normal((n, 6, w)) * rng.uniform(0.01, 20.0, size=(1, 6, 1))
        channels[:, sorted(constant)] = 3.0
        cfg = FeatureConfig(difference_uses_sum=use_sum)

        def featurize(*windows):
            try:
                return extract_sequence(window_batch(*windows), cfg).values, None
            except ValueError as err:  # an empty trimmed range, e.g. at w = 2
                return None, str(err)

        rows, error = featurize(*channels)
        alone = [featurize(channels[i].copy()) for i in range(n)]
        if error is not None:  # the first window that fails alone fails the batch the same way
            assert error == next(err for _, err in alone if err is not None)
            return
        columns = [i for i, entry in enumerate(feature_schema(cfg)) if entry[0] != "difference"]
        for i, (values, err) in enumerate(alone):
            assert err is None
            assert np.array_equal(rows[i, columns], values[0, columns])  # bit for bit


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rows_across_chunk_boundaries_equal_windows_featurized_alone(self, data):
        # long windows, so a batch of a few windows spans up to 2 chunks + 1 window
        w = data.draw(st.integers(CHUNK_SAMPLES // 120, CHUNK_SAMPLES // 6 + 60), label="w")
        per_chunk = max(1, CHUNK_SAMPLES // (6 * w))
        n = data.draw(st.integers(1, 2 * per_chunk + 1), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        channels = rng.standard_normal((n, 6, w)) * rng.uniform(0.01, 20.0, size=(1, 6, 1))
        if data.draw(st.booleans(), label="quarter grid"):
            channels = np.round(channels * 4) / 4
        channels[:, sorted(data.draw(st.sets(st.integers(0, 5)), label="constant"))] = 3.0
        cfg = FeatureConfig(difference_uses_sum=data.draw(st.booleans(), label="use_sum"))
        rows = extract_sequence(window_batch(*channels), cfg).values
        schema = feature_schema(cfg)
        diff = [i for i, entry in enumerate(schema) if entry[0] == "difference"]
        others = [i for i, entry in enumerate(schema) if entry[0] != "difference"]
        for i in range(n):
            alone = extract_sequence(window_batch(channels[i].copy()), cfg).values[0]
            assert np.array_equal(rows[i, others], alone[others])  # bit for bit
        assert (rows[0, diff] == 0.0).all()
        for i in range(1, n):
            for c in range(6):
                level = channels[i, c].sum() if cfg.difference_uses_sum else channels[i, c].mean()
                previous, _ = mean_var_oracle(channels[i - 1, c].tolist())
                assert abs(rows[i, diff[c]] - (level - previous)) <= 1e-9 * (abs(level) + abs(previous))

    def test_featurizing_allocates_less_than_the_batch(self):
        rng = np.random.default_rng(9)
        batch = window_batch(*rng.standard_normal((300, 6, 600)))
        _, peak = traced_peak(lambda: extract_sequence(batch, FeatureConfig()))
        assert peak < batch.channels.nbytes  # no temporary the size of the batch


def traced_peak(fn):
    """(fn(), the most bytes tracemalloc saw allocated at once while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestPeakMemory:
    @pytest.fixture(scope="class")
    def knn_model(self):
        rng = np.random.default_rng(10)
        labels = np.array([f"d{i % 5}" for i in range(2000)], dtype=object)
        data = labeled(rng.standard_normal((2000, 633)), labels)
        return train_model("knn", data, {"k": 5})

    def test_a_labeled_dataset_checks_its_rows_without_a_temporary(self):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((3000, 633))
        labels, classes = np.arange(3000) % 10, tuple(f"d{i}" for i in range(10))
        _, peak = traced_peak(lambda: LabeledDataset(features, labels, classes))
        assert peak < features.nbytes / 16  # a bool per value would be features.nbytes / 8

    def test_saving_a_knn_model_holds_no_copy_of_its_rows(self, knn_model, tmp_path):
        _, peak = traced_peak(lambda: save_model(knn_model, tmp_path / "model.json"))
        assert peak < knn_model.params.train_x.nbytes / 8

    def test_loading_a_knn_model_holds_about_one_copy_of_the_arrays(self, knn_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(knn_model, path)
        loaded, peak = traced_peak(lambda: load_model(path))
        assert np.array_equal(loaded.params.train_x, knn_model.params.train_x)
        arrays = knn_model.params.train_x.nbytes + knn_model.params.train_y.nbytes
        assert peak < 1.2 * arrays  # the arrays, and a bool per value while their finiteness is checked

    def test_build_datasets_holds_blocks_and_one_stacked_partition(self, easy_corpus, one_worker):
        # dense windows (4,371 of them), so the rows outweigh any one trip's windows
        seg = SegmentationConfig(window_minutes=5, overlap_fraction=0.9, train_fraction=0.7)
        bundle, peak = traced_peak(lambda: build_datasets(easy_corpus, seg, FeatureConfig()))
        train, test = bundle.train.features.nbytes, bundle.test.features.nbytes
        assert peak < (train + test) + 1.2 * train  # the blocks, then the train rows stacked

    def test_writing_a_log_holds_a_fraction_of_its_text(self, easy_profiles, tmp_path):
        trip, _ = generate_trip(easy_profiles[0], 4 * 3600.0, 2.0, driver_id="d")
        text = serialize_log(trip)
        _, peak = traced_peak(lambda: write_log(trip, tmp_path / "d.csv"))
        assert (tmp_path / "d.csv").read_bytes() == text.encode()
        assert peak < len(text) / 4

    def test_train_holds_about_one_trip_at_a_time(self, easy_corpus, one_worker, tmp_path):
        # A trip in flight is its samples and its windows, which are copies
        # (overlapping, at the default segmentation); holding every trip at
        # once, as the rows are made, takes far more than two of them.
        cfg = RunConfig(model_kind="knn")
        entries = []
        for trip in easy_corpus:
            arrays = tmp_path / f"{trip.driver_id}.clean.npz"
            write_clean(trip, arrays, arrays.with_suffix(".json"), cfg.pipeline_record()["cleaning"])
            entries.append((arrays.name, trip.driver_id, trip.nominal_rate_hz))
        write_manifest(entries, tmp_path / "manifest.csv")
        (tmp_path / "run.ini").write_text("[run]\nmodel = knn\n")
        in_flight = max(
            trip.t.nbytes + trip.data.nbytes + trip.break_after.nbytes
            + sum(batch.channels.nbytes for batch in segment_trip(trip, cfg.segmentation))
            for trip in easy_corpus
        )
        argv = ["train", "--manifest", str(tmp_path / "manifest.csv"), "--config", str(tmp_path / "run.ini")]
        code, peak = traced_peak(lambda: main([*argv, "--out", str(tmp_path / "out")]))
        assert code == 0
        assert peak < 2 * in_flight


class TestStandardizer:
    def fit_matrix(self, rng, n=40, dim=12):
        return rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0, size=dim) + rng.uniform(
            -5, 5, size=dim
        )

    def test_train_set_becomes_zero_mean_unit_variance(self):
        rng = np.random.default_rng(81)
        x = self.fit_matrix(rng)
        std = fit_standardizer([FeatureBlock(x, "d", TRAIN)])
        z = apply_standardizer(std, x)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-6

    def test_constant_dimension_floored_to_zero_output(self):
        rng = np.random.default_rng(82)
        x = self.fit_matrix(rng)
        x[:, 3] = 42.0
        std = fit_standardizer([FeatureBlock(x, "d", TRAIN)])
        z = apply_standardizer(std, x)
        assert np.allclose(z[:, 3], 0.0)

    def test_vector_equal_to_mean_maps_to_zero(self):
        rng = np.random.default_rng(83)
        x = self.fit_matrix(rng)
        std = fit_standardizer([FeatureBlock(x, "d", TRAIN)])
        assert np.allclose(apply_standardizer(std, x.mean(axis=0)), 0.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(84)
        std = fit_standardizer([FeatureBlock(self.fit_matrix(rng), "d", TRAIN)])
        for vector in (np.zeros(5), 3.0):  # a scalar has no dimension at all
            with pytest.raises(ValueError, match="dimension mismatch"):
                apply_standardizer(std, vector)

    def test_refuses_test_partition_vectors(self):
        rng = np.random.default_rng(85)
        cfg = FeatureConfig(families=("mean",))
        train = extract_sequence(window_batch(random_channels(rng)), cfg)
        test = extract_sequence(
            window_batch(rng.standard_normal((6, 30)), partition="test"), cfg
        )
        with pytest.raises(ValueError, match="train vectors only"):
            fit_standardizer([train, test])

    def test_needs_two_vectors(self):
        rng = np.random.default_rng(86)
        with pytest.raises(ValueError, match="at least 2"):
            fit_standardizer([FeatureBlock(rng.standard_normal((1, 4)), "d", TRAIN)])

    def test_apply_never_refits(self):
        rng = np.random.default_rng(87)
        x = self.fit_matrix(rng)
        std = fit_standardizer([FeatureBlock(x, "d", TRAIN)])
        mean_before = std.mean.copy()
        apply_standardizer(std, rng.standard_normal((10, x.shape[1])) * 100)
        assert np.array_equal(std.mean, mean_before)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_gives_numpy_mean_and_std_bit_for_bit(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sizes = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=4).filter(lambda s: sum(s) >= 2))
        dim = data.draw(st.integers(1, 8), label="dim")
        scale = 10.0 ** rng.uniform(-8, 8, size=dim)
        x = rng.standard_normal((sum(sizes), dim)) * scale + rng.uniform(-1e6, 1e6, size=dim)
        if data.draw(st.booleans(), label="constant column"):
            x[:, 0] = 42.0
        edges = np.cumsum([0, *sizes])
        std = fit_standardizer([FeatureBlock(x[a:b], "d", TRAIN) for a, b in zip(edges, edges[1:])])
        assert np.array_equal(std.mean.view(np.uint64), x.mean(axis=0).view(np.uint64))
        expected = np.maximum(x.std(axis=0), STD_FLOOR)
        assert np.array_equal(std.std.view(np.uint64), expected.view(np.uint64))

    def test_apply_and_in_place_give_the_same_bits(self):
        rng = np.random.default_rng(88)
        x = self.fit_matrix(rng, n=50)
        std = fit_standardizer([FeatureBlock(x, "d", TRAIN)])
        before = x.copy()
        z = apply_standardizer(std, x)
        assert np.array_equal(x, before)  # apply never writes to its input
        expected = (before - std.mean) / std.std
        assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))
        assert standardize_in_place(std, x) is x
        assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            Standardizer(mean=np.zeros(3), std=np.array([1.0, 0.0, 1.0]))
