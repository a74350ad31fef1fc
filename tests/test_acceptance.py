"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end checks run on a fixed-seed ten-driver synthetic
corpus; thresholds are engineering gates for pipeline integrity, not
claims about accuracy on real-world recordings.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import driverid as d
from conftest import BENCH_DRIVERS, labeled, stoppy_profile, window_batch
from driverid.cli import main as cli_main
from driverid.evaluation import (
    GridSpec,
    evaluate,
    run_grid,
)
from driverid.evaluation import _slice_dataset, _subset_columns
from driverid.features import (
    FeatureConfig,
    extract_sequence,
    trimmed_histogram,
)
from driverid.models import predict
from driverid.models.mlp import init_params, loss_and_grads
from driverid.pipeline import train_model
from driverid.preprocess import CleaningConfig, clean, detect_stops
from driverid.segment import SegmentationConfig, segment_trip
from oracles import corr_oracle, histogram_oracle, knn_oracle, mean_var_oracle

# the benchmark MLP: architecture stated here because the training recipe
# is part of the reported configuration
BENCH_MLP = dict(
    hidden_layers=(32,),
    learning_rate=0.15,
    batch_size=32,
    max_epochs=1500,
    early_stop_patience=200,
)


def report(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


class TestFeatureDimensionIdentity:
    def test_full_feature_set_is_633_dimensional(self):
        cfg = FeatureConfig(histogram_bins=100)
        dim = cfg.dimension()
        assert dim == 6 * 100 + 6 + 6 + 6 + 15 == 633
        report("feature-dimension-identity", "600+6+6+6+15 = 633")


class TestOracleEquivalence:
    def test_trimmed_histogram_matches_counting_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(10, 500))
            signal = rng.standard_normal(n) * rng.uniform(0.01, 50)
            bins = int(rng.integers(1, 150))
            keep = float(rng.choice([0.5, 0.8, 0.95, 1.0]))
            ours = trimmed_histogram(signal, bins, keep)
            assert np.array_equal(ours, np.array(histogram_oracle(signal, bins, keep)))
        report("oracle-equivalence/trimmed-histogram", "100 instances, exact")

    def test_mean_variance_match_two_pass_oracle(self):
        cfg = FeatureConfig(families=("mean", "variance"))
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(4, 300))
            channels = rng.standard_normal((6, n)) * rng.uniform(0.01, 20)
            row = extract_sequence(window_batch(channels), cfg).values[0]
            means, variances = row[:6], row[6:]
            for c in range(6):
                m, v = mean_var_oracle(list(channels[c]))
                assert abs(means[c] - m) <= 1e-12 * max(1.0, abs(m))
                assert abs(variances[c] - v) <= 1e-12 * max(1.0, abs(v))
        report("oracle-equivalence/mean-variance", "100 windows, <=1e-12 relative")

    def test_correlation_matches_direct_oracle(self):
        cfg = FeatureConfig(families=("correlation",))
        rng = np.random.default_rng(102)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for _ in range(100):
            n = int(rng.integers(4, 200))
            channels = rng.standard_normal((6, n)) * rng.uniform(0.1, 5)
            ours = extract_sequence(window_batch(channels), cfg).values[0]
            for k, (i, j) in enumerate(pairs):
                expected = corr_oracle(list(channels[i]), list(channels[j]))
                assert abs(ours[k] - expected) <= 1e-12 * max(1.0, abs(expected))
        report("oracle-equivalence/pairwise-correlation", "100 windows, <=1e-12 relative")

    def test_knn_matches_exhaustive_scan(self):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((150, 5))
        labels = np.array([f"c{i % 6}" for i in range(150)], dtype=object)
        data = labeled(x, labels)
        model = train_model("knn", data, {"k": 5})
        for _ in range(100):
            q = rng.standard_normal(5) * rng.uniform(0.1, 4)
            assert predict(model, q) == knn_oracle(x, labels, data.class_list, q, 5)
        report("oracle-equivalence/knn", "100 queries, exact")


class TestMlpGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(104)
        x = rng.standard_normal((5, 2))
        y = np.zeros((5, 2))
        y[np.arange(5), rng.integers(0, 2, 5)] = 1.0
        worst = 0.0
        for point in range(10):
            params = init_params([2, 3, 2], "tanh", np.random.default_rng(200 + point))
            _, gw, gb = loss_and_grads(params, x, y)
            eps = 1e-6
            for layer in range(2):
                for arr, grad in ((params.weights[layer], gw[layer]),
                                  (params.biases[layer], gb[layer])):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + eps
                        up = loss_and_grads(params, x, y)[0]
                        arr[idx] = orig - eps
                        down = loss_and_grads(params, x, y)[0]
                        arr[idx] = orig
                        numeric = (up - down) / (2 * eps)
                        denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                        worst = max(worst, abs(numeric - grad[idx]) / denom)
        assert worst < 1e-4
        report("mlp-gradient-check", f"10 points on a 2-3-2 net, max rel err {worst:.2e}")


class TestStopRemovalExactness:
    def test_twenty_seeded_trips(self):
        cfg = CleaningConfig(denoise_window=1)  # isolate stop logic from smoothing
        period = 0.5
        n_stops_checked = 0
        for seed in range(20):
            profile = stoppy_profile(seed, stops_per_hour=2.5)
            trip, truth = d.generate_trip(profile, 1800.0, 2.0, driver_id=f"t{seed}")
            detected = [(s.start_t, s.end_t) for s in detect_stops(trip, 0.5, 6.0)]
            for start, end in truth.stop_intervals:
                if end - start <= 6.0:
                    continue
                n_stops_checked += 1
                match = [
                    s for s in detected
                    if abs(s[0] - start) <= period and abs(s[1] - end) <= period
                ]
                assert match, f"seed {seed}: stop {(start, end)} missed ({detected})"

            cleaned = clean(trip, cfg)
            truth_total = sum(end - start for start, end in truth.stop_intervals)
            assert abs(cleaned.removed_stop_seconds - truth_total) <= 1.0

            input_duration = len(trip) * period
            identity = (
                cleaned.duration_seconds
                + cleaned.removed_stop_seconds
                + cleaned.removed_gap_seconds
            )
            assert abs(input_duration - identity) <= period
        assert n_stops_checked >= 20
        report("stop-removal-exactness", f"{n_stops_checked} stops over 20 trips")


class TestPartitionPurity:
    def test_fifty_random_configs(self):
        rng = np.random.default_rng(105)
        profile = stoppy_profile(2, stops_per_hour=1.5)
        trip, _ = d.generate_trip(profile, 5400.0, 2.0, driver_id="p")
        cleaned = clean(trip)
        checked = 0
        while checked < 50:
            minutes = float(rng.uniform(0.5, 20.0))
            overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            fraction = float(rng.uniform(0.3, 0.8))
            cfg = SegmentationConfig(minutes, overlap, fraction)
            try:
                train_windows, test_windows = segment_trip(cleaned, cfg)
            except ValueError:
                continue
            for a_start, a_end in zip(train_windows.start_t, train_windows.end_t):
                for b_start, b_end in zip(test_windows.start_t, test_windows.end_t):
                    assert a_end <= b_start or b_end <= a_start
            checked += 1
        report("partition-purity", "50 random segmentation configs, no span overlap")


@pytest.fixture(scope="module")
def bench_models(bench_bundle):
    models = {}
    for kind in ("knn", "dtree", "rforest"):
        models[kind] = train_model(kind, bench_bundle.train, seed=7)
    models["mlp"] = train_model("mlp", bench_bundle.train, BENCH_MLP, seed=7)
    return models


class TestEndToEndBenchmark:
    def test_mlp_reaches_090(self, bench_bundle, bench_models):
        rep = evaluate(bench_models["mlp"], bench_bundle.test)
        assert rep.accuracy >= 0.90
        report(
            "end-to-end/mlp",
            f"accuracy {rep.accuracy:.3f} on {rep.n_test_windows} test windows, "
            f"chance {1 / BENCH_DRIVERS}",
        )

    @pytest.mark.parametrize("kind", ["knn", "dtree", "rforest"])
    def test_other_models_reach_060(self, bench_bundle, bench_models, kind):
        rep = evaluate(bench_models[kind], bench_bundle.test)
        assert rep.accuracy >= 0.60
        report(f"end-to-end/{kind}", f"accuracy {rep.accuracy:.3f}")

    def test_grid_report_covers_all_16_cells(self, easy_corpus, tmp_path):
        grid = GridSpec(
            window_minutes_list=(5.0, 10.0, 15.0, 30.0),
            overlap_list=(0.0, 0.25, 0.5, 0.75),
            feature_subset_list=("histogram+mean+variance+difference+correlation",),
            model_list=("knn",),
            repetitions=1,
        )
        rows = run_grid(easy_corpus, grid, master_seed=7)
        assert len(rows) == 16
        populated = [r for r in rows if r.mean_accuracy is not None]
        annotated = [r for r in rows if r.error]
        assert len(populated) + len(annotated) == 16
        from driverid.evaluation import write_reports

        csv_path, json_path = write_reports(rows, tmp_path)
        assert csv_path.exists() and json_path.exists()
        report(
            "end-to-end/grid-report",
            f"{len(populated)} populated, {len(annotated)} failure-annotated",
        )


class TestDeterminism:
    def test_train_evaluate_rerun_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli_main(
            ["synth", "--drivers", "3", "--hours", "0.7", "--seed", "31",
             "--out", str(corpus)]
        ) == 0
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\nseed = 13\nmodel = knn\n"
            "[segmentation]\nwindow_minutes = 4\noverlap = 0.5\n"
            "[model.knn]\nk = 3\n"
        )
        blobs = []
        for name in ("one", "two"):
            model_dir = tmp_path / name
            eval_dir = tmp_path / f"{name}_eval"
            assert cli_main(
                ["train", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(config), "--out", str(model_dir)]
            ) == 0
            assert cli_main(
                ["evaluate", "--model", str(model_dir / "model.json"),
                 "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(config), "--out", str(eval_dir)]
            ) == 0
            blobs.append(
                (
                    (model_dir / "model.json").read_bytes(),
                    (model_dir / "train_report.json").read_bytes(),
                    (eval_dir / "report.json").read_bytes(),
                    (eval_dir / "report.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]
        report("determinism", "train + evaluate rerun, 4 output files byte-identical")


class TestAblationOrdering:
    def test_all_features_within_tolerance_of_each_family(self, bench_bundle):
        families = ("histogram", "mean", "variance", "difference", "correlation")
        full_cfg = FeatureConfig()
        all_model = train_model("rforest", bench_bundle.train, seed=7)
        all_acc = evaluate(all_model, bench_bundle.test).accuracy
        lines = [f"all-features rforest accuracy {all_acc:.3f}"]
        for family in families:
            cols = _subset_columns(full_cfg, family)  # the grid cell's own slicing
            train = _slice_dataset(bench_bundle.train, cols)
            test = _slice_dataset(bench_bundle.test, cols)
            model = train_model("rforest", train, seed=7)
            acc = evaluate(model, test).accuracy
            lines.append(f"{family}: {acc:.3f}")
            assert all_acc >= acc - 0.05, (
                f"all-features {all_acc:.3f} fell more than 0.05 below {family} {acc:.3f}"
            )
        report("ablation-ordering", "; ".join(lines))
