import dataclasses
import functools
import itertools
import multiprocessing
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driverid.evaluation import (
    DEFAULT_FEATURE_SUBSETS,
    DISPATCH_ORDER,
    GridRow,
    GridSpec,
    evaluate,
    iter_grid,
    render_report,
    report_csv,
    run_grid,
    separability_achieved,
    sort_rows,
    write_reports,
)
from driverid.evaluation import _slice_dataset, _subset_columns
from driverid.features import FAMILIES, FeatureConfig, subset_families
from driverid.models import MODEL_KINDS, LabeledDataset
from driverid.models.registry import REGISTRY
from driverid.pipeline import build_datasets, build_test_dataset, train_model
from driverid.preprocess import CleanTrip
from driverid.seeds import derive_seed
from driverid.segment import InsufficientData, SegmentationConfig
from conftest import labeled, stops_in_gaps


def dataset_from(labels, x=None, class_list=None):
    rng = np.random.default_rng(0)
    if x is None:
        x = rng.standard_normal((len(labels), 3))
    return labeled(x, labels, class_list)


class FixedModel:
    """Test double driven by a canned prediction list."""

    def __init__(self, predictions, class_list, n_features=3):
        self.kind = "knn"
        self.class_list = tuple(class_list)
        self.n_features = n_features
        self._preds = np.array(predictions, dtype=object)

    def predict(self, x):
        return self._preds


@pytest.fixture
def patched_predict(monkeypatch):
    import driverid.evaluation as ev

    real = ev.predict

    def dispatch(model, x):
        return model.predict(x) if isinstance(model, FixedModel) else real(model, x)

    monkeypatch.setattr(ev, "predict", dispatch)


class TestEvaluate:
    def test_all_correct_diagonal(self, patched_predict):
        labels = ["a", "b", "c", "a"]
        test = dataset_from(labels)
        model = FixedModel(labels, ("a", "b", "c"))
        report = evaluate(model, test)
        assert report.accuracy == 1.0
        assert np.trace(report.confusion) == 4
        assert report.confusion.sum() == 4

    def test_constant_predictor_on_balanced_set(self, patched_predict):
        labels = [f"c{i}" for i in range(10)]
        test = dataset_from(labels)
        model = FixedModel(["c0"] * 10, sorted(labels))
        report = evaluate(model, test)
        assert report.accuracy == pytest.approx(0.1)

    def test_hand_counted_confusion(self, patched_predict):
        rng = np.random.default_rng(5)
        classes = ("a", "b", "c")
        truth = [classes[i] for i in rng.integers(0, 3, 20)]
        preds = [classes[i] for i in rng.integers(0, 3, 20)]
        counts = {}
        for t, p in zip(truth, preds):
            counts[(t, p)] = counts.get((t, p), 0) + 1
        report = evaluate(FixedModel(preds, classes), dataset_from(truth, class_list=classes))
        for i, t in enumerate(classes):
            for j, p in enumerate(classes):
                assert report.confusion[i, j] == counts.get((t, p), 0)
        assert report.n_test_windows == 20

    def test_row_and_column_sums(self, patched_predict):
        classes = ("a", "b")
        truth = ["a", "a", "b", "b", "b"]
        preds = ["a", "b", "b", "a", "b"]
        report = evaluate(FixedModel(preds, classes), dataset_from(truth, class_list=classes))
        assert list(report.confusion.sum(axis=1)) == [2, 3]
        assert list(report.confusion.sum(axis=0)) == [2, 3]

    def test_absent_class_recall_is_nan(self, patched_predict):
        classes = ("a", "b", "ghost")
        truth = ["a", "b", "a"]
        report = evaluate(
            FixedModel(["a", "b", "a"], classes), dataset_from(truth, class_list=classes)
        )
        assert np.isnan(report.per_class_recall[2])
        assert report.to_dict()["per_class_recall"][2] is None

    def test_test_classes_a_subset_of_model_classes(self, patched_predict):
        # test rows index their own class list; the confusion indexes the model's
        truth = ["c", "b", "c", "c"]
        preds = ["c", "a", "b", "c"]
        report = evaluate(FixedModel(preds, ("a", "b", "c")), dataset_from(truth))
        assert report.confusion.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 2]]
        assert report.accuracy == 0.5

    def test_rows_of_a_class_the_model_lacks_rejected(self, patched_predict):
        model = FixedModel(["a", "b", "a"], ("a", "b"))
        with pytest.raises(ValueError, match=r"outside the model's class list: \['c'\]"):
            evaluate(model, dataset_from(["a", "c", "b"]))
        # a class of the test set's list with no rows is not a test class
        report = evaluate(model, dataset_from(["a", "b", "b"], class_list=("a", "b", "c")))
        assert report.confusion.tolist() == [[1, 0], [1, 1]]

    def test_empty_test_set_rejected(self):
        rng = np.random.default_rng(1)
        data = dataset_from(["a", "b"], x=rng.standard_normal((2, 3)))
        model = train_model("knn", data, {"k": 1})
        empty = LabeledDataset(
            features=np.zeros((0, 3)),
            label_indices=np.array([], dtype=np.int64),
            class_list=("a", "b"),
        )
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(model, empty)

    def test_schema_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        data = dataset_from(["a", "b", "a", "b"], x=rng.standard_normal((4, 3)))
        model = train_model("knn", data, {"k": 1})
        wrong = LabeledDataset(
            features=rng.standard_normal((4, 5)),
            label_indices=np.array([0, 1, 0, 1]),
            class_list=("a", "b"),
        )
        with pytest.raises(ValueError, match="schema mismatch"):
            evaluate(model, wrong)

    def test_knn_k1_train_accuracy_is_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 4))
        labels = np.array([f"c{i % 3}" for i in range(30)], dtype=object)
        data = dataset_from(labels, x=x)
        model = train_model("knn", data, {"k": 1})
        report = evaluate(model, data)
        assert report.accuracy == 1.0


def trips_one_without_train_windows():
    """Three 2,000-sample trips at 2 Hz; trip c breaks every 25 s across its train span."""
    rng = np.random.default_rng(4)
    trips = []
    t = np.arange(2000) / 2.0
    for driver in ("a", "b", "c"):
        breaks = np.zeros(1999, dtype=bool)
        if driver == "c":
            breaks[:1399:50] = True
        data = rng.standard_normal((2000, 6))
        trips.append(CleanTrip(driver, t, data, 2.0, stop_intervals=stops_in_gaps(t, breaks)))
    return trips


class TestBuildDatasets:
    def test_driver_without_train_windows_is_insufficient_data(self):
        seg = SegmentationConfig(window_minutes=1.0, overlap_fraction=0.5)
        with pytest.raises(InsufficientData, match="driver 'c' has test windows but no training windows"):
            build_datasets(trips_one_without_train_windows(), seg, FeatureConfig())

    def test_test_rows_of_a_driver_outside_the_class_list_rejected(self):
        seg = SegmentationConfig(window_minutes=1.0, overlap_fraction=0.5)
        a, b, c = trips_one_without_train_windows()  # c breaks only in its train span
        bundle = build_datasets([a, b], seg, FeatureConfig())
        model = train_model("knn", bundle.train, {"k": 1}, standardizer=bundle.standardizer)
        with pytest.raises(ValueError, match=r"driver 'c' is not in the class list \['a', 'b'\]"):
            build_test_dataset([a, b, c], seg, FeatureConfig(), model)
        # a driver with no test windows adds no rows, whatever its name
        breaks = np.zeros(len(c) - 1, dtype=bool)
        breaks[1300::50] = True
        silent = CleanTrip("c", c.t, c.data, 2.0, stop_intervals=stops_in_gaps(c.t, breaks))
        test = build_test_dataset([a, b, silent], seg, FeatureConfig(), model)
        assert np.array_equal(test.features, bundle.test.features)
        assert np.array_equal(test.label_indices, bundle.test.label_indices)
        assert test.class_list == ("a", "b")


class TestSeparability:
    def test_threshold_is_three_times_chance(self):
        assert separability_achieved(0.31, 10)
        assert not separability_achieved(0.30, 10)
        assert not separability_achieved(0.25, 10)


@functools.cache
def small_trips() -> tuple[CleanTrip, ...]:
    """Three cleaned 25-minute trips without stops (immutable, so shared)."""
    import driverid as d
    from conftest import stoppy_profile

    trips = []
    for i in range(3):
        profile = stoppy_profile(i, stops_per_hour=0.0)
        trip, _ = d.generate_trip(profile, 1500.0, 2.0, driver_id=f"drv{i}")
        trips.append(d.clean(trip))
    return tuple(trips)


class TestGrid:
    def test_cell_count_and_columns(self):
        trips = small_trips()
        grid = GridSpec(
            window_minutes_list=(2.0, 4.0),
            overlap_list=(0.0, 0.5),
            feature_subset_list=("mean+variance",),
            model_list=("knn",),
            repetitions=1,
        )
        rows = run_grid(trips, grid, master_seed=5)
        assert len(rows) == 4
        csv_text = report_csv(rows)
        header = csv_text.splitlines()[0]
        assert header == "window_minutes,overlap,features,model,mean_accuracy,std,error"
        assert len(csv_text.splitlines()) == 5

    def test_failed_cells_annotated_not_fatal(self):
        trips = small_trips()
        grid = GridSpec(
            window_minutes_list=(2.0, 60.0),  # 60-minute window cannot fit
            overlap_list=(0.0,),
            feature_subset_list=("mean",),
            model_list=("knn",),
            repetitions=1,
        )
        rows = run_grid(trips, grid, master_seed=5)
        assert len(rows) == 2
        failed = [r for r in rows if r.error]
        assert len(failed) == 1
        assert failed[0].window_minutes == 60.0
        assert failed[0].mean_accuracy is None

    def test_driver_without_train_windows_annotated(self):
        grid = GridSpec(
            window_minutes_list=(1.0,),
            overlap_list=(0.5,),
            feature_subset_list=("mean",),
            model_list=("knn",),
            repetitions=1,
        )
        [row] = run_grid(trips_one_without_train_windows(), grid, master_seed=5)
        assert row.mean_accuracy is None
        assert row.error == "driver 'c' has test windows but no training windows"

    def test_programming_errors_propagate(self, monkeypatch, workers):
        import driverid.evaluation as evaluation

        def broken_train(*args, **kwargs):
            raise TypeError("broken trainer")

        monkeypatch.setattr(evaluation, "train_model", broken_train)
        grid = GridSpec(
            window_minutes_list=(2.0,),
            overlap_list=(0.0,),
            feature_subset_list=("mean",),
            model_list=("knn", "dtree"),  # 2 cells: with 2 workers, each runs in a worker
            repetitions=1,
        )
        trips = small_trips()
        for n in (1, 2):
            workers(n)
            with pytest.raises(TypeError, match="broken trainer"):
                run_grid(trips, grid, master_seed=5)
            assert multiprocessing.active_children() == []

    def test_unknown_feature_subset_rejected(self):
        with pytest.raises(ValueError, match="wavelet"):
            GridSpec(feature_subset_list=("mean+wavelet",))

    def test_determinism_across_runs(self):
        trips = small_trips()
        grid = GridSpec(
            window_minutes_list=(3.0,),
            overlap_list=(0.5,),
            feature_subset_list=("mean+variance+correlation",),
            model_list=("rforest",),
            repetitions=2,
        )
        a = run_grid(trips, grid, master_seed=7)
        b = run_grid(trips, grid, master_seed=7)
        assert report_csv(a) == report_csv(b)

    def counting_fits(self, monkeypatch, seeded=None):
        """Count each kind's fit calls; ``seeded`` overrides every kind's flag."""
        fits = dict.fromkeys(REGISTRY, 0)
        for kind, module in REGISTRY.items():
            def fit(data, params, seed, kind=kind, inner=module.fit):
                fits[kind] += 1
                return inner(data, params, seed)
            monkeypatch.setattr(module, "fit", fit)
            if seeded is not None:
                monkeypatch.setattr(module, "seeded", seeded)
        return fits

    @pytest.mark.usefixtures("one_worker")
    def test_seedless_kinds_fit_once_per_cell(self, monkeypatch):
        fits = self.counting_fits(monkeypatch)
        grid = GridSpec(
            window_minutes_list=(3.0,),
            overlap_list=(0.5,),
            feature_subset_list=("mean+variance",),
            model_list=MODEL_KINDS,
            repetitions=2,  # the mean of 2 equal floats is exact, of 3 or 5 it may not be
        )
        fast = {"rforest": {"n_trees": 3}, "mlp": {"max_epochs": 5}}
        rows = run_grid(small_trips(), grid, model_params=fast, master_seed=7)
        assert fits == {"knn": 1, "dtree": 1, "rforest": 2, "mlp": 2}
        for row in rows:
            assert len(row.accuracies) == 2
            if not REGISTRY[row.model].seeded:
                assert row.accuracies == (row.mean_accuracy,) * 2
                assert row.std == 0.0

    @pytest.mark.usefixtures("one_worker")
    def test_seedless_rows_equal_fitting_every_repetition(self, monkeypatch):
        trips = small_trips()
        grid = GridSpec(
            window_minutes_list=(3.0,),
            overlap_list=(0.5,),
            feature_subset_list=("mean+variance", "histogram"),
            model_list=("knn", "dtree"),
            repetitions=2,
        )
        once = run_grid(trips, grid, master_seed=7)
        fits = self.counting_fits(monkeypatch, seeded=True)
        every = run_grid(trips, grid, master_seed=7)
        assert fits == {"knn": 4, "dtree": 4, "rforest": 0, "mlp": 0}  # 2 cells x 2
        assert [row.accuracies for row in once] == [row.accuracies for row in every]
        assert report_csv(once) == report_csv(every)

    @pytest.mark.parametrize("repetitions", [3, 5])
    def test_repeated_accuracies_summarized_over_distinct_fits(self, repetitions):
        grid = GridSpec(
            window_minutes_list=(3.0,),
            overlap_list=(0.5,),
            feature_subset_list=("mean+variance", "histogram"),
            model_list=MODEL_KINDS,
            repetitions=repetitions,
        )
        fast = {"rforest": {"n_trees": 3}, "mlp": {"max_epochs": 5}}
        rows = run_grid(small_trips(), grid, model_params=fast, master_seed=7)
        for row in rows:
            assert len(row.accuracies) == repetitions
            if REGISTRY[row.model].seeded:
                assert row.mean_accuracy == float(np.mean(row.accuracies))
                assert row.std == float(np.std(row.accuracies))
            else:  # one fit, reported exactly
                assert row.accuracies == (row.mean_accuracy,) * repetitions
                assert row.std == 0.0

    # np.repeat(a, n).mean() is not a for these, and .std() is not 0.0
    @pytest.mark.parametrize("repetitions, accuracy", [(3, 0.1), (5, 1 / 288)])
    def test_seedless_cell_reports_its_accuracy_exactly(self, monkeypatch, repetitions, accuracy):
        import driverid.evaluation as evaluation

        monkeypatch.setattr(evaluation, "evaluate", lambda model, test: types.SimpleNamespace(accuracy=accuracy))
        grid = GridSpec(
            window_minutes_list=(3.0,),
            overlap_list=(0.5,),
            feature_subset_list=("mean",),
            model_list=("knn", "dtree"),
            repetitions=repetitions,
        )
        for row in run_grid(small_trips(), grid, master_seed=7):
            assert (row.mean_accuracy, row.std) == (accuracy, 0.0)
            assert row.accuracies == (accuracy,) * repetitions

    @pytest.mark.usefixtures("one_worker")
    @settings(max_examples=25, deadline=None)
    @given(
        families=st.sets(st.sampled_from(FAMILIES), min_size=1),
        window=st.sampled_from([1.0, 2.0, 3.0]),
        overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
        bins=st.sampled_from([3, 100]),
        summed=st.booleans(),
    )
    def test_sliced_bundle_equals_building_the_subset(self, families, window, overlap, bins, summed):
        subset = "+".join(sorted(families))
        base = FeatureConfig(histogram_bins=bins, difference_uses_sum=summed)
        seg = SegmentationConfig(window_minutes=window, overlap_fraction=overlap)
        full = build_datasets(small_trips(), seg, base)
        own = build_datasets(small_trips(), seg, dataclasses.replace(base, families=subset_families(subset)))
        columns = _subset_columns(base, subset)
        for whole, direct in ((full.train, own.train), (full.test, own.test)):
            sliced = _slice_dataset(whole, columns)
            assert np.array_equal(sliced.features, direct.features)
            assert np.array_equal(sliced.label_indices, direct.label_indices)
            assert (sliced.class_list, sliced.schema_labels) == (direct.class_list, direct.schema_labels)

    @pytest.mark.usefixtures("one_worker")
    def test_each_row_is_train_and_evaluate_on_its_own_rows(self, monkeypatch):
        import driverid.evaluation as evaluation

        trained = {}  # seed -> the rows that fit trained on

        def spy(kind, train, params=None, seed=0):
            trained[seed] = train.features
            return train_model(kind, train, params, seed=seed)

        monkeypatch.setattr(evaluation, "train_model", spy)
        grid = GridSpec(
            window_minutes_list=(3.0,),
            overlap_list=(0.5,),
            feature_subset_list=("histogram", "mean+variance+difference+correlation"),
            model_list=MODEL_KINDS,
            repetitions=2,
        )
        fast = {"rforest": {"n_trees": 3}, "mlp": {"max_epochs": 5}}
        rows = list(iter_grid(small_trips(), grid, model_params=fast, master_seed=7))
        seg = SegmentationConfig(window_minutes=3.0, overlap_fraction=0.5)
        for row in rows:
            own = build_datasets(small_trips(), seg, FeatureConfig(families=subset_families(row.features)))
            for rep in range(2 if REGISTRY[row.model].seeded else 1):
                seed = derive_seed(7, f"grid:3.0:0.5:{row.features}:{row.model}:rep{rep}")
                assert np.array_equal(trained.pop(seed), own.train.features)
                model = train_model(row.model, own.train, fast.get(row.model), seed=seed)
                assert row.accuracies[rep] == evaluate(model, own.test).accuracy
            if not REGISTRY[row.model].seeded:  # seedless: the fit at any seed
                assert row.mean_accuracy == evaluate(train_model(row.model, own.train), own.test).accuracy
        assert trained == {}

    def test_rows_sorted_by_mean_accuracy(self):
        rows = [
            GridRow(5, 0, "mean", "knn", mean_accuracy=0.5, std=0.0),
            GridRow(5, 0, "mean", "dtree", mean_accuracy=0.9, std=0.0),
            GridRow(5, 0, "mean", "mlp", error="boom"),
            GridRow(5, 0, "mean", "rforest", mean_accuracy=0.7, std=0.0),
            GridRow(5, 0, "mean+variance", "knn", mean_accuracy=0.9, std=0.0),
            GridRow(5, 0, "mean+variance", "mlp", error="bang"),
            GridRow(5, 0, "mean+variance", "dtree", mean_accuracy=0.5, std=0.0),
        ]
        ordered = sort_rows(rows)
        assert [r.mean_accuracy for r in ordered] == [0.9, 0.9, 0.7, 0.5, 0.5, None, None]
        # ties keep their input order
        assert [(r.features, r.model) for r in ordered] == [
            ("mean", "dtree"), ("mean+variance", "knn"), ("mean", "rforest"), ("mean", "knn"),
            ("mean+variance", "dtree"), ("mean", "mlp"), ("mean+variance", "mlp"),
        ]

    def test_default_subsets_include_full_combination(self):
        assert "histogram+mean+variance+difference+correlation" in DEFAULT_FEATURE_SUBSETS

    def test_requires_two_drivers(self):
        import driverid as d
        from conftest import stoppy_profile

        profile = stoppy_profile(0, stops_per_hour=0.0)
        trip, _ = d.generate_trip(profile, 600.0, 2.0, driver_id="solo")
        with pytest.raises(ValueError, match="2 drivers"):
            run_grid([d.clean(trip)], GridSpec())

    def test_iter_grid_supports_partial_consumption(self):
        trips = small_trips()
        grid = GridSpec(
            window_minutes_list=(2.0, 3.0),
            overlap_list=(0.0,),
            feature_subset_list=("mean",),
            model_list=("knn",),
            repetitions=1,
        )
        it = iter_grid(trips, grid, master_seed=1)
        first = next(it)
        assert first.window_minutes == 2.0

    DISPATCH_GRID = GridSpec(
        window_minutes_list=(2.0, 3.0),
        overlap_list=(0.5,),
        feature_subset_list=("mean", "variance"),
        model_list=MODEL_KINDS,
        repetitions=1,
    )
    FAST = {"rforest": {"n_trees": 3}, "mlp": {"max_epochs": 5}}

    def cell_order(self, grid):
        return list(itertools.product(
            grid.window_minutes_list, grid.overlap_list, grid.feature_subset_list, grid.model_list
        ))

    @pytest.mark.usefixtures("one_worker")
    def test_cells_dispatched_costliest_kind_first_per_group(self, monkeypatch):
        import driverid.evaluation as evaluation

        assert sorted(DISPATCH_ORDER) == sorted(MODEL_KINDS)
        received = []
        real = evaluation._run_cell

        def spy(*args):
            received.append(args[-1])
            return real(*args)

        monkeypatch.setattr(evaluation, "_run_cell", spy)
        grid = self.DISPATCH_GRID
        rows = list(iter_grid(small_trips(), grid, model_params=self.FAST, master_seed=7))
        cells = self.cell_order(grid)
        assert sorted(received) == sorted(cells)
        for group in itertools.product(grid.window_minutes_list, grid.overlap_list):
            kinds = [cell[3] for cell in received if cell[:2] == group]
            assert kinds == sorted(kinds, key=DISPATCH_ORDER.index)
            assert kinds[:2] == ["mlp"] * 2 and kinds[-2:] == ["knn"] * 2
        groups = [cell[:2] for cell in received]
        assert groups == sorted(groups)  # one group after another, in cell order
        assert [(r.window_minutes, r.overlap, r.features, r.model) for r in rows] == cells

    def test_rows_yielded_in_cell_order_at_two_workers(self, workers):
        workers(2)
        grid = self.DISPATCH_GRID
        rows = list(iter_grid(small_trips(), grid, model_params=self.FAST, master_seed=7))
        assert [(r.window_minutes, r.overlap, r.features, r.model) for r in rows] == self.cell_order(grid)
        assert all(r.error is None for r in rows)
        assert multiprocessing.active_children() == []

    def test_closing_a_partly_consumed_grid_leaves_no_workers(self, workers):
        workers(2)
        grid = GridSpec(
            window_minutes_list=(2.0, 3.0),
            overlap_list=(0.0,),
            feature_subset_list=("mean", "variance"),
            model_list=("knn", "dtree"),
            repetitions=1,
        )
        it = iter_grid(small_trips(), grid, master_seed=1)
        assert next(it).window_minutes == 2.0
        assert len(multiprocessing.active_children()) == 2
        it.close()
        assert multiprocessing.active_children() == []


class TestRendering:
    def test_empty_rows_header_only(self):
        assert report_csv([]).splitlines() == [
            "window_minutes,overlap,features,model,mean_accuracy,std,error"
        ]

    def test_one_row_one_line(self):
        rows = [GridRow(15, 0.75, "histogram", "mlp", mean_accuracy=0.96, std=0.01)]
        lines = report_csv(rows).splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("15,0.75,histogram,mlp,0.96")

    def test_render_is_lossless_count(self):
        rows = [
            GridRow(5, 0, "mean", "knn", mean_accuracy=0.5, std=0.0),
            GridRow(10, 0.25, "mean", "knn", error="nope"),
        ]
        text = render_report(rows)
        assert "nope" in text
        assert len(text.strip().splitlines()) == 4  # header + rule + 2 rows

    def test_write_reports_flags_incomplete(self, tmp_path):
        import json

        rows = [GridRow(5, 0, "mean", "knn", mean_accuracy=0.5, std=0.0)]
        _, json_path = write_reports(rows, tmp_path, complete=False)
        doc = json.loads(json_path.read_text())
        assert doc["complete"] is False
        assert len(doc["rows"]) == 1
