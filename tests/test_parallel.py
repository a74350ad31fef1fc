"""`parallel.ordered_map` on its own, and the pipeline steps it runs at 1 vs 2 workers."""
import multiprocessing
import os
import time

import numpy as np
import pytest

from driverid.features import FeatureConfig
from driverid.models import predict
from driverid.parallel import ordered_map
from driverid.pipeline import build_datasets, build_test_dataset, train_model
from driverid.preprocess import CleanTrip
from driverid.segment import InsufficientData, SegmentationConfig
from conftest import labeled, stops_in_gaps
from oracles import knn_oracle

TIMEOUT_S = 10.0


def wait_for(path) -> bool:
    """Whether `path` appears within TIMEOUT_S."""
    deadline = time.monotonic() + TIMEOUT_S
    while not path.exists():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def square(x):
    return x * x


class TestOrderedMap:
    def test_input_order_under_uneven_durations(self, workers):
        workers(2)

        def slow_early(i):
            time.sleep(0.005 * (8 - i))
            return i * 10

        assert list(ordered_map(slow_early, range(8))) == [i * 10 for i in range(8)]
        assert multiprocessing.active_children() == []

    def test_error_raised_at_its_input_position(self, workers, tmp_path):
        """Item 2 fails first in time; item 1 fails later but comes first, after item 0."""
        workers(2)
        marker = tmp_path / "item 2 failed"

        def fail(i):
            if i == 0:
                return "zero"
            if i == 1:
                assert wait_for(marker)
                raise KeyError("item 1")
            marker.touch()
            raise ValueError("item 2")

        results = ordered_map(fail, range(3))
        assert next(results) == "zero"
        with pytest.raises(KeyError, match="item 1"):
            next(results)
        assert multiprocessing.active_children() == []

    def test_no_item_taken_after_a_failure(self, workers, tmp_path):
        """Once item 1 has failed, the items behind it never run, though item 0 still does."""
        workers(2)

        def fail_second(i):
            (tmp_path / f"ran {i}").touch()
            if i == 0:
                assert wait_for(tmp_path / "ran 1")
                time.sleep(0.5)  # item 1's failure reaches the caller first
            elif i == 1:
                raise ValueError("item 1")
            return i

        with pytest.raises(ValueError, match="item 1"):
            list(ordered_map(fail_second, range(100)))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ran 0", "ran 1"]

    def test_long_head_item_does_not_stop_dispatch(self, workers, tmp_path):
        """Finished results waiting behind item 0 do not hold back later items."""
        workers(2)
        marker = tmp_path / "last item ran"
        last = 9

        def head_waits(i):
            if i == 0:
                return wait_for(marker)
            if i == last:
                marker.touch()
            return i

        assert list(ordered_map(head_waits, range(last + 1))) == [True, *range(1, last + 1)]

    def test_nested_call_in_a_worker_runs_in_that_worker(self, workers):
        def inner(i):
            return list(ordered_map(lambda j: (square(j), os.getpid()), range(i + 3)))

        def values(results):
            return [[value for value, _ in result] for result in results]

        workers(1)
        in_process = list(ordered_map(inner, range(4)))
        workers(2)
        nested = list(ordered_map(inner, range(4)))
        assert values(nested) == values(in_process)
        for result in nested:
            assert len({pid for _, pid in result}) == 1
            assert result[0][1] != os.getpid()
        assert multiprocessing.active_children() == []

    def test_call_while_workers_run_stays_in_process(self, workers):
        """A call made in the consumer's loop body, while the workers live, runs here."""
        workers(2)
        values = []
        for value in ordered_map(square, range(6)):
            pids = set(ordered_map(lambda _: os.getpid(), range(4)))
            assert (len(multiprocessing.active_children()), pids) == (2, {os.getpid()})
            values.append(value)
        assert values == [square(i) for i in range(6)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("ending", ["exhausted", "closed", "raised"])
    def test_no_child_left(self, workers, ending):
        workers(2)

        def maybe_fail(i):
            if ending == "raised" and i == 3:
                raise RuntimeError("boom")
            return i

        results = ordered_map(maybe_fail, range(6))
        assert next(results) == 0
        assert len(multiprocessing.active_children()) == 2
        if ending == "exhausted":
            assert list(results) == [1, 2, 3, 4, 5]
        elif ending == "closed":
            results.close()
        else:
            with pytest.raises(RuntimeError, match="boom"):
                list(results)
        assert multiprocessing.active_children() == []


def random_trips(lengths=(2000, 1600, 2000, 1800), drivers="abac"):
    """Cleaned 2 Hz trips of noise, one continuity break each; driver a has two."""
    rng = np.random.default_rng(12)
    trips = []
    for n, driver in zip(lengths, drivers):
        breaks = np.zeros(n - 1, dtype=bool)
        breaks[n // 3] = True
        t, data = np.arange(n) / 2.0, rng.standard_normal((n, 6))
        trips.append(CleanTrip(driver, t, data, 2.0, stop_intervals=stops_in_gaps(t, breaks)))
    return trips


SEG = SegmentationConfig(window_minutes=1.0, overlap_fraction=0.5)


def at_one_and_two_workers(workers, build):
    results = []
    for n in (1, 2):
        workers(n)
        results.append(build())
    return results


class TestPipelineWorkers:
    def test_build_datasets(self, workers):
        one, two = at_one_and_two_workers(workers, lambda: build_datasets(random_trips(), SEG, FeatureConfig()))
        for a, b in ((one.train, two.train), (one.test, two.test)):
            assert np.array_equal(a.features, b.features)
            assert a.label_indices.tolist() == b.label_indices.tolist()
            assert a.class_list == b.class_list == ("a", "b", "c")
        assert one.window_counts == two.window_counts
        assert one.window_counts["a"]["train"] > two.window_counts["b"]["train"] > 0
        assert np.array_equal(one.standardizer.mean, two.standardizer.mean)

    def test_build_test_dataset(self, workers):
        bundle = build_datasets(random_trips(), SEG, FeatureConfig())
        model = train_model("knn", bundle.train, {"k": 1}, standardizer=bundle.standardizer)
        one, two = at_one_and_two_workers(
            workers, lambda: build_test_dataset(random_trips(), SEG, FeatureConfig(), model)
        )
        for test in (one, two):
            assert np.array_equal(test.features, bundle.test.features)
            assert test.label_indices.tolist() == bundle.test.label_indices.tolist()
            assert test.class_list == bundle.test.class_list

    @pytest.mark.parametrize("test_only", [False, True])
    def test_first_short_trip_is_named(self, workers, test_only):
        trips = random_trips(lengths=(2000, 100, 90, 2000))
        bundle = build_datasets(random_trips(), SEG, FeatureConfig())
        model = train_model("knn", bundle.train, {"k": 1}, standardizer=bundle.standardizer)

        def build():
            with pytest.raises(InsufficientData) as err:
                if test_only:
                    build_test_dataset(trips, SEG, FeatureConfig(), model)
                else:
                    build_datasets(trips, SEG, FeatureConfig())
            return str(err.value)

        one, two = at_one_and_two_workers(workers, build)
        assert one == two
        assert "trip 'b' has 100 samples" in one

    @pytest.mark.parametrize("n_queries", [63, 64, 65, 129])
    def test_knn_predict_matches_oracle(self, workers, n_queries):
        rng = np.random.default_rng(n_queries)
        x = rng.standard_normal((90, 5))
        labels = np.array([f"c{i % 4}" for i in range(90)], dtype=object)
        model = train_model("knn", labeled(x, labels, ("c0", "c1", "c2", "c3")), {"k": 3})
        queries = rng.standard_normal((n_queries, 5))
        expected = [knn_oracle(x, labels, model.class_list, q, 3) for q in queries]
        for got in at_one_and_two_workers(workers, lambda: predict(model, queries)):
            assert got.tolist() == expected
