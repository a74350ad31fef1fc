import base64
import gc
import hashlib
import io
import json
import math
import tempfile
import weakref
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from driverid.features import Standardizer
from driverid.models import LabeledDataset, MlpConfig, TrainedModel, load_model, predict, save_model
from driverid.models import base as model_base
from driverid.models import io as model_io
from driverid.models.base import ENCODE_PIECE_BYTES, array_doc, decode_array
from driverid.models.io import FORMAT_VERSION
from driverid.models.knn import QUERY_BLOCK, KnnParams
from driverid.models.mlp import MlpParams, forward, init_params, loss_and_grads
from driverid.models.registry import MODEL_KINDS, REGISTRY
from driverid.models.tree import grow_tree, tree_depth, tree_from_nodes, tree_to_nodes
from driverid.pipeline import train_model
from driverid.segment import InsufficientData
from oracles import array_doc_oracle, cart_oracle, knn_oracle, mlp_fit_oracle, tree_walk_oracle


KIND_PARAMS = {"knn": {"k": 3}, "dtree": {"max_depth": 4}, "rforest": {"n_trees": 5}, "mlp": {"max_epochs": 15}}


def train_kind(kind, data):
    return train_model(kind, data, KIND_PARAMS[kind], seed=2)


def make_dataset(rng, n=60, dim=5, classes=("a", "b", "c")):
    x = rng.standard_normal((n, dim))
    labels = np.array([classes[i % len(classes)] for i in range(n)], dtype=object)
    # give each class a mean offset so data is learnable
    for i, c in enumerate(classes):
        x[labels == c] += i * 2.0
    return LabeledDataset(features=x, labels=labels, class_list=tuple(sorted(classes)))


def materialized(value):
    """A model document with each streamed base64 string joined, as json.dumps takes it."""
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [materialized(item) for item in value]
    if isinstance(value, Iterator):
        return "".join(value)
    return value


def encode_array(a, dtype: str) -> dict:
    """``array_doc`` with its base64 pieces joined into one string, as a model file holds it."""
    return materialized(array_doc(a, dtype))


class TestLabeledDataset:
    def test_label_indices_are_read_only_class_positions(self):
        labels = np.array(["b", "a", "c", "b"], dtype=object)
        data = LabeledDataset(features=np.zeros((4, 2)), labels=labels, class_list=("a", "b", "c"))
        assert data.label_indices.tolist() == [1, 0, 2, 1]
        assert data.label_indices.dtype == np.int64
        assert data.label_indices is data.label_indices
        with pytest.raises(ValueError):
            data.label_indices[0] = 0

    # three columns: the check reads FINITE_CHECK_VALUES // 3 rows at a time
    @pytest.mark.parametrize("row", [0, model_base.FINITE_CHECK_VALUES // 3 - 1, model_base.FINITE_CHECK_VALUES // 3, 39_999])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value, row):
        features = np.zeros((40_000, 3))
        features[row, 1] = value
        labels = np.array(["a"] * len(features), dtype=object)
        with pytest.raises(ValueError, match="features must be finite"):
            LabeledDataset(features=features, labels=labels, class_list=("a",))
        with pytest.raises(ValueError, match="features must be finite"):  # a column view, not contiguous
            LabeledDataset(features=np.hstack([features, features])[:, 1::2], labels=labels, class_list=("a",))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_empty_features_accepted(self, shape):
        labels = np.array(["a"] * shape[0], dtype=object)
        assert len(LabeledDataset(features=np.zeros(shape), labels=labels, class_list=("a",))) == shape[0]


class TestKnn:
    def test_exact_match_with_k1(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng)
        model = train_model("knn", data, {"k": 1})
        for i in (0, 7, 31):
            assert predict(model, data.features[i]) == data.labels[i]

    def test_k_equal_to_all_rows_gives_majority(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 3))
        labels = np.array(["a"] * 5 + ["b"] * 4, dtype=object)
        data = LabeledDataset(features=x, labels=labels, class_list=("a", "b"))
        model = train_model("knn", data, {"k": 9})
        assert predict(model, rng.standard_normal(3) * 10) == "a"

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 4))
        labels = np.array([f"c{i % 7}" for i in range(200)], dtype=object)
        data = LabeledDataset(features=x, labels=labels, class_list=tuple(sorted(set(labels))))
        model = train_model("knn", data, {"k": 5})
        for _ in range(100):
            q = rng.standard_normal(4) * rng.uniform(0.2, 3.0)
            expected = knn_oracle(x, labels, data.class_list, q, 5)
            assert predict(model, q) == expected

    @pytest.mark.usefixtures("one_worker")
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_ties_and_offsets(self, data):
        n, d = data.draw(st.integers(2, 30)), data.draw(st.integers(1, 40))
        row_pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)
        x = data.draw(arrays(np.int8, (n, d), elements=st.integers(-4, 4), fill=st.nothing())) / 2
        for src, dst in data.draw(row_pairs):
            x[dst] = x[src]  # exact ties: duplicated training rows
        x += data.draw(st.sampled_from([0.0, 1e4 + 1 / 3]))  # large and inexact: the screen cancels most
        for src, dst in data.draw(row_pairs):
            x[dst] = x[src]
            x[dst, 0] = np.nextafter(x[src, 0], np.inf)  # near-ties: one ulp apart
        labels = np.array(data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n)), dtype=object)
        labels[:2] = ["a", "b"]
        k = data.draw(st.integers(1, n))
        model = train_model("knn", LabeledDataset(x, labels, ("a", "b", "c")), {"k": k})
        at, to = (list(side) for side in zip(*data.draw(row_pairs.filter(len))))
        queries = np.vstack(
            [
                x[at],                         # on a training row
                np.nextafter(x[at], -np.inf),  # one ulp off it
                (x[at] + x[to]) / 2,           # midway between two rows
            ]
        )
        expected = [knn_oracle(x, labels, ("a", "b", "c"), q, k) for q in queries]
        assert predict(model, queries).tolist() == expected

    def test_query_blocks_match_oracle(self):
        rng = np.random.default_rng(6)
        data = make_dataset(rng, n=80)
        model = train_model("knn", data, {"k": 4})
        queries = rng.standard_normal((2 * QUERY_BLOCK + 3, data.n_features)) * 3
        expected = [knn_oracle(data.features, data.labels, data.class_list, q, 4) for q in queries]
        assert predict(model, queries).tolist() == expected

    def test_k_zero_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            train_model("knn", make_dataset(rng), {"k": 0})

    def test_k_above_row_count_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="exceeds"):
            train_model("knn", make_dataset(rng, n=10), {"k": 11})

    def test_prediction_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng, n=80)
        queries = rng.standard_normal((30, data.n_features))
        model = train_model("knn", data, {"k": 3})
        scaled = LabeledDataset(
            features=data.features * 7.5,
            labels=data.labels,
            class_list=data.class_list,
        )
        model_scaled = train_model("knn", scaled, {"k": 3})
        for q in queries:
            assert predict(model, q) == predict(model_scaled, q * 7.5)


class TestDecisionTree:
    def test_separable_1d_data_depth_one(self):
        x = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]])
        labels = np.array(["a"] * 3 + ["b"] * 3, dtype=object)
        data = LabeledDataset(features=x, labels=labels, class_list=("a", "b"))
        model = train_model("dtree", data)
        assert tree_depth(model.params) == 1
        assert (predict(model, x) == labels).all()


    def test_beats_depth_one_stump_on_train(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 4))
        labels = np.array([("a" if v > 0 else "b") for v in x[:, 0] * x[:, 1]], dtype=object)
        data = LabeledDataset(features=x, labels=labels, class_list=("a", "b"))
        full = train_model("dtree", data)
        stump = train_model("dtree", data, {"max_depth": 1})
        full_acc = (predict(full, x) == labels).mean()
        stump_acc = (predict(stump, x) == labels).mean()
        assert full_acc >= stump_acc

    def test_train_accuracy_at_least_majority_baseline(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = r.standard_normal((40, 3))
            labels = np.array([f"c{int(v)}" for v in r.integers(0, 3, 40)], dtype=object)
            data = LabeledDataset(
                features=x, labels=labels, class_list=tuple(sorted(set(labels)))
            )
            model = train_model("dtree", data, {"max_depth": 4})
            acc = (predict(model, x) == labels).mean()
            majority = max(np.bincount([list(data.class_list).index(l) for l in labels])) / len(labels)
            assert acc >= majority - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=50)
        a = train_model("dtree", data, {"max_depth": 5})
        b = train_model("dtree", data, {"max_depth": 5})
        buf_a, buf_b = io.StringIO(), io.StringIO()
        save_model(a, buf_a)
        save_model(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()


def draw_node_data(data):
    """(x, y, n_classes) for a CART property: values on a quarter grid, so
    many are equal within a dim, and a few rows duplicated."""
    n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
    n_classes = data.draw(st.integers(2, 6))
    grid = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                              min_size=n, max_size=n))
    x = np.array(grid, dtype=np.float64) / 4.0
    for src, dst in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       max_size=4)):
        x[dst] = x[src]
    y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)),
                 dtype=np.int64)
    return x, y, n_classes


def unit_weights(rows):
    return np.ones(len(rows), dtype=np.int64)


class TestCartOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_grown_tree_matches_brute_force_oracle(self, data):
        x, y, n_classes = draw_node_data(data)
        d = x.shape[1]
        min_leaf = data.draw(st.integers(1, 4))
        max_depth = data.draw(st.none() | st.integers(0, 5))
        features_per_split = data.draw(st.none() | st.integers(1, d))
        seed = data.draw(st.integers(0, 2**32 - 1))
        tree = grow_tree(x.T, y, unit_weights(y), n_classes, max_depth, min_leaf,
                         np.random.default_rng(seed), features_per_split)
        expected = cart_oracle(x, y, n_classes, max_depth, min_leaf,
                               np.random.default_rng(seed), features_per_split)
        assert tree_to_nodes(tree) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_trained_dtree_matches_brute_force_oracle(self, data):
        """``train_model("dtree")`` grows on the transposed rows, each row
        counted once."""
        x, y, n_classes = draw_node_data(data)
        assume(len(y) >= 2)
        classes = tuple(f"c{i}" for i in range(n_classes))
        ds = LabeledDataset(x, np.array(classes, dtype=object)[y], classes)
        max_depth = data.draw(st.none() | st.integers(1, 5))
        min_leaf = data.draw(st.integers(1, 4))
        model = train_model("dtree", ds, {"max_depth": max_depth, "min_leaf": min_leaf})
        expected = cart_oracle(ds.features, ds.label_indices, n_classes, max_depth, min_leaf)
        assert tree_to_nodes(model.params) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bootstrap_tree_matches_brute_force_oracle(self, data):
        """A forest tree's sample: rows drawn with repeats, some never. Its
        distinct rows weighted by their draw counts grow the same tree."""
        x, y, n_classes = draw_node_data(data)
        n, d = x.shape
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        min_leaf = data.draw(st.integers(1, 3))
        max_depth = data.draw(st.none() | st.integers(0, 5))
        features_per_split = data.draw(st.none() | st.integers(1, d))
        seed = data.draw(st.integers(0, 2**32 - 1))
        copy = grow_tree(x[rows].T, y[rows], unit_weights(rows), n_classes, max_depth, min_leaf,
                         np.random.default_rng(seed), features_per_split)
        expected = cart_oracle(x[rows], y[rows], n_classes, max_depth, min_leaf,
                               np.random.default_rng(seed), features_per_split)
        weighted = grow_tree(x.T, y, np.bincount(rows, minlength=n), n_classes, max_depth, min_leaf,
                             np.random.default_rng(seed), features_per_split)
        assert tree_to_nodes(copy) == expected
        assert tree_to_nodes(weighted) == expected

    @pytest.mark.parametrize("n", [200, 33_000])
    def test_large_nodes_match_oracle(self, n):
        """Nodes large enough that the squared class counts need 32- and
        64-bit sums: 2 n^2 passes 2^15 at 200 rows and 2^31 at 33,000."""
        rng = np.random.default_rng(n)
        x = rng.integers(0, 400, size=(n, 2)) / 4.0
        y = (x[:, 1] > 60).astype(np.int64) + (rng.random(n) < 0.3)
        tree = grow_tree(x.T, y, unit_weights(y), 3, 1, 1)
        assert tree_to_nodes(tree) == cart_oracle(x, y, 3, 1, 1)
        assert tree.feature[0] == 1

    def test_saved_trees_match_golden_digests(self):
        """A dtree and a 7-tree forest on a fixed data set save to the same
        bytes as when these digests were taken, so the split search still
        grows the same trees."""
        data = make_dataset(np.random.default_rng(40), n=120, dim=8, classes=("a", "b", "c", "d"))
        for kind, params, digest in (
            ("dtree", {}, GOLDEN_DTREE_SHA256),
            ("rforest", {"n_trees": 7}, GOLDEN_RFOREST_SHA256),
        ):
            buf = io.StringIO()
            save_model(train_model(kind, data, params, seed=5), buf)
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, kind
            resaved = io.StringIO()  # and the saved trees load as trees
            save_model(load_model(io.StringIO(buf.getvalue())), resaved)
            assert resaved.getvalue() == buf.getvalue(), kind


class TestTreeArrays:
    CLASSES = ("a", "b", "c")

    def random_nodes(self, rng, n_features, max_depth):
        """Preorder node list of a random tree with thresholds on a 0.1 grid."""
        nodes = []

        def grow(depth):
            slot = len(nodes)
            nodes.append({})
            if depth == max_depth or rng.random() < 0.25:
                nodes[slot] = {"leaf": int(rng.integers(len(self.CLASSES)))}
            else:
                feature = int(rng.integers(n_features))
                threshold = float(np.round(rng.standard_normal(), 1))
                left = grow(depth + 1)
                right = grow(depth + 1)
                nodes[slot] = {"feature": feature, "threshold": threshold, "left": left, "right": right}
            return slot

        grow(0)
        return nodes

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_depth=st.integers(0, 7))
    def test_predict_matches_walk_oracle_on_random_trees(self, seed, max_depth):
        rng = np.random.default_rng(seed)
        nodes = self.random_nodes(rng, n_features=4, max_depth=max_depth)
        tree = tree_from_nodes(nodes, 4, len(self.CLASSES))
        assert tree_to_nodes(tree) == nodes
        model = TrainedModel(kind="dtree", params=tree, class_list=self.CLASSES, n_features=4)
        # on the same 0.1 grid, many queries land exactly on a threshold
        queries = np.round(rng.standard_normal((200, 4)), 1)
        expected = [self.CLASSES[tree_walk_oracle(nodes, q)] for q in queries]
        assert list(predict(model, queries)) == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 120))
    def test_predict_matches_walk_oracle_on_trained_tree(self, seed, n):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n=n)
        model = train_model("dtree", data)
        nodes = tree_to_nodes(model.params)
        queries = rng.standard_normal((100, data.n_features)) * 2
        for q in queries:  # put one coordinate on a split threshold
            split = nodes[int(rng.choice(np.flatnonzero(model.params.feature >= 0)))]
            q[split["feature"]] = split["threshold"]
        expected = [data.class_list[tree_walk_oracle(nodes, q)] for q in queries]
        assert list(predict(model, queries)) == expected


class TestRandomForest:
    def test_degenerate_forest_equals_tree(self):
        rng = np.random.default_rng(9)
        data = make_dataset(rng, n=60, dim=4)
        seed = 4
        forest = train_model("rforest", data, {"n_trees": 1, "features_per_split": data.n_features}, seed=seed)
        # the forest's one tree draws its bootstrap rows first from its own RNG
        tree_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        rows = tree_rng.integers(0, len(data), size=len(data))
        bootstrap = LabeledDataset(
            features=data.features[rows], labels=data.labels[rows], class_list=data.class_list
        )
        tree = train_model("dtree", bootstrap)
        queries = rng.standard_normal((40, 4)) * 2
        assert (predict(forest, queries) == predict(tree, queries)).all()

    def test_same_seed_same_model_and_predictions(self):
        rng = np.random.default_rng(10)
        data = make_dataset(rng, n=60)
        a = train_model("rforest", data, {"n_trees": 7}, seed=3)
        b = train_model("rforest", data, {"n_trees": 7}, seed=3)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        save_model(a, buf_a)
        save_model(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        q = rng.standard_normal((20, data.n_features))
        assert (predict(a, q) == predict(b, q)).all()

    def test_train_accuracy_at_least_majority_baseline(self):
        for seed in range(4):
            r = np.random.default_rng(seed)
            x = r.standard_normal((40, 3))
            labels = np.array([f"c{int(v)}" for v in r.integers(0, 3, 40)], dtype=object)
            data = LabeledDataset(
                features=x, labels=labels, class_list=tuple(sorted(set(labels)))
            )
            model = train_model("rforest", data, {"n_trees": 15}, seed=seed)
            acc = (predict(model, x) == labels).mean()
            majority = max(
                np.bincount([list(data.class_list).index(l) for l in labels])
            ) / len(labels)
            assert acc >= majority - 1e-12

    def test_forest_at_least_single_tree_on_separable_data(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((120, 6))
        labels = np.array([f"c{i % 3}" for i in range(120)], dtype=object)
        for i in range(3):
            x[np.arange(120) % 3 == i] += i * 1.5
        data = LabeledDataset(features=x, labels=labels, class_list=("c0", "c1", "c2"))
        test_x = rng.standard_normal((60, 6))
        test_labels = np.array([f"c{i % 3}" for i in range(60)], dtype=object)
        for i in range(3):
            test_x[np.arange(60) % 3 == i] += i * 1.5
        tree = train_model("dtree", data, {"max_depth": 3})
        forest = train_model("rforest", data, {"n_trees": 25, "max_depth": 3}, seed=1)
        tree_acc = (predict(tree, test_x) == test_labels).mean()
        forest_acc = (predict(forest, test_x) == test_labels).mean()
        assert forest_acc >= tree_acc


class TestMlp:
    def xor_dataset(self, copies=8):
        base_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        base_y = ["even", "odd", "odd", "even"]
        x = np.tile(base_x, (copies, 1))
        labels = np.array(base_y * copies, dtype=object)
        return LabeledDataset(features=x, labels=labels, class_list=("even", "odd"))

    def test_xor_reaches_full_train_accuracy(self):
        data = self.xor_dataset()
        params = dict(
            hidden_layers=(8,), learning_rate=0.5, batch_size=8,
            max_epochs=2000, early_stop_patience=2000,
        )
        model = train_model("mlp", data, params, seed=1)
        preds = predict(model, data.features)
        assert (preds == data.labels).mean() == 1.0

    def test_proba_sums_to_one(self):
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=40)
        model = train_model("mlp", data, {"max_epochs": 5}, seed=0)
        probs = forward(model.params, rng.standard_normal((25, data.n_features)) * 3)[-1]
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert (probs >= 0).all()

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 2))
        y = np.zeros((5, 2))
        y[np.arange(5), rng.integers(0, 2, 5)] = 1.0
        worst = 0.0
        for point in range(10):
            params = init_params([2, 3, 2], "tanh", np.random.default_rng(100 + point))
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

    def test_determinism_with_fixed_seed(self):
        rng = np.random.default_rng(14)
        data = make_dataset(rng, n=50)
        a, b = (train_model("mlp", data, {"max_epochs": 20}, seed=9) for _ in range(2))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        save_model(a, buf_a)
        save_model(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_with_epoch(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng, n=30)
        with pytest.raises(ValueError, match="diverged at epoch"):
            train_model("mlp", data, {"learning_rate": 1e12, "max_epochs": 50}, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fit_matches_oracle(self, data):
        """2-5 classes, 1-2 hidden layers, relu and tanh, a batch size that
        does not divide the training rows, patience that may or may not fire;
        a 1e-13 learning rate moves the validation loss by less than the
        1e-12 an epoch must gain to count as better."""
        n_classes = data.draw(st.integers(2, 5), "classes")
        n = data.draw(st.integers(2 * n_classes + 2, 40), "rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "data seed"))
        y = rng.integers(0, n_classes, n)
        x = rng.standard_normal((n, data.draw(st.integers(1, 5), "dim"))) + y[:, None]
        cfg = MlpConfig(
            hidden_layers=data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=2), "hidden"),
            activation=data.draw(st.sampled_from(["relu", "tanh"]), "activation"),
            learning_rate=data.draw(st.sampled_from([1e-13, 0.01, 0.2, 1.0]), "learning rate"),
            batch_size=data.draw(st.integers(2, 12), "batch"),
            max_epochs=data.draw(st.integers(1, 12), "epochs"),
            early_stop_patience=data.draw(st.integers(1, 4), "patience"),
            validation_fraction=data.draw(st.sampled_from([0.15, 0.3, 0.5]), "validation"),
            seed=data.draw(st.integers(0, 2**32 - 1), "seed"),
        )
        counts = np.bincount(y)
        n_val = sum(max(1, round(cfg.validation_fraction * c)) for c in counts if c)
        assume((n - n_val) % cfg.batch_size)
        classes = tuple(f"c{i}" for i in range(n_classes))
        dataset = LabeledDataset(x, np.array(classes, dtype=object)[y], classes)
        params = {f.name: getattr(cfg, f.name) for f in fields(MlpConfig) if f.name != "seed"}
        try:
            weights, biases, epochs_run = mlp_fit_oracle(x, y, n_classes, cfg)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                train_model("mlp", dataset, params, seed=cfg.seed)
            return
        fitted = train_model("mlp", dataset, params, seed=cfg.seed).params
        assert fitted.epochs_run == epochs_run
        assert all(map(np.array_equal, fitted.weights, weights))
        assert all(map(np.array_equal, fitted.biases, biases))

    @pytest.mark.parametrize("patience, fires", [(1, True), (50, False)])
    def test_early_stop_matches_oracle(self, patience, fires):
        """39 training rows in batches of 8; patience 1 stops at epoch 3 of 30."""
        data = make_dataset(np.random.default_rng(16), n=45, dim=4)
        params = {"hidden_layers": (6, 5), "activation": "tanh", "learning_rate": 0.3,
                  "batch_size": 8, "max_epochs": 30, "early_stop_patience": patience}
        fitted = train_model("mlp", data, params, seed=3).params
        weights, biases, epochs_run = mlp_fit_oracle(
            data.features, data.label_indices, 3, MlpConfig(**params, seed=3)
        )
        assert (fitted.epochs_run < 30, fitted.epochs_run) == (fires, epochs_run)
        assert all(map(np.array_equal, fitted.weights, weights))
        assert all(map(np.array_equal, fitted.biases, biases))

    def test_saved_model_matches_golden_digest(self):
        """A two-layer MLP that stops early (epoch 23 of 60) saves to the same
        bytes as when this digest was taken."""
        data = make_dataset(np.random.default_rng(40), n=120, dim=8, classes=("a", "b", "c", "d"))
        params = {"hidden_layers": (16, 8), "max_epochs": 60, "early_stop_patience": 4,
                  "learning_rate": 0.1, "batch_size": 16}
        buf = io.StringIO()
        save_model(train_model("mlp", data, params, seed=5), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_MLP_SHA256

    def test_validation_fraction_bounds(self):
        with pytest.raises(ValueError):
            MlpConfig(validation_fraction=0.0)
        with pytest.raises(ValueError):
            MlpConfig(validation_fraction=0.6)


class TestRegistry:
    def test_every_kind_declares_seeded(self):
        seeded = {kind: entry.seeded for kind, entry in REGISTRY.items()}
        assert seeded == {"knn": False, "dtree": False, "rforest": True, "mlp": True}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_only_seeded_kinds_depend_on_the_seed(self, kind):
        data = make_dataset(np.random.default_rng(27), n=50)
        saved = []
        for seed in (1, 2):
            buf = io.StringIO()
            save_model(train_model(kind, data, KIND_PARAMS[kind], seed=seed), buf)
            saved.append(buf.getvalue())
        assert (saved[0] != saved[1]) == REGISTRY[kind].seeded


class TestPredictContract:
    @pytest.mark.parametrize("kind", ["knn", "dtree", "rforest", "mlp"])
    def test_single_class_data_rejected(self, kind):
        x = np.random.default_rng(0).standard_normal((10, 3))
        labels = np.array(["only"] * 10, dtype=object)
        data = LabeledDataset(features=x, labels=labels, class_list=("only",))
        with pytest.raises(InsufficientData, match="at least 2 classes"):
            train_model(kind, data)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("knn", {"k": 0}, "k must be >= 1"),
            ("dtree", {"min_leaf": 0}, "min_leaf must be >= 1"),
            ("rforest", {"n_trees": 0}, "n_trees must be >= 1"),
            ("mlp", {"activation": "junk"}, "activation must be one of"),
        ],
    )
    def test_out_of_range_params_rejected_before_data_checks(self, kind, params, message):
        x = np.random.default_rng(0).standard_normal((10, 3))
        labels = np.array(["only"] * 10, dtype=object)
        data = LabeledDataset(features=x, labels=labels, class_list=("only",))
        with pytest.raises(ValueError, match=message) as caught:
            train_model(kind, data, params)
        assert caught.type is ValueError  # not the single-class InsufficientData

    def test_all_kinds_return_known_labels(self):
        rng = np.random.default_rng(16)
        data = make_dataset(rng, n=60)
        models = [
            train_model("knn", data, {"k": 3}),
            train_model("dtree", data, {"max_depth": 4}),
            train_model("rforest", data, {"n_trees": 5}, seed=0),
            train_model("mlp", data, {"max_epochs": 10}, seed=0),
        ]
        queries = rng.standard_normal((50, data.n_features)) * 5
        for model in models:
            out = predict(model, queries)
            assert set(out) <= set(data.class_list)

    @pytest.mark.parametrize("kind", ["knn", "dtree", "rforest", "mlp"])
    @pytest.mark.parametrize("shape", ["vector", "matrix"])
    def test_non_finite_query_rejected(self, kind, shape):
        data = make_dataset(np.random.default_rng(18), classes=("a", "b"))
        model = train_kind(kind, data)
        for value in (np.nan, np.inf, -np.inf):
            query = np.zeros(data.n_features) if shape == "vector" else np.zeros((3, data.n_features))
            query[..., -1] = value
            with pytest.raises(ValueError, match="non-finite"):
                predict(model, query)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(17)
        data = make_dataset(rng)
        model = train_model("knn", data, {"k": 1})
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(model, np.zeros(data.n_features + 1))


class TestSaveLoad:
    @pytest.mark.parametrize("kind", ["knn", "dtree", "rforest", "mlp"])
    def test_round_trip_identical_predictions(self, kind, tmp_path):
        rng = np.random.default_rng(18)
        data = make_dataset(rng, n=50)
        model = train_kind(kind, data)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        resaved = tmp_path / f"{kind}-resaved.json"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()
        queries = rng.standard_normal((100, data.n_features)) * 3
        assert (predict(model, queries) == predict(loaded, queries)).all()
        if kind == "mlp":
            assert np.array_equal(
                forward(model.params, queries)[-1], forward(loaded.params, queries)[-1]
            )

    @pytest.mark.parametrize(
        "kind, path",
        [
            ("knn", ("n_features",)),
            ("knn", ("params", "train_y")),
            ("dtree", ("params", "nodes", 0, "threshold")),
            ("rforest", ("params", "trees", 0, 0, "left")),
            ("mlp", ("params", "config", "batch_size")),
        ],
    )
    def test_missing_key_is_named_value_error(self, kind, path, tmp_path):
        rng = np.random.default_rng(23)
        file = tmp_path / "model.json"
        save_model(train_kind(kind, make_dataset(rng, n=50)), file)
        doc = json.loads(file.read_text())
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        del holder[path[-1]]
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"missing key '{path[-1]}'"):
            load_model(file)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("left", 99, "children"),       # child index past the end
            ("right", 0, "children"),       # self-loop at the root
            ("feature", 5, "feature 5"),    # == n_features
            ("feature", -1, "feature -1"),
            ("leaf", 3, "leaf class 3"),    # == len(class_list)
        ],
    )
    def test_malformed_tree_rejected(self, field, value, message, tmp_path):
        rng = np.random.default_rng(24)
        file = tmp_path / "model.json"
        save_model(train_model("dtree", make_dataset(rng), {"max_depth": 4}), file)
        doc = json.loads(file.read_text())
        nodes = doc["params"]["nodes"]
        node = next(spec for spec in nodes if (field == "leaf") == ("leaf" in spec))
        node[field] = value
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(file)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            (   # both children are node 2, node 1 is no node's child
                [{"feature": 0, "threshold": 0.5, "left": 2, "right": 2}, {"leaf": 1}, {"leaf": 0}],
                "tree node 0: children 2, 2",
            ),
            (   # node 3 is no node's child
                [{"feature": 0, "threshold": 0.5, "left": 1, "right": 2}, {"leaf": 1}, {"leaf": 0},
                 {"leaf": 0}],
                "tree node 3 is the child of 0 splits",
            ),
            (   # node 3 is the child of nodes 0 and 1
                [{"feature": 0, "threshold": 0.5, "left": 1, "right": 3},
                 {"feature": 1, "threshold": 0.5, "left": 2, "right": 3}, {"leaf": 1}, {"leaf": 0}],
                "tree node 3 is the child of 2 splits",
            ),
        ],
    )
    def test_node_lists_that_are_not_trees_rejected(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            tree_from_nodes(nodes, 2, 2)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        model = train_model("knn", make_dataset(rng), {"k": 1})
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(ValueError, match="could not parse"):
            load_model(path)

    def test_wrong_schema_dims_rejected(self, tmp_path):
        rng = np.random.default_rng(22)
        model = train_model("knn", make_dataset(rng), {"k": 1})
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = path.read_text().replace('"n_features": 5', '"n_features": 9')
        path.write_text(doc)
        with pytest.raises(ValueError, match="schema mismatch"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(20)
        model = train_model("knn", make_dataset(rng), {"k": 1})
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        doc = text.replace(f'"format_version": {FORMAT_VERSION}', '"format_version": 99')
        assert doc != text
        path.write_text(doc)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_version_1_refused_with_retrain_hint(self, tmp_path):
        path = tmp_path / "model.json"
        version = f'"format_version": {FORMAT_VERSION}'
        path.write_text(GOLDEN_KNN_V2.replace(version, '"format_version": 1'))
        with pytest.raises(ValueError, match="version 1, .*retrain the model with `driverid train`"):
            load_model(path)

    def test_golden_v2_file_pins_little_endian_layout(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(GOLDEN_KNN_V2)
        model = load_model(path)
        assert np.array_equal(model.params.train_x, [[1.0, -2.0], [0.5, 3.0]])
        assert model.params.train_y.tolist() == [0, 1]
        assert model.standardizer.mean.tolist() == [0.0, 1.0]
        assert model.standardizer.std.tolist() == [1.0, 2.0]
        assert predict(model, np.array([[0.4, 2.0], [1.2, -1.0]])).tolist() == ["b", "a"]
        resaved = tmp_path / "resaved.json"
        save_model(model, resaved)
        assert resaved.read_text() == GOLDEN_KNN_V2

    @pytest.mark.parametrize(
        "kind, edits, message",
        [
            ("knn", {("params", "k"): 0}, "k must be >= 1"),
            ("knn", {("params", "k"): 51}, "k=51 exceeds 50 stored rows"),
            ("knn", {("params", "train_y"): encode_array(np.full(50, 3), "<i8")}, "class index in"),
            ("knn", {("standardizer", "mean"): encode_array(np.zeros(4), "<f8")}, "standardizer"),
            ("knn", {("params", "train_x", "dtype"): "<f4"}, "train_x: dtype '<f4'"),
            ("knn", {("params", "train_y", "dtype"): "<f8"}, "train_y: dtype '<f8'"),
            ("knn", {("params", "train_x", "shape"): [49, 5]}, "train_x: 2000 bytes of data"),
            ("knn", {("params", "train_x", "shape"): [50, -5]}, "train_x: shape"),
            ("knn", {("params", "train_x", "data"): "AAAA AAAA"}, "train_x: bad base64"),
            ("knn", {("params", "train_x"): [[0.0] * 5] * 50}, "train_x: expected an array object"),
            (
                "mlp",
                {
                    ("params", "weights", 1): encode_array(np.zeros((100, 4)), "<f8"),
                    ("params", "biases", 1): encode_array(np.zeros(4), "<f8"),
                },
                "output layer is 4 wide, header has 3 classes",
            ),
            ("mlp", {("params", "biases", 0): encode_array(np.zeros(99), "<f8")}, "layer 0 has"),
            ("mlp", {("params", "weights", 1): encode_array(np.zeros((99, 3)), "<f8")}, "layer 1 has"),
            ("mlp", {("params", "activation"): "sigmoid"}, "activation must be one of"),
            ("mlp", {("params", "activation"): "tanh"}, "config.activation 'relu' differs from activation 'tanh'"),
            ("knn", {("params", "train_x"): encode_array(np.full((50, 5), np.nan), "<f8")},
             "train_x: non-finite value"),
            ("dtree", {("params", "nodes", 0, "threshold"): float("nan")},
             "tree node 0: threshold nan is not finite"),
            ("dtree", {("params", "nodes", 0, "threshold"): float("-inf")},
             "tree node 0: threshold -inf is not finite"),
            ("rforest", {("params", "n_trees"): 6}, "n_trees=6 but holds 5 trees"),
            # limits a config refuses
            ("rforest", {("params", "max_depth"): -3}, "max_depth must be >= 1"),
            ("rforest", {("params", "max_depth"): 0}, "max_depth must be >= 1"),
            ("rforest", {("params", "features_per_split"): 0}, "features_per_split must be >= 1"),
            # counts and indices must be JSON integers, not floats or booleans
            ("knn", {("format_version",): 2.0}, "format_version: expected an integer, got 2.0"),
            ("knn", {("n_features",): 5.0}, "n_features: expected an integer, got 5.0"),
            ("knn", {("params", "k"): 2.7}, "k: expected an integer, got 2.7"),
            ("knn", {("params", "k"): True}, "k: expected an integer, got True"),
            ("rforest", {("params", "n_trees"): 5.0}, "n_trees: expected an integer, got 5.0"),
            ("rforest", {("params", "features_per_split"): 3.0}, "features_per_split: expected an integer"),
            ("rforest", {("params", "seed"): 2.0}, "seed: expected an integer, got 2.0"),
            ("rforest", {("params", "trees", 0, 0, "left"): 1.0}, "tree node 0: left: expected an integer"),
            ("dtree", {("params", "nodes", 0, "feature"): 0.0}, "tree node 0: feature: expected an integer"),
            ("dtree", {("params", "nodes", 0, "right"): True}, "tree node 0: right: expected an integer"),
            ("dtree", {("params", "nodes", -1, "leaf"): 0.0}, r"tree node \d+: leaf: expected an integer"),
            ("mlp", {("params", "epochs_run"): 15.0}, "epochs_run: expected an integer, got 15.0"),
            ("rforest", {("params", "max_depth"): "junk"}, "max_depth: expected an integer, got 'junk'"),
            ("rforest", {("params", "max_depth"): 2.5}, "max_depth: expected an integer, got 2.5"),
            ("mlp", {("params", "config", "batch_size"): 32.9}, "config.batch_size: expected an integer, got 32.9"),
            ("mlp", {("params", "config", "hidden_layers"): [4.7]}, "config.hidden_layers: expected an integer, got 4.7"),
            ("mlp", {("params", "config", "hidden_layers"): 5}, "config.hidden_layers: expected a list, got 5"),
            ("mlp", {("params", "config", "max_epochs"): 15.0}, "config.max_epochs: expected an integer, got 15.0"),
            ("mlp", {("params", "config", "early_stop_patience"): True}, "config.early_stop_patience: expected an integer"),
            ("mlp", {("params", "config", "seed"): 2.0}, "config.seed: expected an integer, got 2.0"),
        ],
    )
    def test_bad_stored_values_rejected(self, kind, edits, message, tmp_path):
        rng = np.random.default_rng(25)
        model = train_kind(kind, make_dataset(rng, n=50))
        model.standardizer = Standardizer(mean=np.zeros(5), std=np.ones(5))
        file = tmp_path / "model.json"
        save_model(model, file)
        doc = json.loads(file.read_text())
        for path, value in edits.items():
            holder = doc
            for step in path[:-1]:
                holder = holder[step]
            holder[path[-1]] = value
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(file)

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_non_object_file_rejected(self, text):
        with pytest.raises(ValueError, match="model file is not a JSON object"):
            load_model(io.StringIO(text))

    def test_standardizer_round_trips(self, tmp_path):
        rng = np.random.default_rng(21)
        data = make_dataset(rng)
        model = train_model("knn", data, {"k": 1})
        model.standardizer = Standardizer(
            mean=rng.standard_normal(data.n_features),
            std=np.abs(rng.standard_normal(data.n_features)) + 0.1,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.standardizer.mean, model.standardizer.mean)
        assert np.array_equal(loaded.standardizer.std, model.standardizer.std)


class TestArrayDoc:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_identical_and_matches_oracle(self, data):
        code = data.draw(st.sampled_from(["<f8", "<i8"]))
        dtype = np.dtype(code).newbyteorder("=")
        elements = (
            st.floats(width=64)  # NaN payloads, +-inf, -0.0, subnormals, huge values
            if code == "<f8"
            else st.integers(-(2**63), 2**63 - 1)
        )
        shape = data.draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
        a = data.draw(arrays(dtype, shape, elements=elements))
        for arr in (a, a.T):  # a transposed array is written in C order too
            doc = encode_array(arr, code)
            oracle_shape, values = array_doc_oracle(doc)
            assert oracle_shape == arr.shape
            expected = np.array(values, dtype=dtype).reshape(oracle_shape)
            assert np.array_equal(expected.view(np.uint64), arr.view(np.uint64))
            if code == "<f8" and not np.isfinite(arr).all():
                with pytest.raises(ValueError, match="x: non-finite value"):
                    decode_array(json.loads(json.dumps(doc)), "x", code)
                continue
            back = decode_array(json.loads(json.dumps(doc)), "x", code)
            assert back.dtype == dtype and back.shape == arr.shape
            assert back.flags.c_contiguous and not back.flags.writeable
            assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


    @pytest.mark.parametrize("pieces", [1, 2])
    @pytest.mark.parametrize("delta", range(-3, 4))
    def test_pieces_straddling_the_piece_size_join_to_one_encoding(self, pieces, delta):
        raw = np.random.default_rng(pieces).integers(0, 256, pieces * ENCODE_PIECE_BYTES + delta, dtype=np.uint8)
        parts = list(array_doc(raw, "|u1")["data"])
        assert len(parts) == pieces + (delta > 0)
        assert "".join(parts) == base64.b64encode(raw.tobytes()).decode("ascii")


# class names and labels a writer must escape: quotes, backslashes, control
# characters and non-ASCII text
ODD_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\t\x7fé€😀\u2028'), max_size=6) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ODD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=12,
)
PIECE_ROWS = ENCODE_PIECE_BYTES // 8  # a 1-column "<f8" array of this many rows is one piece


@st.composite
def stored_arrays(draw, dtype, shape):
    """An array of `shape`, or one drawn as the transpose of its reverse-shaped array."""
    if draw(st.booleans(), label="transposed"):
        return draw(arrays(dtype, shape[::-1])).T
    return draw(arrays(dtype, shape))


class TestStreamedSave:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_file_equals_json_dumps_of_the_materialized_document(self, data):
        kind = data.draw(st.sampled_from(MODEL_KINDS), label="kind")
        piece = data.draw(st.sampled_from([3, 6, 24, ENCODE_PIECE_BYTES]), label="piece bytes")
        d = data.draw(st.integers(1, 4), label="d")
        classes = tuple(sorted(data.draw(st.sets(ODD_TEXT, min_size=1, max_size=4), label="classes")))
        if kind == "knn":
            n = data.draw(st.integers(0, 4) | st.integers(PIECE_ROWS - 3, PIECE_ROWS + 3), label="rows")
            cols = 1 if n > 4 else d
            params = KnnParams(
                k=data.draw(st.integers(1, 9)),
                train_x=data.draw(stored_arrays(np.float64, (n, cols))),
                train_y=data.draw(stored_arrays(np.int64, (n,))),
            )
        elif kind == "mlp":
            layer = st.tuples(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3), st.booleans())
            shapes = data.draw(st.lists(layer, min_size=1, max_size=3), label="layer shapes")
            params = MlpParams(
                weights=[data.draw(stored_arrays(np.float64, shape)) for shape, _ in shapes],
                biases=[data.draw(arrays(np.float64, shape[-1:])) for shape, _ in shapes],
                activation=data.draw(st.sampled_from(["relu", "tanh"])),
                config=data.draw(st.none() | st.just(MlpConfig(hidden_layers=(3, 2)))),
                epochs_run=data.draw(st.integers(0, 10**6)),
            )
        else:
            params = train_kind(kind, make_dataset(np.random.default_rng(d), n=30, dim=d)).params
        model = TrainedModel(
            kind=kind,
            params=params,
            class_list=classes,
            n_features=d,
            standardizer=data.draw(st.none() | st.builds(
                Standardizer, arrays(np.float64, d), arrays(np.float64, d, elements=st.floats(0.5, 2.0))
            )),
            schema_labels=data.draw(st.none() | st.lists(ODD_TEXT, min_size=1, max_size=d).map(tuple)),
            pipeline=data.draw(st.none() | st.dictionaries(ODD_TEXT, JSON_VALUES, max_size=4), label="pipeline"),
        )
        std = model.standardizer
        expected = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "kind": kind,
                "class_list": list(classes),
                "n_features": d,
                "pipeline": model.pipeline,
                "schema_labels": list(model.schema_labels) if model.schema_labels else None,
                "standardizer": None if std is None else {
                    "mean": encode_array(std.mean, "<f8"), "std": encode_array(std.std, "<f8"),
                },
                "params": materialized(REGISTRY[kind].to_doc(params)),
            },
            indent=1,
        )
        stream = io.StringIO()
        with patch.object(model_base, "ENCODE_PIECE_BYTES", piece), tempfile.TemporaryDirectory() as tmp:
            save_model(model, stream)
            save_model(model, Path(tmp) / "model.json")
            written = (Path(tmp) / "model.json").read_bytes()
        assert stream.getvalue() == expected
        assert written == expected.encode("ascii")

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        JSON_VALUES | st.lists(st.text("AZaz09+/=", max_size=5), max_size=3).map(tuple),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
        max_leaves=12,
    ))
    def test_writer_streams_iterators_anywhere(self, doc):
        # a tuple of text stands for the base64 pieces of one array
        def pieces_as(join, value):
            if isinstance(value, dict):
                return {key: pieces_as(join, item) for key, item in value.items()}
            if isinstance(value, tuple):
                return "".join(value) if join else iter(value)
            if isinstance(value, list):
                return [pieces_as(join, item) for item in value]
            return value

        stream = io.StringIO()
        model_io._dump(pieces_as(False, doc), stream.write)
        assert stream.getvalue() == json.dumps(pieces_as(True, doc), indent=1)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"AAAA", np.int64(1)])
    def test_writer_refuses_what_json_dumps_refuses(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps({"a": [value]})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            model_io._dump({"a": [value]}, io.StringIO().write)

    def test_save_and_load_leave_no_cycle_holding_the_rows(self, tmp_path):
        # a reference cycle would keep every training row until a full collection
        model = train_model("knn", make_dataset(np.random.default_rng(3), n=400), {"k": 3})
        path = tmp_path / "model.json"
        gc.collect()
        gc.disable()
        try:
            saved_rows = weakref.ref(model.params.train_x)
            save_model(model, path)
            del model
            assert saved_rows() is None
            loaded_rows = weakref.ref(load_model(path).params.train_x)
            assert loaded_rows() is None
        finally:
            gc.enable()


def b64_or_error(text):
    try:
        return base64.b64decode(text, validate=True), None
    except (ValueError, TypeError) as err:
        return None, err


def assert_decodes_as_whole_string(text, shape):
    """decode_array accepts `text` and `shape` exactly when whole-string
    b64decode(validate=True) gives the shape's byte count, with its bits,
    and otherwise raises that call's error or the byte-count error."""
    raw, err = b64_or_error(text)
    doc = {"dtype": "<i8", "shape": shape, "data": text}
    if err is not None:
        with pytest.raises(ValueError) as caught:
            decode_array(doc, "x", "<i8")
        assert str(caught.value) == f"x: bad base64 data ({err})"
    elif len(raw) != 8 * math.prod(shape):
        with pytest.raises(ValueError) as caught:
            decode_array(doc, "x", "<i8")
        assert str(caught.value) == f"x: {len(raw)} bytes of data for shape {shape}"
    else:
        arr = decode_array(doc, "x", "<i8")
        assert arr.shape == tuple(shape) and arr.flags.c_contiguous and not arr.flags.writeable
        assert np.array_equal(arr, np.frombuffer(raw, "<i8").reshape(shape))


PIECE_CHARS = ENCODE_PIECE_BYTES // 3 * 4  # the base64 of one written piece


class TestChunkedDecode:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_accepts_and_rejects_what_whole_string_decoding_does(self, data):
        # edits cluster around multiples of `chars`, where base64's four-character groups meet
        chars = data.draw(st.sampled_from([4, 8, 12, 16]), label="boundary step")
        payload = data.draw(st.binary(max_size=80), label="payload")
        text = base64.b64encode(payload).decode("ascii")
        near_boundary = st.integers(0, 6).flatmap(lambda k: st.integers(k * chars - 2, k * chars + 2))
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            at = min(max(data.draw(near_boundary | st.integers(0, len(text)), label="at"), 0), len(text))
            edit = data.draw(st.sampled_from(["insert", "replace", "delete", "cut"]), label="edit")
            char = data.draw(st.sampled_from(list("==A/+ \n\t!-_.é\x00")), label="char")
            if edit == "insert":
                text = text[:at] + char + text[at:]
            elif edit == "replace":
                text = text[:at] + char + text[at + 1 :]
            elif edit == "delete":
                text = text[:at] + text[at + 1 :]
            else:  # the length one character around a slice boundary
                text = text[:at] if at < len(text) else text + "A" * (at - len(text) + 1)
        raw, _ = b64_or_error(text)
        right = [len(raw) // 8] if raw is not None and len(raw) % 8 == 0 else []
        count = data.draw(st.sampled_from(right + [0, 1, 2, len(payload) // 8 + 1]), label="count")
        shape = data.draw(st.sampled_from([[count], [count, 1], [1, count]]), label="shape")
        assert_decodes_as_whole_string(text, shape)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t,
            lambda t: t[:-1],                                          # one character short
            lambda t: t + "A",                                         # one character long
            lambda t: t[:PIECE_CHARS] + "=" + t[PIECE_CHARS + 1 :],    # padding at a piece boundary
            lambda t: t[: PIECE_CHARS - 1] + "=" + t[PIECE_CHARS:],    # padding ending a piece
            lambda t: t[:100] + "==" + t[102:],                        # padding inside a piece
            lambda t: t[: PIECE_CHARS + 5] + " " + t[PIECE_CHARS + 6 :],  # whitespace
            lambda t: t[:7] + "-" + t[8:],                             # a character outside the alphabet
            lambda t: t[:7] + "é" + t[8:],                             # not ASCII
        ],
    )
    @pytest.mark.parametrize("rows", [PIECE_CHARS // 32 * 3, PIECE_CHARS // 16 * 3 + 1])
    def test_real_slice_size(self, edit, rows):
        # `rows` int64 values: exactly one piece of base64, or two pieces and a bit
        text = base64.b64encode(np.arange(rows, dtype="<i8").tobytes()).decode("ascii")
        for shape in ([rows], [rows + 1]):
            assert_decodes_as_whole_string(edit(text), shape)

    @pytest.mark.parametrize("data", [5, None, ["AAAA"], {"a": 1}, "AAAé", "AAAA AAAA"])
    def test_non_text_and_non_ascii_data_worded_as_b64decode(self, data):
        if isinstance(data, str):
            assert_decodes_as_whole_string(data, [0])
        else:  # worded by binascii, which b64decode words "a bytes-like object or ASCII string"
            with pytest.raises(ValueError) as caught:
                decode_array({"dtype": "<i8", "shape": [0], "data": data}, "x", "<i8")
            assert str(caught.value) == (
                f"x: bad base64 data (argument should be bytes, buffer or ASCII string, not {type(data).__name__!r})"
            )


GOLDEN_DTREE_SHA256 = "1028714fa2b4d8a4d5394741ee05cef2a85b7a716e7bec4e44018f012b014013"
GOLDEN_RFOREST_SHA256 = "e7add055691c9d90beb9750dfe21501188929a82c6354a469e1f6f811dd7050f"
GOLDEN_MLP_SHA256 = "f217092ea4b665a715fc1bdd1bd942888e7a94b5b2f39c93b00aec0be6cf076e"

# a knn model, k = 1, rows (1, -2) and (0.5, 3) of classes a and b, standardizer
# mean (0, 1) and std (1, 2): 1.0 is 00 00 00 00 00 00 f0 3f as "<f8", 1 is
# 01 00 00 00 00 00 00 00 as "<i8"
GOLDEN_KNN_V2 = """{
 "format_version": 2,
 "kind": "knn",
 "class_list": [
  "a",
  "b"
 ],
 "n_features": 2,
 "pipeline": null,
 "schema_labels": null,
 "standardizer": {
  "mean": {
   "dtype": "<f8",
   "shape": [
    2
   ],
   "data": "AAAAAAAAAAAAAAAAAADwPw=="
  },
  "std": {
   "dtype": "<f8",
   "shape": [
    2
   ],
   "data": "AAAAAAAA8D8AAAAAAAAAQA=="
  }
 },
 "params": {
  "k": 1,
  "train_x": {
   "dtype": "<f8",
   "shape": [
    2,
    2
   ],
   "data": "AAAAAAAA8D8AAAAAAAAAwAAAAAAAAOA/AAAAAAAACEA="
  },
  "train_y": {
   "dtype": "<i8",
   "shape": [
    2
   ],
   "data": "AAAAAAAAAAABAAAAAAAAAA=="
  }
 }
}"""
