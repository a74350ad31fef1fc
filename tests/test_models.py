import functools
import gc
import hashlib
import io
import json
import math
import pickle
import struct
import tempfile
import weakref
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from driverid.features import Standardizer
from driverid.models import LabeledDataset, MlpConfig, TrainedModel, load_model, predict, save_model
from driverid.models import base as model_base
from driverid.models.io import FORMAT_VERSION
from driverid.models.forest import ForestParams
from driverid.models.knn import QUERY_BLOCK, KnnParams
from driverid.models.mlp import MlpParams, forward, init_params, loss_and_grads
from driverid.models.registry import MODEL_KINDS, REGISTRY
from driverid.models.tree import Tree, check_tree, grow_tree, tree_depth
from driverid.npz import read_arrays, write_arrays
from driverid.pipeline import train_model
from driverid.segment import InsufficientData
from conftest import DELETE, HEADER_VALUES, edit_saved, header_places, labeled
from oracles import (
    cart_oracle,
    knn_oracle,
    mlp_fit_oracle,
    tree_check_oracle,
    tree_to_nodes,
    tree_walk_oracle,
)


KIND_PARAMS = {"knn": {"k": 3}, "dtree": {"max_depth": 4}, "rforest": {"n_trees": 5}, "mlp": {"max_epochs": 15}}


def train_kind(kind, data):
    return train_model(kind, data, KIND_PARAMS[kind], seed=2)


def make_dataset(rng, n=60, dim=5, classes=("a", "b", "c")):
    x = rng.standard_normal((n, dim))
    labels = np.array([classes[i % len(classes)] for i in range(n)], dtype=object)
    # give each class a mean offset so data is learnable
    for i, c in enumerate(classes):
        x[labels == c] += i * 2.0
    return labeled(x, labels, sorted(classes))


def arrays_sha256(params) -> str:
    """sha256 over the dtype, shape and C-order bytes of each trained array
    of a tree, forest or MLP: a digest of training that no file format enters."""
    if isinstance(params, Tree):
        arrays = [params.feature, params.threshold, params.left, params.right, params.leaf_class]
    elif hasattr(params, "trees"):
        arrays = [a for tree in params.trees for a in vars(tree).values()]
    else:
        arrays = [*params.weights, *params.biases]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(f"{a.dtype.str} {a.shape}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def saved_bytes(model) -> tuple[bytes, bytes]:
    """The bytes of the header and the archive that save_model writes for ``model``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return path.read_bytes(), path.with_suffix(".npz").read_bytes()


class TestLabeledDataset:
    def test_label_indices_are_read_only_class_positions(self):
        given = np.array([1, 0, 2, 1], dtype=np.int32)
        data = LabeledDataset(features=np.zeros((4, 2)), label_indices=given, class_list=("a", "b", "c"))
        assert data.label_indices.tolist() == [1, 0, 2, 1]
        assert data.label_indices.dtype == np.int64
        assert data.label_indices is data.label_indices
        with pytest.raises(ValueError):
            data.label_indices[0] = 0

    @pytest.mark.parametrize(
        "indices, message",
        [
            (np.array([0.0, 1.0]), "label_indices must be integers, got float64"),
            (np.array([True, False]), "label_indices must be integers, got bool"),
            (np.array(["a", "b"], dtype=object), "label_indices must be integers, got object"),
            (np.array([0, 3]), r"label_indices must lie in \[0, 3\)"),
            (np.array([-1, 0]), r"label_indices must lie in \[0, 3\)"),
            (np.array([2**63, 0], dtype=np.uint64), r"label_indices must lie in \[0, 3\)"),
            (np.array([0]), "one label index per row"),
            (np.array([[0, 1]]), "one label index per row"),
        ],
    )
    def test_label_indices_must_be_class_positions(self, indices, message):
        with pytest.raises(ValueError, match=message):
            LabeledDataset(features=np.zeros((2, 2)), label_indices=indices, class_list=("a", "b", "c"))

    # three columns: the check reads FINITE_CHECK_VALUES // 3 rows at a time
    @pytest.mark.parametrize("row", [0, model_base.FINITE_CHECK_VALUES // 3 - 1, model_base.FINITE_CHECK_VALUES // 3, 39_999])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value, row):
        features = np.zeros((40_000, 3))
        features[row, 1] = value
        labels = np.zeros(len(features), dtype=np.int64)
        with pytest.raises(ValueError, match="features must be finite"):
            LabeledDataset(features=features, label_indices=labels, class_list=("a",))
        with pytest.raises(ValueError, match="features must be finite"):  # a column view, not contiguous
            LabeledDataset(features=np.hstack([features, features])[:, 1::2], label_indices=labels, class_list=("a",))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_empty_features_accepted(self, shape):
        labels = np.zeros(shape[0], dtype=np.int64)
        assert len(LabeledDataset(features=np.zeros(shape), label_indices=labels, class_list=("a",))) == shape[0]


class TestKnn:
    def test_exact_match_with_k1(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng)
        model = train_model("knn", data, {"k": 1})
        for i in (0, 7, 31):
            assert predict(model, data.features[i]) == data.class_list[data.label_indices[i]]

    def test_k_equal_to_all_rows_gives_majority(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 3))
        labels = np.array(["a"] * 5 + ["b"] * 4, dtype=object)
        data = labeled(x, labels, ("a", "b"))
        model = train_model("knn", data, {"k": 9})
        assert predict(model, rng.standard_normal(3) * 10) == "a"

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 4))
        labels = np.array([f"c{i % 7}" for i in range(200)], dtype=object)
        data = labeled(x, labels)
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
        model = train_model("knn", labeled(x, labels, ("a", "b", "c")), {"k": k})
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
        names = np.take(data.class_list, data.label_indices)
        expected = [knn_oracle(data.features, names, data.class_list, q, 4) for q in queries]
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
            label_indices=data.label_indices,
            class_list=data.class_list,
        )
        model_scaled = train_model("knn", scaled, {"k": 3})
        for q in queries:
            assert predict(model, q) == predict(model_scaled, q * 7.5)


class TestDecisionTree:
    def test_separable_1d_data_depth_one(self):
        x = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]])
        labels = np.array(["a"] * 3 + ["b"] * 3, dtype=object)
        data = labeled(x, labels, ("a", "b"))
        model = train_model("dtree", data)
        assert tree_depth(model.params) == 1
        assert (predict(model, x) == labels).all()


    def test_beats_depth_one_stump_on_train(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 4))
        labels = np.array([("a" if v > 0 else "b") for v in x[:, 0] * x[:, 1]], dtype=object)
        data = labeled(x, labels, ("a", "b"))
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
            data = labeled(x, labels)
            model = train_model("dtree", data, {"max_depth": 4})
            acc = (predict(model, x) == labels).mean()
            majority = max(np.bincount([list(data.class_list).index(l) for l in labels])) / len(labels)
            assert acc >= majority - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=50)
        a = train_model("dtree", data, {"max_depth": 5})
        b = train_model("dtree", data, {"max_depth": 5})
        assert saved_bytes(a) == saved_bytes(b)


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
        ds = LabeledDataset(x, y, classes)
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
        """A dtree and a 7-tree forest on a fixed data set grow the same arrays,
        and save to the same bytes, as when these digests were taken."""
        data = make_dataset(np.random.default_rng(40), n=120, dim=8, classes=("a", "b", "c", "d"))
        for kind, params, digest, arrays_digest in (
            ("dtree", {}, GOLDEN_DTREE_SHA256, GOLDEN_DTREE_ARRAYS_SHA256),
            ("rforest", {"n_trees": 7}, GOLDEN_RFOREST_SHA256, GOLDEN_RFOREST_ARRAYS_SHA256),
        ):
            model = train_model(kind, data, params, seed=5)
            assert arrays_sha256(model.params) == arrays_digest, kind
            saved = saved_bytes(model)  # the header records the archive's sha256
            assert hashlib.sha256(saved[0]).hexdigest() == digest, kind
            with tempfile.TemporaryDirectory() as tmp:  # and the saved trees load as trees
                path = Path(tmp) / "model.json"
                path.write_bytes(saved[0])
                path.with_suffix(".npz").write_bytes(saved[1])
                assert saved_bytes(load_model(path)) == saved, kind


def random_nodes(rng, n_features, n_classes, max_depth):
    """Preorder node list of a random tree with thresholds on a 0.1 grid."""
    nodes = []

    def grow(depth):
        slot = len(nodes)
        nodes.append({})
        if depth == max_depth or rng.random() < 0.25:
            nodes[slot] = {"leaf": int(rng.integers(n_classes))}
        else:
            feature = int(rng.integers(n_features))
            threshold = float(np.round(rng.standard_normal(), 1))
            left = grow(depth + 1)
            right = grow(depth + 1)
            nodes[slot] = {"feature": feature, "threshold": threshold, "left": left, "right": right}
        return slot

    grow(0)
    return nodes


def tree_of(nodes):
    """The unchecked ``Tree`` of a node list in ``tree_to_nodes``'s form."""
    rows = [
        (-1, 0.0, -1, -1, spec["leaf"]) if "leaf" in spec
        else (spec["feature"], spec["threshold"], spec["left"], spec["right"], -1)
        for spec in nodes
    ]
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)
    return Tree(*(np.array(column, dtype) for column, dtype in zip(zip(*rows), dtypes)))


THRESHOLDS = st.sampled_from([0.5, -1.0, math.nan, math.inf, -math.inf])


@st.composite
def tree_arrays(draw):
    """(Tree, n_features, n_classes), most of them not a tree: a random
    tree with up to three entries overwritten, or five arrays drawn at random."""
    n_features, n_classes = draw(st.integers(1, 3), "features"), draw(st.integers(1, 3), "classes")
    if draw(st.booleans(), "from a tree"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), "tree seed"))
        tree = tree_of(random_nodes(rng, n_features, n_classes, draw(st.integers(0, 3), "depth")))
        columns = [a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.leaf_class)]
        n = len(columns[0])
        for _ in range(draw(st.integers(0, 3), "edits")):
            column, at = draw(st.integers(0, 4)), draw(st.integers(0, n - 1))
            # a link to a later node's child leaves one node two parents and another none
            later = [v for v in columns[2] + columns[3] if v > at] or [n]
            values = st.integers(-2, n + 1) | st.sampled_from(later)
            columns[column][at] = draw(THRESHOLDS if column == 1 else values)
    else:
        n = draw(st.integers(1, 6), "nodes")
        ints = st.lists(st.integers(-2, n + 1), min_size=n, max_size=n)
        columns = [draw(ints), draw(st.lists(THRESHOLDS, min_size=n, max_size=n)), draw(ints), draw(ints), draw(ints)]
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)
    return Tree(*(np.array(c, dtype) for c, dtype in zip(columns, dtypes))), n_features, n_classes


def error_of(fn, *args):
    """The message of the ValueError fn(*args) raises, or None."""
    try:
        fn(*args)
    except ValueError as err:
        return str(err)
    return None


class TestTreeCheck:
    @settings(max_examples=500, deadline=None)
    @given(tree_arrays())
    def test_rejects_what_the_per_node_oracle_rejects_with_its_message(self, drawn):
        tree, n_features, n_classes = drawn
        assert error_of(check_tree, tree, n_features, n_classes) == error_of(
            tree_check_oracle, tree_to_nodes(tree), n_features, n_classes
        )

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
            ([], "tree has no nodes"),
        ],
    )
    def test_node_lists_that_are_not_trees_rejected(self, nodes, message):
        tree = tree_of(nodes) if nodes else Tree(*(np.zeros(0, dtype) for dtype in "qdqqq"))
        with pytest.raises(ValueError, match=message):
            check_tree(tree, 2, 2)

    def test_arrays_of_different_lengths_rejected(self):
        tree = tree_of([{"leaf": 0}])
        with pytest.raises(ValueError, match="tree arrays differ in length"):
            check_tree(Tree(tree.feature, tree.threshold, tree.left, np.zeros(2, np.int64), tree.leaf_class), 2, 2)


class TestTreeArrays:
    CLASSES = ("a", "b", "c")

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_depth=st.integers(0, 7))
    def test_predict_matches_walk_oracle_on_random_trees(self, seed, max_depth):
        rng = np.random.default_rng(seed)
        nodes = random_nodes(rng, 4, len(self.CLASSES), max_depth)
        tree = tree_of(nodes)
        check_tree(tree, 4, len(self.CLASSES))
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
            features=data.features[rows], label_indices=data.label_indices[rows], class_list=data.class_list
        )
        tree = train_model("dtree", bootstrap)
        queries = rng.standard_normal((40, 4)) * 2
        assert (predict(forest, queries) == predict(tree, queries)).all()

    def test_same_seed_same_model_and_predictions(self):
        rng = np.random.default_rng(10)
        data = make_dataset(rng, n=60)
        a = train_model("rforest", data, {"n_trees": 7}, seed=3)
        b = train_model("rforest", data, {"n_trees": 7}, seed=3)
        assert saved_bytes(a) == saved_bytes(b)
        q = rng.standard_normal((20, data.n_features))
        assert (predict(a, q) == predict(b, q)).all()

    def test_train_accuracy_at_least_majority_baseline(self):
        for seed in range(4):
            r = np.random.default_rng(seed)
            x = r.standard_normal((40, 3))
            labels = np.array([f"c{int(v)}" for v in r.integers(0, 3, 40)], dtype=object)
            data = labeled(x, labels)
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
        data = labeled(x, labels, ("c0", "c1", "c2"))
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
        return labeled(x, labels, ("even", "odd"))

    def test_xor_reaches_full_train_accuracy(self):
        data = self.xor_dataset()
        params = dict(
            hidden_layers=(8,), learning_rate=0.5, batch_size=8,
            max_epochs=2000, early_stop_patience=2000,
        )
        model = train_model("mlp", data, params, seed=1)
        preds = predict(model, data.features)
        assert (preds == np.take(data.class_list, data.label_indices)).mean() == 1.0

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
        assert saved_bytes(a) == saved_bytes(b)

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
        dataset = LabeledDataset(x, y, classes)
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
        """A two-layer MLP that stops early (epoch 23 of 60) has the same
        weights, and saves to the same bytes, as when these digests were taken."""
        data = make_dataset(np.random.default_rng(40), n=120, dim=8, classes=("a", "b", "c", "d"))
        params = {"hidden_layers": (16, 8), "max_epochs": 60, "early_stop_patience": 4,
                  "learning_rate": 0.1, "batch_size": 16}
        model = train_model("mlp", data, params, seed=5)
        assert arrays_sha256(model.params) == GOLDEN_MLP_ARRAYS_SHA256
        assert hashlib.sha256(saved_bytes(model)[0]).hexdigest() == GOLDEN_MLP_SHA256

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
        saved = [saved_bytes(train_model(kind, data, KIND_PARAMS[kind], seed=seed)) for seed in (1, 2)]
        assert (saved[0] != saved[1]) == REGISTRY[kind].seeded


class TestPredictContract:
    @pytest.mark.parametrize("kind", ["knn", "dtree", "rforest", "mlp"])
    def test_single_class_data_rejected(self, kind):
        x = np.random.default_rng(0).standard_normal((10, 3))
        labels = np.array(["only"] * 10, dtype=object)
        data = labeled(x, labels, ("only",))
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
        data = labeled(x, labels, ("only",))
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
        assert resaved.with_suffix(".npz").read_bytes() == path.with_suffix(".npz").read_bytes()
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
            ("knn", ("params", "k")),
            ("dtree", ("arrays_sha256",)),
            ("rforest", ("params", "seed")),
            ("mlp", ("params", "config", "batch_size")),
        ],
    )
    def test_missing_key_is_named_value_error(self, kind, path, tmp_path):
        rng = np.random.default_rng(23)
        file = tmp_path / "model.json"
        save_model(train_kind(kind, make_dataset(rng, n=50)), file)
        edit_saved(file, {path: DELETE})
        with pytest.raises(ValueError, match=f"missing key '{path[-1]}'"):
            load_model(file)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("left", 99, "tree node 0: children 99, "),      # child index past the end
            ("right", 0, "tree node 0: children 1, 0"),      # self-loop at the root
            ("feature", 5, "tree node 0: feature 5 outside"),  # == n_features
            ("feature", -1, "tree node 0: leaf class -1"),   # a split made a leaf that holds no class
            ("leaf_class", 3, r"tree node \d+: leaf class 3"),  # == len(class_list)
        ],
    )
    def test_malformed_tree_rejected(self, field, value, message, tmp_path):
        rng = np.random.default_rng(24)
        file = tmp_path / "model.json"
        tree = train_model("dtree", make_dataset(rng), {"max_depth": 4}).params
        save_model(TrainedModel("dtree", tree, ("a", "b", "c"), 5), file)
        column = getattr(tree, field).copy()
        column[np.argmax(tree.feature < 0) if field == "leaf_class" else 0] = value
        edit_saved(file, {("params", field): column})
        with pytest.raises(ValueError, match=message):
            load_model(file)

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

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_refused_with_retrain_hint(self, version, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(GOLDEN_KNN_V2.replace('"format_version": 2', f'"format_version": {version}'))
        with pytest.raises(ValueError, match=f"version {version}, .*retrain the model with `driverid train`"):
            load_model(path)

    def test_golden_pair_pins_the_layout(self, tmp_path):
        model = TrainedModel(
            kind="knn",
            params=KnnParams(k=1, train_x=np.array([[1.0, -2.0], [0.5, 3.0]]), train_y=np.array([0, 1])),
            class_list=("a", "b"),
            n_features=2,
            standardizer=Standardizer(np.array([0.0, 1.0]), np.array([1.0, 2.0])),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text() == GOLDEN_KNN_V3  # its arrays_sha256 pins the archive's bytes
        with zipfile.ZipFile(path.with_suffix(".npz")) as archive:
            assert archive.namelist() == [
                "standardizer.mean.npy", "standardizer.std.npy", "params.train_x.npy", "params.train_y.npy",
            ]
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
            member = archive.read("params.train_x.npy")
            assert member.startswith(b"\x93NUMPY\x01\x00") and b"'descr': '<f8'" in member
            assert member[-32:] == struct.pack("<4d", 1.0, -2.0, 0.5, 3.0)  # C order, little-endian
            assert archive.read("params.train_y.npy")[-16:] == struct.pack("<2q", 0, 1)
        loaded = load_model(path)
        assert predict(loaded, np.array([[0.4, 2.0], [1.2, -1.0]])).tolist() == ["b", "a"]
        assert loaded.standardizer.std.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "kind, edits, message",
        [
            ("knn", {("params", "k"): 0}, "k must be >= 1"),
            ("knn", {("params", "k"): 51}, "k=51 exceeds 50 stored rows"),
            ("knn", {("params", "train_y"): np.full(50, 3)}, "class index in"),
            ("knn", {("standardizer", "mean"): np.zeros(4)}, "standardizer"),
            ("knn", {("params", "train_x"): np.zeros((50, 5), np.float32)},
             "model.npz: array params.train_x must be float64 or int64, got float32"),
            ("knn", {("params", "train_y"): np.zeros(50)}, "train_y: expected a 1-d int64 array, got float64 array"),
            ("knn", {("params", "train_x"): np.zeros((49, 5))}, "train_y must hold one class index"),
            ("knn", {("params", "train_x"): np.zeros(250)}, "train_x: expected a 2-d float64 array"),
            # an array left in the header is not one of the archive's
            ("knn", {("params", "train_x"): [[0.0] * 5] * 50}, r"expected arrays \[.*\], got \[.*'params.train_x'"),
            (
                "mlp",
                {
                    ("params", "weights", 1): np.zeros((100, 4)),
                    ("params", "biases", 1): np.zeros(4),
                },
                "output layer is 4 wide, header has 3 classes",
            ),
            ("mlp", {("params", "biases", 0): np.zeros(99)}, "layer 0 has"),
            ("mlp", {("params", "weights", 1): np.zeros((99, 3))}, "layer 1 has"),
            ("mlp", {("params", "weights"): lambda w: dict(enumerate(w))}, "weights and biases must be lists of arrays"),
            ("mlp", {("params", "activation"): "sigmoid"}, "activation must be one of"),
            ("mlp", {("params", "activation"): "tanh"}, "config.activation 'relu' differs from activation 'tanh'"),
            ("knn", {("params", "train_x"): np.full((50, 5), np.nan)},
             "model.npz: array params.train_x holds a NaN or infinite value"),
            ("dtree", {("params", "threshold"): lambda a: np.full_like(a, np.nan)}, "params.threshold holds a NaN"),
            ("dtree", {("params", "threshold"): lambda a: np.full_like(a, -np.inf)}, "params.threshold holds a NaN"),
            ("rforest", {("params", "n_trees"): 6}, "n_trees=6 but holds 5 trees"),
            ("rforest", {("params", "trees"): lambda trees: dict(enumerate(trees))}, "trees: expected a list"),
            # limits a config refuses
            ("rforest", {("params", "max_depth"): -3}, "max_depth must be >= 1"),
            ("rforest", {("params", "max_depth"): 0}, "max_depth must be >= 1"),
            ("rforest", {("params", "features_per_split"): 0}, "features_per_split must be >= 1"),
            # counts and indices must be JSON integers or int64 arrays, not floats or booleans
            ("knn", {("format_version",): 3.0}, "format_version: expected an integer, got 3.0"),
            ("knn", {("n_features",): 5.0}, "n_features: expected an integer, got 5.0"),
            ("knn", {("params", "k"): 2.7}, "k: expected an integer, got 2.7"),
            ("knn", {("params", "k"): True}, "k: expected an integer, got True"),
            ("rforest", {("params", "n_trees"): 5.0}, "n_trees: expected an integer, got 5.0"),
            ("rforest", {("params", "features_per_split"): 3.0}, "features_per_split: expected an integer"),
            ("rforest", {("params", "seed"): 2.0}, "seed: expected an integer, got 2.0"),
            ("rforest", {("params", "trees", 0, "left"): lambda a: a.astype(np.float64)},
             "left: expected a 1-d int64 array, got float64"),
            ("dtree", {("params", "feature"): lambda a: a.astype(np.float64)}, "feature: expected a 1-d int64 array"),
            ("dtree", {("params", "right"): lambda a: a > 0}, "array params.right must be float64 or int64, got bool"),
            ("dtree", {("params", "leaf_class"): lambda a: a[:, None]}, "leaf_class: expected a 1-d int64 array"),
            ("mlp", {("params", "epochs_run"): 15.0}, "epochs_run: expected an integer, got 15.0"),
            ("rforest", {("params", "max_depth"): "junk"}, "max_depth: expected an integer, got 'junk'"),
            ("rforest", {("params", "max_depth"): 2.5}, "max_depth: expected an integer, got 2.5"),
            ("mlp", {("params", "config", "batch_size"): 32.9}, "config.batch_size: expected an integer, got 32.9"),
            ("mlp", {("params", "config", "hidden_layers"): [4.7]}, "config.hidden_layers: expected an integer, got 4.7"),
            ("mlp", {("params", "config", "hidden_layers"): 5}, "config.hidden_layers: expected a list, got 5"),
            ("mlp", {("params", "config", "max_epochs"): 15.0}, "config.max_epochs: expected an integer, got 15.0"),
            ("mlp", {("params", "config", "early_stop_patience"): True}, "config.early_stop_patience: expected an integer"),
            ("mlp", {("params", "config", "seed"): 2.0}, "config.seed: expected an integer, got 2.0"),
            ("mlp", {("params", "config", "learning_rate"): None}, "config.learning_rate: expected a number, got None"),
            ("mlp", {("params", "config"): "x"}, "config: expected an object, got 'x'"),
            # envelope fields of another JSON type
            ("knn", {("class_list",): None}, "class_list must be a list of strings, got None"),
            ("knn", {("class_list", 1): 1.5}, "class_list must be a list of strings"),
            ("knn", {("standardizer",): "x"}, "standardizer must be null or an object, got 'x'"),
            ("knn", {("schema_labels",): 1.5}, "schema_labels must be null or a list of strings, got 1.5"),
            ("knn", {("kind",): []}, r"kind must be a string, got \[\]"),
            ("knn", {("params",): None}, "params must be an object, got None"),
            ("knn", {("pipeline",): {"cleaning": 1}}, "pipeline must be null or an object of sections"),
            ("knn", {("arrays_sha256",): 1.5}, "arrays_sha256 must be a string, got 1.5"),
            ("knn", {("n_features",): 0}, "n_features must be positive, got 0"),
        ],
    )
    def test_bad_stored_values_rejected(self, kind, edits, message, tmp_path):
        rng = np.random.default_rng(25)
        model = train_kind(kind, make_dataset(rng, n=50))
        model.standardizer = Standardizer(mean=np.zeros(5), std=np.ones(5))
        file = tmp_path / "model.json"
        save_model(model, file)
        edit_saved(file, edits)
        with pytest.raises(ValueError, match=message):
            load_model(file)

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_non_object_file_rejected(self, text, tmp_path):
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(ValueError, match="model file is not a JSON object"):
            load_model(tmp_path / "model.json")

    def test_archive_of_another_model_rejected(self, tmp_path):
        for name, seed in (("one", 26), ("two", 27)):  # the same shapes, other rows
            save_model(train_model("knn", make_dataset(np.random.default_rng(seed), n=50)), tmp_path / f"{name}.json")
        (tmp_path / "two.npz").replace(tmp_path / "one.npz")
        with pytest.raises(ValueError, match="one.npz: sha256 differs from the header's arrays_sha256"):
            load_model(tmp_path / "one.json")

    def test_header_named_like_its_archive_refused(self, tmp_path):
        model = train_model("knn", make_dataset(np.random.default_rng(27), n=50), {"k": 1})
        with pytest.raises(ValueError, match="may not end in .npz"):
            save_model(model, tmp_path / "model.npz")
        assert not list(tmp_path.iterdir())

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


@functools.cache
def saved_pair(kind):
    """(header, archive) of a small trained model of KIND with a standardizer,
    schema labels and a pipeline record, as the CLI saves one."""
    model = train_kind(kind, make_dataset(np.random.default_rng(28), n=40))
    model.standardizer = Standardizer(np.zeros(5), np.ones(5))
    model.schema_labels = tuple(f"f{i}" for i in range(5))
    model.pipeline = {"cleaning": {"denoise_window": 5}, "features": {"families": ["mean"]}}
    return saved_bytes(model)


class TestHeaderFields:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_every_field_of_any_type_is_refused_or_loads_a_working_model(self, kind, data):
        header, archive = saved_pair(kind)
        doc = json.loads(header)
        place = data.draw(st.sampled_from(sorted(header_places(doc), key=str)), label="field")
        value = data.draw(st.sampled_from(HEADER_VALUES), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_bytes(header)
            path.with_suffix(".npz").write_bytes(archive)
            edit_saved(path, {place: value})
            try:
                model = load_model(path)
            except ValueError:
                return
        assert set(predict(model, np.zeros((3, model.n_features)))) <= set(model.class_list)


def zip_bytes(members: dict[str, bytes]) -> bytes:
    sink = io.BytesIO()
    with zipfile.ZipFile(sink, "w") as archive:
        for name, content in members.items():
            archive.writestr(name, content)
    return sink.getvalue()


def npy_bytes(a) -> bytes:
    sink = io.BytesIO()
    np.save(sink, a)
    return sink.getvalue()


NPY_BYTES = npy_bytes(np.zeros(3))


class TestArrayArchive:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_identical_and_the_bytes_savez_writes(self, data):
        written = {}
        for i in range(data.draw(st.integers(0, 4), label="arrays")):
            code = data.draw(st.sampled_from(["<f8", "<i8"]))
            elements = (  # -0.0, subnormals and huge values; the reader refuses NaN and infinities
                st.floats(allow_nan=False, allow_infinity=False) if code == "<f8"
                else st.integers(-(2**63), 2**63 - 1)
            )
            shape = data.draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5), label="shape")
            a = data.draw(arrays(np.dtype(code), shape, elements=elements))
            written[f"a.{i}"] = a.T if data.draw(st.booleans(), label="transposed") else a
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "ours.npz", Path(tmp) / "theirs.npz"
            write_arrays(ours, written)
            np.savez(theirs, **{name: np.array(a, order="C") for name, a in written.items()})
            assert ours.read_bytes() == theirs.read_bytes()  # stored C-order .npy members
            back = read_arrays(ours, list(written), ("<f8", "<i8"))
        assert list(back) == list(written)
        for name, a in written.items():
            assert back[name].dtype == a.dtype and back[name].shape == a.shape
            assert back[name].tobytes() == a.tobytes() and not back[name].flags.writeable

    @pytest.mark.parametrize(
        "members, message",
        [
            ({"a": np.array([1.0, np.nan])}, "array a holds a NaN or infinite value"),
            ({"a": np.array([[-np.inf]])}, "array a holds a NaN or infinite value"),
            ({"a": np.zeros(2, ">f8")}, "array a must be float64 or int64, got >f8"),
            ({"a": np.zeros(2, ">i8")}, "array a must be float64 or int64, got >i8"),
            ({"a": np.zeros(2, np.float32)}, "array a must be float64 or int64, got float32"),
            ({"a": np.array([1, "x"], dtype=object)}, "Object arrays cannot be loaded when allow_pickle=False"),
            ({"a": np.zeros(1), "b": np.zeros(1)}, r"expected arrays \['a'\], got \['a', 'b'\]"),
            ({}, r"expected arrays \['a'\], got \[\]"),
        ],
    )
    def test_refused_members(self, tmp_path, members, message):
        np.savez(tmp_path / "x.npz", **members)
        with pytest.raises(ValueError, match=message):
            read_arrays(tmp_path / "x.npz", ["a"], ("<f8", "<i8"))

    @pytest.mark.parametrize(
        "content, message",
        [
            (NPY_BYTES, "not an .npz archive"),
            (pickle.dumps(np.zeros(3)), "not an .npz archive"),
            (zip_bytes({"a.npy": b"raw bytes"}), "array a must be float64 or int64, got bytes"),
            (zip_bytes({"b.npy": NPY_BYTES}), r"expected arrays \['a'\], got \['b'\]"),
            (zip_bytes({"a.npy": NPY_BYTES})[:-30], "not an .npz archive"),  # truncated
        ],
        ids=["npy", "pickle", "raw_member", "other_name", "truncated"],
    )
    def test_refused_files(self, tmp_path, content, message):
        path = tmp_path / "x.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=message):
            read_arrays(path, ["a"], ("<f8", "<i8"))


# class names and labels a writer must escape: quotes, backslashes, control
# characters and non-ASCII text
ODD_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\t\x7fé€😀 '), max_size=6) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ODD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=12,
)


@st.composite
def stored_arrays(draw, dtype, shape, elements=None):
    """An array of `shape`, or one drawn as the transpose of its reverse-shaped array."""
    if draw(st.booleans(), label="transposed"):
        return draw(arrays(dtype, shape[::-1], elements=elements)).T
    return draw(arrays(dtype, shape, elements=elements))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestSavedPair:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_load_gives_the_arrays_and_a_resave_the_bytes(self, kind, data):
        d = data.draw(st.integers(1, 4), label="d")
        classes = tuple(sorted(data.draw(st.sets(ODD_TEXT, min_size=1, max_size=4), label="classes")))
        if kind == "knn":
            n = data.draw(st.integers(1, 6), label="rows")
            params = KnnParams(
                k=data.draw(st.integers(1, n)),
                train_x=data.draw(stored_arrays(np.float64, (n, d), FINITE)),
                train_y=data.draw(arrays(np.int64, n, elements=st.integers(0, len(classes) - 1))),
            )
        elif kind == "mlp":
            widths = [d, *data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2), label="hidden"), len(classes)]
            params = MlpParams(
                weights=[data.draw(stored_arrays(np.float64, shape, FINITE)) for shape in zip(widths, widths[1:])],
                biases=[data.draw(arrays(np.float64, w, elements=FINITE)) for w in widths[1:]],
                activation="relu",
                config=data.draw(st.none() | st.just(MlpConfig(hidden_layers=tuple(widths[1:-1])))),
                epochs_run=data.draw(st.integers(0, 10**6)),
            )
        else:
            names = tuple(f"c{i}" for i in range(len(classes)))
            rows = make_dataset(np.random.default_rng(d), n=30, dim=d, classes=names) if len(classes) > 1 else None
            params = train_kind(kind, rows).params if rows else Tree(*(np.array([v]) for v in (-1, 0.0, -1, -1, 0)))
            if kind == "rforest" and rows is None:
                params = ForestParams([params], 1, None, 1, 0)
        model = TrainedModel(
            kind=kind,
            params=params,
            class_list=classes,
            n_features=d,
            standardizer=data.draw(st.none() | st.builds(
                Standardizer, arrays(np.float64, d, elements=FINITE), arrays(np.float64, d, elements=st.floats(0.5, 2.0))
            )),
            schema_labels=data.draw(st.none() | st.lists(ODD_TEXT, min_size=1, max_size=d).map(tuple)),
            pipeline=data.draw(st.none() | st.dictionaries(ODD_TEXT, st.dictionaries(ODD_TEXT, JSON_VALUES, max_size=3),
                                                           max_size=3), label="pipeline"),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            saved = path.read_bytes(), path.with_suffix(".npz").read_bytes()
        assert saved_bytes(loaded) == saved
        for ours, theirs in zip(stored(model), stored(loaded), strict=True):
            assert theirs.dtype == ours.dtype and theirs.shape == ours.shape and theirs.tobytes() == ours.tobytes()

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


def stored(model) -> list[np.ndarray]:
    """Every array a model file stores for MODEL, in the order it stores them."""
    std = [] if model.standardizer is None else [model.standardizer.mean, model.standardizer.std]
    doc = REGISTRY[model.kind].to_doc(model.params)
    leaves = []

    def walk(value):
        if isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, np.ndarray):
            leaves.append(value)

    walk(doc)
    return std + leaves


GOLDEN_DTREE_SHA256 = "8d3a67d6bdbf46f84362642bad914eac6de0370fbb3bbb273de77363b2600136"
GOLDEN_RFOREST_SHA256 = "02546ffd38c28c7dd14331a82e91f4c777212d0363ce201740b7c1b121491314"
GOLDEN_MLP_SHA256 = "8a47821e35edcf6093de203214597a09c236f8e90d940f72a84bdd93bb27c1ec"
# the same models' trained arrays (``arrays_sha256``), whatever the file format
GOLDEN_DTREE_ARRAYS_SHA256 = "46c3cc65c4cdc2efb6af620eacb7e5fa4d225d19880bfbad7830ec4bc146ea09"
GOLDEN_RFOREST_ARRAYS_SHA256 = "d6bc14eacc4b9222d1d5a118e62e6c2106aa4af8b71a1a2403bfd45ea1eb970f"
GOLDEN_MLP_ARRAYS_SHA256 = "b83705e31e0cbef253c1e33e70245a761de348342b09064fa42bd5d5030f768e"

# a knn model, k = 1, rows (1, -2) and (0.5, 3) of classes a and b, standardizer
# mean (0, 1) and std (1, 2), as format 3 saves its header; the digest is that
# of the archive's bytes
GOLDEN_KNN_V3 = """{
 "format_version": 3,
 "kind": "knn",
 "class_list": [
  "a",
  "b"
 ],
 "n_features": 2,
 "pipeline": null,
 "schema_labels": null,
 "standardizer": {
  "mean": "standardizer.mean",
  "std": "standardizer.std"
 },
 "params": {
  "k": 1,
  "train_x": "params.train_x",
  "train_y": "params.train_y"
 },
 "arrays_sha256": "614a94aacc734044b8b55f1ed602bd654e27ab54d984d04246f91daca176c3a3"
}"""

# the same model as format 2 saved it, arrays in base64 inside the JSON
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
