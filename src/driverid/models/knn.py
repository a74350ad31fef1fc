"""k-nearest-neighbor classifier on Euclidean distance.

Deterministic by construction: distance ties prefer the lower training-row
index, vote ties prefer the earlier class in class_list.

The neighbours are those of the exact distance ``((x - q)**2).sum()``,
ranked by a stable sort, but only a few candidate rows per query are
ranked. Candidates are screened with one matrix product per block of
queries, ``s = |q|^2 + |x|^2 - 2 q.x`` (the expansion behind scikit-learn's
``euclidean_distances``), and a row is dropped only when rounding cannot
make its exact distance reach the k-th nearest.

The margin comes from the standard bound on a floating-point dot product
of length d in any summation order, ``|fl(u.v) - u.v| <= g(d) sum|u_i v_i|``
with ``g(j) = j*eps/(1 - j*eps)`` and eps = 2**-53 (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, section 3.1). With
``N = |q|^2 + |x|^2`` and D the true squared distance:

- the screen: both norms carry ``g(d) N`` between them, the cross term
  ``2 g(d) sum|q_i x_i| <= g(d) N``, and the two final operations add one
  rounding each, so ``|s - D| <= 2 g(d+2) N``;
- the exact distance: each term ``fl(fl(x_i - q_i)**2)`` carries ``g(3)``
  and the sum of d nonnegative terms ``g(d-1)``, so its error is at most
  ``g(d+2) D <= 2 g(d+2) N``, since ``D <= 2 N``.

So ``e = 4 g(d+2) N`` bounds the gap between s and the exact distance.
The code uses ``4 g(d+4)``: the extra ``8 eps N`` covers evaluating N from
the rounded norms (short by at most a factor ``1 - g(d+1)``) and the
rounding of e and of ``s +- e``. The k-th smallest ``s + e`` of a query
then bounds its k-th exact distance from above, and every row whose
``s - e`` does not exceed that bound is ranked exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..parallel import ordered_map
from ..segment import InsufficientData
from .base import LabeledDataset, TrainedModel, json_int, stored_array

QUERY_BLOCK = 64  # queries screened per matrix product: a 64 x 3,000-row block is 1.5 MB
defaults = {"k": 5}
seeded = False


@dataclass
class KnnParams:
    k: int
    train_x: np.ndarray       # (n, d)
    train_y: np.ndarray       # (n,) class indices


def check(params: dict) -> None:
    if int(params["k"]) < 1:
        raise ValueError("k must be >= 1")


def fit(data: LabeledDataset, params: dict, seed: int) -> KnnParams:
    k = int(params["k"])
    if k > len(data):
        raise InsufficientData(f"k={k} exceeds {len(data)} training rows")
    return KnnParams(k=k, train_x=data.features, train_y=data.label_indices)


def predict(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    """Majority class among the k nearest training rows.

    Each block of `QUERY_BLOCK` queries is one `parallel.ordered_map` item.
    """
    p = model.params
    d = p.train_x.shape[1]
    eps = np.finfo(np.float64).eps / 2
    margin = 4 * (d + 4) * eps / (1 - (d + 4) * eps)
    x_norms = np.einsum("ij,ij->i", p.train_x, p.train_x)
    score = partial(_predict_block, p, len(model.class_list), x_norms, margin, matrix)
    blocks = ordered_map(score, range(0, matrix.shape[0], QUERY_BLOCK))
    return np.concatenate([np.empty(0, dtype=np.int64), *blocks])


def _predict_block(p: KnnParams, n_classes: int, x_norms, margin: float, matrix, start: int) -> np.ndarray:
    """Class indices of the queries `matrix[start : start + QUERY_BLOCK]`."""
    kth = min(p.k, p.train_x.shape[0]) - 1
    q = matrix[start : start + QUERY_BLOCK]
    norms = np.einsum("ij,ij->i", q, q)[:, None] + x_norms
    screen = norms - 2 * (q @ p.train_x.T)
    error = np.multiply(norms, margin, out=norms)  # in place, like the bounds below
    upper = screen + error
    upper.partition(kth, axis=1)
    lower = np.subtract(screen, error, out=screen)
    query, row = np.nonzero(~(lower > upper[:, kth, None]))  # NaN or inf bounds keep the row
    dist = ((p.train_x[row] - q[query]) ** 2).sum(axis=1)
    order = np.lexsort((row, dist, query))  # by query, then distance, then row index
    query, row = query[order], row[order]
    first = np.searchsorted(query, query)  # each pair's query's first position
    near = np.arange(query.size) - first <= kth
    votes = np.bincount(query[near] * n_classes + p.train_y[row[near]], minlength=len(q) * n_classes)
    return votes.reshape(len(q), n_classes).argmax(axis=1)


def to_doc(p: KnnParams) -> dict:
    return {"k": p.k, "train_x": p.train_x, "train_y": p.train_y}


def from_doc(doc: dict, n_features: int, n_classes: int) -> KnnParams:
    train_x = stored_array(doc["train_x"], "train_x", "<f8", 2)
    train_y = stored_array(doc["train_y"], "train_y", "<i8", 1)
    if train_x.shape[1] != n_features:
        raise ValueError(
            f"schema mismatch: stored rows have shape {train_x.shape}, "
            f"header says {n_features} features"
        )
    n_rows = train_x.shape[0]
    if train_y.shape != (n_rows,) or not ((0 <= train_y) & (train_y < n_classes)).all():
        raise ValueError(f"train_y must hold one class index in [0, {n_classes}) per stored row")
    k = json_int(doc["k"], "k")
    check({"k": k})
    if k > n_rows:
        raise ValueError(f"k={k} exceeds {n_rows} stored rows")
    return KnnParams(k=k, train_x=train_x, train_y=train_y)
