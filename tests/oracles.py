"""Independent brute-force oracles the library code is checked against.

Deliberately naive: plain Python loops and sorting, no shared code with
the implementations under test.
"""
from __future__ import annotations

import numpy as np


def histogram_oracle(signal, bins, keep):
    xs = sorted(float(v) for v in signal)
    n = len(xs)

    def quantile(q):  # linear interpolation definition
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return xs[lo] * (1 - frac) + xs[hi] * frac

    tail = (1.0 - keep) / 2.0
    q_lo, q_hi = quantile(tail), quantile(1.0 - tail)
    if q_lo == q_hi:
        out = [0.0] * bins
        out[0] = 1.0
        return out
    width = (q_hi - q_lo) / bins
    counts = [0] * bins
    total = 0
    for v in xs:
        if v < q_lo or v > q_hi:
            continue
        b = int((v - q_lo) / width)
        b = min(b, bins - 1)  # right edge closes the last bin
        counts[b] += 1
        total += 1
    return [c / total for c in counts]


def mean_var_oracle(values):
    n = len(values)
    m = sum(values) / n
    var = sum((v - m) ** 2 for v in values) / n
    return m, var


def corr_oracle(a, b):
    ma, va = mean_var_oracle(a)
    mb, vb = mean_var_oracle(b)
    if va == 0 or vb == 0:
        return 0.0
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / len(a)
    return max(-1.0, min(1.0, cov / np.sqrt(va * vb)))


def knn_oracle(train_x, train_y, class_list, query, k):
    scored = sorted(
        (float(np.sum((row - query) ** 2)), idx) for idx, row in enumerate(train_x)
    )
    votes = {}
    for _, idx in scored[:k]:
        votes[train_y[idx]] = votes.get(train_y[idx], 0) + 1
    best = max(votes.values())
    for label in class_list:  # class order breaks vote ties
        if votes.get(label) == best:
            return label


def tree_walk_oracle(nodes, query):
    """Class index reached by one query walking a saved CART node list."""
    node = nodes[0]
    while "leaf" not in node:
        go_left = query[node["feature"]] <= node["threshold"]
        node = nodes[node["left"] if go_left else node["right"]]
    return node["leaf"]


def window_starts_oracle(t, break_after, w, stride):
    """Start time of every stride offset whose w samples cross no break."""
    starts = []
    for off in range(0, len(t) - w + 1, stride):
        if not any(break_after[off + k] for k in range(w - 1)):
            starts.append(float(t[off]))
    return starts
