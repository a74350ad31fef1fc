"""Independent brute-force oracles the library code is checked against.

Deliberately naive: plain Python loops and sorting, no shared code with
the implementations under test (`mlp_fit_oracle` reuses the MLP's
arithmetic, and says why).
"""
from __future__ import annotations

import math
import warnings

import numpy as np


def histogram_oracle(signal, bins, keep):
    """Trimmed histogram by sorting and scanning bin edges.

    Quantiles interpolate linearly between neighbouring order statistics,
    rounded as numpy's linear method rounds them. The bin edges are
    ``np.linspace(q_lo, q_hi, bins + 1)``'s values (``q_lo + k * step``,
    the last one ``q_hi``), and a sample falls in the last bin whose lower
    edge it reaches. So a sample that sits exactly on a rounded edge is
    counted where ``np.histogram`` counts it, and results compare bit for
    bit. An empty trimmed range divides by zero.
    """
    xs = sorted(float(v) for v in signal)
    n = len(xs)

    def quantile(q):  # linear interpolation definition
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        a, b = xs[lo], xs[hi]
        return a + (b - a) * frac if frac < 0.5 else b - (b - a) * (1 - frac)

    tail = (1.0 - keep) / 2.0
    q_lo, q_hi = quantile(tail), quantile(1.0 - tail)
    if q_lo == q_hi:
        out = [0.0] * bins
        out[0] = 1.0
        return out
    step = (q_hi - q_lo) / bins
    edges = [q_lo + k * step for k in range(bins)]
    counts = [0] * bins
    total = 0
    for v in xs:
        if v < q_lo or v > q_hi:
            continue
        counts[max(k for k in range(bins) if edges[k] <= v)] += 1
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


def cart_oracle(x, y, n_classes, max_depth, min_leaf, rng=None, features_per_split=None):
    """Preorder node list (as ``tree_to_nodes`` writes it) of a Gini CART
    tree grown by brute force.

    Each node scans its dims in order; for each it sorts the rows by value,
    then by row, and walks every split position keeping integer class counts.
    A position is valid with at least ``min_leaf`` rows on each side and
    distinct neighbouring values; its score is ``ls / nl + rs / nr`` (sums of
    squared counts over sizes, in Python floats). The best score wins, a
    strictly better one only, so ties go to the lower dim and then the lower
    threshold, the midpoint of the neighbours. A node is a leaf when it is
    pure, at ``max_depth``, smaller than ``2 * min_leaf`` or has no valid
    split; a leaf holds its most common class, the lower one on ties. With
    ``features_per_split`` below the dim count, each split node first draws
    that many dims from ``rng``, in preorder, as the tree grower does.
    """
    rows_x = [[float(v) for v in row] for row in np.asarray(x)]
    labels = [int(v) for v in y]
    d = len(rows_x[0]) if rows_x else 0
    nodes = []

    def grow(rows, depth):
        slot = len(nodes)
        nodes.append(None)
        counts = [0] * n_classes
        for r in rows:
            counts[labels[r]] += 1
        majority = counts.index(max(counts))
        n = len(rows)
        if (
            max(counts) == n
            or (max_depth is not None and depth >= max_depth)
            or n < 2 * min_leaf
        ):
            nodes[slot] = {"leaf": majority}
            return slot
        if features_per_split is not None and features_per_split < d:
            dims = sorted(int(v) for v in rng.choice(d, size=features_per_split, replace=False))
        else:
            dims = range(d)
        best = None  # (score, dim, threshold)
        for dim in dims:
            ordered = sorted(rows, key=lambda r: (rows_x[r][dim], r))
            left = [0] * n_classes
            for p in range(1, n):
                left[labels[ordered[p - 1]]] += 1
                lo, hi = rows_x[ordered[p - 1]][dim], rows_x[ordered[p]][dim]
                if p < min_leaf or n - p < min_leaf or not lo < hi:
                    continue
                ls = sum(c * c for c in left)
                rs = sum((t - c) ** 2 for t, c in zip(counts, left))
                score = ls / p + rs / (n - p)
                if best is None or score > best[0]:
                    best = (score, dim, (lo + hi) / 2.0)
        if best is None:
            nodes[slot] = {"leaf": majority}
            return slot
        _, dim, threshold = best
        go_left = [r for r in rows if rows_x[r][dim] <= threshold]
        go_right = [r for r in rows if rows_x[r][dim] > threshold]
        left_slot = grow(go_left, depth + 1)
        right_slot = grow(go_right, depth + 1)
        nodes[slot] = {"feature": dim, "threshold": threshold, "left": left_slot, "right": right_slot}
        return slot

    grow(list(range(len(labels))), 0)
    return nodes


def tree_walk_oracle(nodes, query):
    """Class index reached by one query walking a CART node list (``tree_to_nodes``'s form)."""
    node = nodes[0]
    while "leaf" not in node:
        go_left = query[node["feature"]] <= node["threshold"]
        node = nodes[node["left"] if go_left else node["right"]]
    return node["leaf"]


def tree_to_nodes(tree):
    """Preorder node list of a ``Tree``'s arrays, as ``cart_oracle`` returns
    it: ``{"leaf": class}`` where ``feature`` is negative, else ``{"feature",
    "threshold", "left", "right"}``."""
    columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.leaf_class)
    return [
        {"leaf": cls} if f < 0 else {"feature": f, "threshold": thr, "left": lo, "right": hi}
        for f, thr, lo, hi, cls in zip(*(np.asarray(c).tolist() for c in columns))
    ]


def tree_check_oracle(nodes, n_features, n_classes):
    """Raise ValueError unless NODES (``tree_to_nodes``'s form) is a tree,
    checked one node at a time in preorder: a leaf's class and a split's
    feature in range, a split's two children distinct and after it (which
    rules out cycles), its threshold finite; then every node but the root
    the child of exactly one split. The first failure found is raised."""
    if not nodes:
        raise ValueError("tree has no nodes")
    parents = [0] * len(nodes)
    for i, spec in enumerate(nodes):
        if "leaf" in spec:
            if not 0 <= spec["leaf"] < n_classes:
                raise ValueError(f"tree node {i}: leaf class {spec['leaf']} outside [0, {n_classes})")
            continue
        dim, lo, hi = spec["feature"], spec["left"], spec["right"]
        if not 0 <= dim < n_features:
            raise ValueError(f"tree node {i}: feature {dim} outside [0, {n_features})")
        if lo == hi or not (i < lo < len(nodes) and i < hi < len(nodes)):
            raise ValueError(f"tree node {i}: children {lo}, {hi} not two nodes in ({i}, {len(nodes)})")
        parents[lo] += 1
        parents[hi] += 1
        threshold = float(spec["threshold"])
        if not math.isfinite(threshold):
            raise ValueError(f"tree node {i}: threshold {threshold} is not finite")
    for i, count in enumerate(parents[1:], 1):
        if count != 1:
            raise ValueError(f"tree node {i} is the child of {count} splits, not 1")


def window_starts_oracle(t, break_after, w, stride):
    """Start time of every stride offset whose w samples cross no break."""
    starts = []
    for off in range(0, len(t) - w + 1, stride):
        if not any(break_after[off + k] for k in range(w - 1)):
            starts.append(float(t[off]))
    return starts


def parse_log_oracle(text, header):
    """(timestamps, channel rows) of a trip log, one line at a time, with
    the parser's summary warning and its ValueError messages."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("empty log")
    found = lines[0].strip().lstrip("\ufeff")
    if found != header:
        raise ValueError(f"malformed header: expected {header!r}, got {found!r}")

    def number(field):
        try:
            return float(field)
        except ValueError:
            return None

    ts, rows, rejected = [], [], 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.strip().split(",")
        t = number(fields[0]) if len(fields) == 7 else None
        if t is None or not math.isfinite(t):
            rejected += 1
            continue
        if t < 0:
            raise ValueError(f"negative timestamp at line {lineno}")
        if ts and t <= ts[-1]:
            raise ValueError(f"non-monotonic timestamp at line {lineno}")
        ts.append(t)
        values = [number(f) for f in fields[1:]]
        rows.append([v if v is not None and math.isfinite(v) else math.nan for v in values])
    if rejected:
        warnings.warn(f"rejected {rejected} rows with unparseable timestamps or field counts")
    if not ts:
        raise ValueError("empty log")
    return ts, rows


def stop_runs_oracle(t, accel, rate_hz, threshold, min_stop_seconds, aggregate):
    """[(start_t, end_t)] of the greedy stops, by brute force: from each
    candidate start, the longest in-band run inside its contiguous block is
    found by recomputing max - min over every prefix."""
    period = 1.0 / rate_hz
    if aggregate == "magnitude":
        m = [math.sqrt(x * x + y * y + z * z) for x, y, z in accel]
    else:
        m = [x + y + z for x, y, z in accel]
    n = len(m)
    stops = []
    i = 0
    while i < n:
        block_end = i + 1
        while block_end < n and t[block_end] - t[block_end - 1] <= 2.0 * period:
            block_end += 1
        run_end = i
        for j in range(i + 1, block_end + 1):
            if max(m[i:j]) - min(m[i:j]) > threshold:
                break
            run_end = j
        if run_end > i and t[run_end - 1] - t[i] + period >= min_stop_seconds:
            stops.append((float(t[i]), float(t[run_end - 1] + period)))
            i = run_end
        else:
            i += 1
    return stops


def denoise_oracle(column, window):
    """Centered moving average of one channel: the window is cut at the
    edges, NaN entries are skipped and stay NaN."""
    half = window // 2
    out = []
    for i, value in enumerate(column):
        if math.isnan(value):
            out.append(math.nan)
            continue
        near = [v for v in column[max(0, i - half) : i + half + 1] if not math.isnan(v)]
        out.append(sum(near) / len(near))
    return out


def fill_gaps_oracle(t, rows, max_gap_fill):
    """(timestamps, rows) after gap handling, by scanning each channel for
    runs of missing values.

    A run whose valid anchor samples on both sides lie at most
    `max_gap_fill` seconds apart is bridged on the straight line between
    them; the samples of every other run, leading and trailing runs
    included, are removed from all channels. Raises ValueError when no
    sample is complete.
    """
    n = len(t)
    if not any(all(not math.isnan(v) for v in row) for row in rows):
        raise ValueError("no valid data")
    out = [list(row) for row in rows]
    dropped = set()
    for col in range(6):
        i = 0
        while i < n:
            if not math.isnan(rows[i][col]):
                i += 1
                continue
            j = i
            while j < n and math.isnan(rows[j][col]):
                j += 1
            # samples i .. j-1 are missing; i-1 and j are the anchors
            if i == 0 or j == n or t[j] - t[i - 1] > max_gap_fill:
                dropped.update(range(i, j))
            else:
                t0, t1, x0, x1 = t[i - 1], t[j], rows[i - 1][col], rows[j][col]
                for k in range(i, j):
                    out[k][col] = x0 + (x1 - x0) * (t[k] - t0) / (t1 - t0)
            i = j
    kept = [k for k in range(n) if k not in dropped]
    return [t[k] for k in kept], [out[k] for k in kept]


def break_flags_oracle(t, stops, rate_hz):
    """`break_after` of the samples that survive removing the half-open
    stops [start, end): a kept pair breaks when a sample between them was
    removed or when they lie more than two sample periods apart."""
    kept = [i for i, ti in enumerate(t) if not any(a <= ti < b for a, b in stops)]
    period = 1.0 / rate_hz
    return [j - i > 1 or t[j] - t[i] > 2.0 * period for i, j in zip(kept, kept[1:])]


def mlp_fit_oracle(x, y, n_classes, cfg):
    """(weights, biases, epochs_run) of MLP training under `cfg` (an
    `MlpConfig`), with the control flow spelled out.

    Each class's last round(fraction * count) rows (at least one) validate;
    the rest train, in mini-batches that follow one seeded permutation per
    epoch. An epoch improves when its validation loss is below the best by
    more than 1e-12; training stops after `early_stop_patience` epochs in a
    row without one and restores the best weights. The initialization and
    each loss and gradient come from the library's own `init_params` and
    `loss_and_grads`, so the result can be compared bit for bit.
    """
    from driverid.models.mlp import init_params, loss_and_grads

    n = len(y)
    validate = [False] * n
    for cls in range(n_classes):
        rows = [i for i in range(n) if y[i] == cls]
        if rows:
            n_val = max(1, int(round(cfg.validation_fraction * len(rows))))
            for i in rows[len(rows) - n_val :]:
                validate[i] = True
    train_rows = [i for i in range(n) if not validate[i]]
    val_rows = [i for i in range(n) if validate[i]]
    onehot = np.zeros((n, n_classes))
    for i in range(n):
        onehot[i, y[i]] = 1.0

    rng = np.random.default_rng(cfg.seed)
    net = init_params([x.shape[1], *cfg.hidden_layers, n_classes], cfg.activation, rng)
    best_loss = math.inf
    best = ([w.copy() for w in net.weights], [b.copy() for b in net.biases])
    since_best = 0
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_rows))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_rows[j] for j in order[start : start + cfg.batch_size]]
            loss, grad_w, grad_b = loss_and_grads(net, x[batch], onehot[batch])
            if not math.isfinite(loss):
                raise ValueError(f"diverged at epoch {epoch}")
            for layer in range(len(net.weights)):
                net.weights[layer] = net.weights[layer] - cfg.learning_rate * grad_w[layer]
                net.biases[layer] = net.biases[layer] - cfg.learning_rate * grad_b[layer]
        epochs_run = epoch
        val_loss = loss_and_grads(net, x[val_rows], onehot[val_rows])[0]
        if not math.isfinite(val_loss):
            raise ValueError(f"diverged at epoch {epoch}")
        if val_loss < best_loss - 1e-12:
            best_loss = val_loss
            best = ([w.copy() for w in net.weights], [b.copy() for b in net.biases])
            since_best = 0
        else:
            since_best += 1
            if since_best == cfg.early_stop_patience:
                break
    return best[0], best[1], epochs_run


def synth_events_oracle(data, t, profile, rng, rate_hz):
    """Add a trip's driving events to DATA in place, one event at a time:
    the generator's draws and the sums the synthetic trips were made with."""
    minutes = t[-1] / 60.0 if t.size else 0.0
    n_events = rng.poisson(profile.event_rate * minutes)
    n = data.shape[0]
    for _ in range(n_events):
        start = int(rng.uniform(0, n))
        dur = int(round(rng.uniform(2.0, 4.0) * profile.event_duration_scale * rate_hz))
        stop = min(n, start + max(dur, 2))
        tau = (np.arange(stop - start) + 0.5) / (stop - start)
        env = 0.5 * (1.0 - np.cos(2.0 * np.pi * tau))  # raised cosine in (0, 1]
        kind = rng.uniform()
        scale = rng.uniform(0.75, 1.25)
        if kind < 0.35:  # acceleration
            data[start:stop, 0] += profile.accel_aggressiveness * scale * env
            data[start:stop, 4] += profile.pitch_coupling * profile.accel_aggressiveness * scale * env
        elif kind < 0.70:  # braking
            data[start:stop, 0] -= profile.brake_harshness * scale * env
            data[start:stop, 4] -= 1.2 * profile.pitch_coupling * profile.brake_harshness * scale * env
        else:  # turn
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            omega = profile.turn_rate_scale * scale
            data[start:stop, 5] += sign * omega * env
            data[start:stop, 1] += sign * profile.lateral_g_per_yaw * omega * env
