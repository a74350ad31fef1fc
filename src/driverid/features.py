"""Per-window statistical features and train-only standardization.

Feature families, in fixed schema order: trimmed histogram (per channel),
mean, variance, mean difference to the previous window, and pairwise
Pearson correlation. With all families on and 100 bins a window yields
6*100 + 6 + 6 + 6 + 15 = 633 values. `FeatureConfig.families` holds the
enabled families; `subset_families` reads a subset string such as
"mean+variance" or "all". `extract_sequence` featurizes a whole
`WindowBatch` into one `FeatureBlock` of rows. It computes the families
over the sample axis for a chunk of windows at a time (`CHUNK_SAMPLES`
samples), the histogram included (`trimmed_histograms`, a search of
the sorted rows), so its temporaries stay the size of a chunk.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ingest import CHANNELS
from .segment import TEST, InsufficientData, WindowBatch

FAMILIES = ("histogram", "mean", "variance", "difference", "correlation")
PAIRS = tuple(combinations(range(6), 2))  # 15 channel pairs, lexicographic
_PAIR_I, _PAIR_J = (np.array(side) for side in zip(*PAIRS))
STD_FLOOR = 1e-8
CHUNK_SAMPLES = 1 << 16  # channel samples featurized at a time (512 KB of float64)


@dataclass(frozen=True)
class FeatureConfig:
    families: tuple[str, ...] = FAMILIES  # enabled families, kept in schema order
    histogram_bins: int = 100
    trim_keep_fraction: float = 0.95
    difference_uses_sum: bool = False  # literal sum-minus-mean reading

    def __post_init__(self):
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown feature families: {sorted(unknown)}")
        if not self.families:
            raise ValueError("at least one feature family must be enabled")
        object.__setattr__(self, "families", tuple(f for f in FAMILIES if f in self.families))
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if not 0.0 < self.trim_keep_fraction <= 1.0:
            raise ValueError("trim_keep_fraction must be in (0, 1]")

    def dimension(self) -> int:
        return len(feature_schema(self))


def subset_families(subset: str) -> tuple[str, ...]:
    """The families a subset string names ("mean+variance", or "all"), in schema order.

    Rejects an unknown family or an empty subset with `ValueError`.
    """
    return FeatureConfig(families=FAMILIES if subset == "all" else tuple(subset.split("+"))).families


def feature_schema(cfg: FeatureConfig) -> tuple[tuple[str, str, int], ...]:
    """Deterministic (family, signal-or-pair, index) descriptor list for a config."""
    schema: list[tuple[str, str, int]] = []
    for family in cfg.families:
        if family == "histogram":
            for ch in CHANNELS:
                schema.extend(("histogram", ch, b) for b in range(cfg.histogram_bins))
        elif family == "correlation":
            for i, j in PAIRS:
                schema.append(("correlation", f"{CHANNELS[i]}:{CHANNELS[j]}", 0))
        else:
            schema.extend((family, ch, 0) for ch in CHANNELS)
    return tuple(schema)


def schema_labels(schema) -> tuple[str, ...]:
    return tuple(
        f"{fam}_{sig}_{idx:03d}" if fam == "histogram" else f"{fam}_{sig.replace(':', '_')}"
        for fam, sig, idx in schema
    )


@dataclass(frozen=True, eq=False)
class FeatureBlock:
    """Feature rows of one span's windows, in window order."""

    values: np.ndarray          # (n, d)
    driver_id: str
    partition: str

    def __len__(self) -> int:
        return self.values.shape[0]


def trimmed_histogram(signal, bins: int, keep: float) -> np.ndarray:
    """Normalized occupancy histogram over the central `keep` fraction of a signal.

    The trim range [q_lo, q_hi] is taken at the (1-keep)/2 and 1-(1-keep)/2
    empirical quantiles (linear interpolation). In-range samples are counted
    into `bins` equal-width bins over that range (last bin right-closed) and
    counts are normalized to sum to one. A constant signal puts all mass in
    bin 0. A signal with a NaN or infinite sample, or with no sample inside
    the range (too few samples for `keep`), raises `ValueError`.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("signal must be 1-D with at least 2 samples")
    return trimmed_histograms(x[None], bins, keep)[0]


def trim_quantiles(s: np.ndarray, keep: float) -> tuple[np.ndarray, np.ndarray]:
    """The (1-keep)/2 and 1-(1-keep)/2 quantiles of each row of sorted rows `s`, as (m, 1) columns.

    Equal to ``np.quantile(s, [tail, 1 - tail], axis=-1)`` bit for bit:
    numpy's linear method reads order statistics ``floor((w-1)q)`` and the
    one after, and interpolates from the upper one when the fraction is 0.5
    or more.
    """
    w = s.shape[-1]
    tail = (1.0 - keep) / 2.0
    bounds = []
    for q in (tail, 1.0 - tail):
        pos = (w - 1) * q
        i = int(pos)
        j = min(i + 1, w - 1)
        frac = pos - i
        a, b = s[:, i : i + 1], s[:, j : j + 1]
        diff = b - a
        bounds.append(b - diff * (1.0 - frac) if frac >= 0.5 else a + diff * frac)
    return bounds[0], bounds[1]


def trimmed_histograms(x: np.ndarray, bins: int, keep: float) -> np.ndarray:
    """`trimmed_histogram` of every row of an (m, w) array, w >= 2, as (m, bins).

    The edges are ``np.linspace(q_lo, q_hi, bins + 1)``'s values, and a
    sample falls in the last bin whose lower edge it reaches, as in
    `np.histogram`. Each row is sorted once and its trim range read off it
    (`trim_quantiles`). Bin k then holds ``#{s < edge k+1} - #{s < edge k}``
    samples (``#{s <= q_hi}`` closes the last bin), and one branch-free
    lower-bound search finds these positions on every row at once (Khuong &
    Morin, "Array Layouts for Comparison-Based Searching", 2017). Like
    `np.histogram`, a range too narrow for `bins` distinct edges raises
    `ValueError`.
    """
    m, w = x.shape
    if not np.isfinite(x).all():
        raise ValueError(f"a {w}-sample signal has a non-finite sample, so its trimmed range is not finite")
    s = np.sort(x, axis=-1)  # occupancy does not depend on sample order
    lo, hi = trim_quantiles(s, keep)
    constant = lo == hi
    step = np.where(constant, 1.0, hi - lo) / bins  # constant rows are set below

    edges = np.arange(bins + 1.0) * step + lo
    edges[:, -1:] = hi
    if (edges[:, :-1] >= edges[:, 1:])[~constant[:, 0]].any():
        raise ValueError(
            f"the trimmed range of a {w}-sample signal is too narrow for {bins} finite-sized bins"
        )
    edges[:, -1:] = np.nextafter(hi, np.inf)  # #{s < next float up} = #{s <= q_hi}
    # Lower-bound search over the flattened rows: each edge's row offset plus its
    # count of smaller samples lies in [base, base + n]; the offsets cancel in the counts.
    flat = s.ravel()
    base = np.arange(0, m * w, w)[:, None].repeat(bins + 1, axis=1)
    n = w
    while n > 1:
        half = n // 2
        base += (flat[base + half] < edges) * half  # arithmetic, not a masked copy, so it never branches
        n -= half
    base += flat[base] < edges
    counts = np.diff(base, axis=1)
    total = base[:, -1:] - base[:, :1]
    if (total[~constant] == 0).any():
        raise ValueError(
            f"no sample of a {w}-sample signal lies inside its trimmed range "
            f"at trim_keep_fraction {keep}"
        )
    out = np.zeros(counts.shape)
    np.divide(counts, total, out=out, where=~constant)
    out[constant[:, 0], 0] = 1.0
    return out


def extract_sequence(batch: WindowBatch, cfg: FeatureConfig) -> FeatureBlock:
    """Featurize one span's windows in time order, enabled families in schema order.

    Callers pass the batch of one partition of one trip, so the difference
    family never reaches across partitions or trips. Reductions run over the
    contiguous sample axis, so each row equals featurizing its window alone.
    The windows are featurized `CHUNK_SAMPLES` channel samples at a time;
    the difference family is taken from the whole batch's means first, so
    it crosses chunk boundaries unchanged.
    """
    x = batch.channels
    n, _, w = x.shape
    mean = x.mean(axis=-1)
    if "difference" in cfg.families:  # level minus the previous window's mean; row 0 is 0
        level = x.sum(axis=-1) if cfg.difference_uses_sum else mean
        difference = np.zeros_like(mean)
        difference[1:] = level[1:] - mean[:-1]
    out = np.empty((n, cfg.dimension()))
    chunk = max(1, CHUNK_SAMPLES // (6 * w))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        xc, mc = x[rows], mean[rows]
        parts = []
        for family in cfg.families:
            if family == "histogram":
                hist = trimmed_histograms(xc.reshape(-1, w), cfg.histogram_bins, cfg.trim_keep_fraction)
                parts.append(hist.reshape(len(xc), 6 * cfg.histogram_bins))
            elif family == "mean":
                parts.append(mc)
            elif family == "variance":
                parts.append(xc.var(axis=-1))  # population variance (divide by N)
            elif family == "difference":
                parts.append(difference[rows])
            elif family == "correlation":
                parts.append(_correlation(xc, mc))
        np.concatenate(parts, axis=1, out=out[rows])
    return FeatureBlock(out, batch.driver_id, batch.partition)


def _correlation(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Pearson correlation for the 15 unordered channel pairs, clamped to [-1, 1].

    A pair involving a zero-variance channel reports 0.
    """
    centered = x - mean[..., None]
    cov = centered @ centered.transpose(0, 2, 1) / x.shape[-1]
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    si, sj = sd[:, _PAIR_I], sd[:, _PAIR_J]
    out = np.zeros(si.shape)
    np.divide(cov[:, _PAIR_I, _PAIR_J], si * sj, out=out, where=(si != 0.0) & (sj != 0.0))
    return np.clip(out, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-dimension z-score transform fitted on training vectors only."""

    mean: np.ndarray
    std: np.ndarray  # floored at STD_FLOOR

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).view()
        std = np.asarray(self.std, dtype=np.float64).view()
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be matching 1-D arrays")
        if (std <= 0).any():
            raise ValueError("std entries must be positive")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def dimension(self) -> int:
        return self.mean.size


def fit_standardizer(blocks) -> Standardizer:
    """Fit per-dimension mean/std on the rows of feature blocks.

    Rejects any block tagged as test data. The std is ``np.std``'s own
    sequence of steps (mean, subtract, square, sum, divide, square root),
    done in place on the stacked copy of the rows, so the fit needs no
    temporary the size of the rows and gives ``np.std``'s bits.
    """
    blocks = list(blocks)
    if any(block.partition == TEST for block in blocks):
        raise ValueError("standardizer must be fitted on train vectors only")
    matrix = np.vstack([block.values for block in blocks], dtype=np.float64)
    if matrix.shape[0] < 2:
        raise InsufficientData("need at least 2 training vectors to fit a standardizer")
    mean = matrix.mean(axis=0)
    np.subtract(matrix, mean, out=matrix)  # the deviations, then their squares
    np.multiply(matrix, matrix, out=matrix)
    std = np.maximum(np.sqrt(matrix.sum(axis=0) / matrix.shape[0]), STD_FLOOR)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(std: Standardizer, vector):
    """Z-score a vector or matrix with train statistics into a new array;
    never refits, never writes to ``vector``."""
    return standardize_in_place(std, np.array(vector, dtype=np.float64))


def standardize_in_place(std: Standardizer, rows: np.ndarray) -> np.ndarray:
    """Z-score the float64 ``rows`` in place and return them: subtract the
    mean, then divide by the std, element by element."""
    if rows.ndim == 0 or rows.shape[-1] != std.dimension:
        raise ValueError(f"dimension mismatch: vector of shape {rows.shape}, standardizer {std.dimension}")
    np.subtract(rows, std.mean, out=rows)
    return np.divide(rows, std.std, out=rows)
