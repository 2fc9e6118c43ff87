"""Contingency tables and the Shannon-entropy measurements evaluated on them.

Conventions: covariate categories on rows, response categories on columns.
Empty covariate rows are never stored; empty response columns are kept so
tables built over different covariate subsets share one column axis.
All entropies are in nats and 0*ln(0) is taken as 0.  No bias correction
or smoothing is applied anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CategoricalSeries",
    "ContingencyTable",
    "EntropyReport",
    "column_margin_entropy",
    "conditional_entropy",
    "crosstab",
    "entropy_report",
    "fuse_labels",
    "mutual_information",
]

#: floating-point slack below which a negative mutual information is clamped to 0
MI_CLAMP = 1e-12


def _xlogx(a: np.ndarray) -> np.ndarray:
    """x*ln(x) elementwise with the 0*ln(0)=0 convention."""
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    pos = a > 0
    out[pos] = a[pos] * np.log(a[pos])
    return out


def counts_entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of the distribution proportional to ``counts``."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    return float(np.log(total) - _xlogx(counts).sum() / total)


@dataclass(frozen=True)
class CategoricalSeries:
    """Per-record category labels for one (possibly fused) variable.

    ``labels`` are 0-based category indices; ``cardinality`` counts the
    distinct categories the variable can take (categories may be unobserved).
    """

    labels: np.ndarray
    cardinality: int
    names: tuple | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        if labels.min() < 0 or labels.max() >= self.cardinality:
            raise ValueError("every label must satisfy 0 <= label < cardinality")
        if self.names is not None and len(self.names) != self.cardinality:
            raise ValueError("names must have one entry per category")

    def __len__(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class ContingencyTable:
    """R x C count matrix: occupied covariate categories vs response categories."""

    counts: np.ndarray
    row_keys: tuple
    col_keys: tuple
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if int(counts.sum()) != self.total:
            raise ValueError("cell counts must sum to total")
        if (counts.sum(axis=1) == 0).any():
            raise ValueError("all-zero covariate rows must not be stored")
        if len(self.row_keys) != counts.shape[0] or len(self.col_keys) != counts.shape[1]:
            raise ValueError("row/col key lengths must match the count matrix")

    @property
    def rows(self) -> int:
        return self.counts.shape[0]

    @property
    def cols(self) -> int:
        return self.counts.shape[1]

    @property
    def row_margin(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_margin(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def avg_cell_count(self) -> float:
        return self.total / (self.rows * self.cols)


@dataclass(frozen=True)
class EntropyReport:
    """Margin entropy, conditional entropy and their difference for one table."""

    h_y: float
    h_y_given_a: float
    mutual_info: float
    rows: int
    cols: int

    def to_json(self, total: int) -> str:
        obj = {
            "rows": self.rows,
            "cols": self.cols,
            "total": total,
            "h_y": self.h_y,
            "h_y_given_a": self.h_y_given_a,
            "mi": self.mutual_info,
        }
        return json.dumps(obj)


def fuse_labels(series) -> tuple[np.ndarray, np.ndarray]:
    """Rank the occupied label tuples of several series, lexicographically.

    Returns ``(ranks, keys)``: ``ranks[i]`` is the dense 0-based rank of
    record i's label tuple and ``keys[r]`` is the tuple of rank r, one
    column per series, so ``keys[ranks]`` rebuilds the stacked labels.  The
    order is that of ``np.unique(np.column_stack(labels), axis=0)``.

    Series are fused one at a time as the mixed-radix code
    ``rank * cardinality + label`` and re-ranked after each step, so a code
    stays below (records x cardinality) and never overflows int64, at any
    number of series.  A step whose code range is at most the record count
    is ranked with a bincount occupancy table; a wider one falls back to a
    1-D sort, which keeps memory bounded by the record count.
    """
    series = list(series)
    if not series:
        raise ValueError("empty series list")
    n = len(series[0])
    for s in series:
        if len(s) != n:
            raise ValueError("series lengths differ")
    ranks = np.zeros(n, dtype=np.int64)
    keys = np.zeros((1, 0), dtype=np.int64)
    for s in series:
        labels, card = s.labels, s.cardinality
        values = None
        if card > n:
            # more categories than records: rank the labels that occur
            values, labels = np.unique(labels, return_inverse=True)
            card = values.size
        code = ranks * card + labels
        span = keys.shape[0] * card
        if span <= n:
            occupied = np.bincount(code, minlength=span) > 0
            codes = np.flatnonzero(occupied)
            ranks = (np.cumsum(occupied) - 1)[code]
        else:
            codes, ranks = np.unique(code, return_inverse=True)
        prev, last = np.divmod(codes, card)
        if values is not None:
            last = values[last]
        keys = np.column_stack([keys[prev], last])
    return ranks, keys


def crosstab(covariate, response: CategoricalSeries) -> ContingencyTable:
    """Cross-tabulate one covariate (or a tuple of them) against the response.

    A tuple of series is fused on the fly, exactly as ``product_categories``
    would fuse it: row keys are the occupied covariate tuples only, in
    lexicographic order of the input labels.  Columns cover every response
    category, empty ones included.
    """
    if isinstance(covariate, CategoricalSeries):
        covs = (covariate,)
    else:
        covs = tuple(covariate)
        if not covs:
            raise ValueError("empty covariate input")
    n = len(response)
    for c in covs:
        if len(c) != n:
            raise ValueError("covariate and response lengths differ")
    row_idx, keys = fuse_labels(covs)
    n_rows = keys.shape[0]
    n_cols = response.cardinality
    counts = np.bincount(row_idx * n_cols + response.labels, minlength=n_rows * n_cols)
    counts = counts.reshape(n_rows, n_cols)
    row_keys = tuple(map(tuple, keys.tolist()))
    if response.names is not None:
        col_keys = tuple(response.names)
    else:
        col_keys = tuple(range(n_cols))
    return ContingencyTable(counts=counts, row_keys=row_keys, col_keys=col_keys, total=n)


def column_margin_entropy(table: ContingencyTable) -> float:
    """Entropy of the response margin, H[Y], skipping empty columns."""
    if table.total <= 0:
        raise ValueError("table total must be positive")
    return counts_entropy(table.col_margin)


def conditional_entropy(table: ContingencyTable) -> float:
    """Row-weighted entropy of the within-row response distributions, H[Y|A]."""
    if table.total <= 0:
        raise ValueError("table total must be positive")
    counts = table.counts.astype(float)
    n = float(table.total)
    row_sums = counts.sum(axis=1)
    h = (_xlogx(row_sums).sum() - _xlogx(counts).sum()) / n
    return float(max(h, 0.0))


def mutual_information(table: ContingencyTable) -> float:
    """I[Y;A] = H[Y] - H[Y|A], with tiny float negatives clamped to zero."""
    mi = column_margin_entropy(table) - conditional_entropy(table)
    if -MI_CLAMP < mi < 0.0:
        mi = 0.0
    return mi


def entropy_report(table: ContingencyTable) -> EntropyReport:
    h_y = column_margin_entropy(table)
    h_cond = conditional_entropy(table)
    mi = h_y - h_cond
    if -MI_CLAMP < mi < 0.0:
        mi = 0.0
    return EntropyReport(
        h_y=h_y,
        h_y_given_a=h_cond,
        mutual_info=mi,
        rows=table.rows,
        cols=table.cols,
    )

