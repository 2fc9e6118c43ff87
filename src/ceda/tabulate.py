"""Contingency tables and the Shannon-entropy measurements evaluated on them.

A table is its count matrix alone: covariate categories on rows, response
categories on columns.  Empty covariate rows are never stored; empty
response columns are kept so tables built over different covariate subsets
share one column axis.  A table over several covariates is the table of
their fusion (``categorize.product_categories``), one series per table.
All entropies are in nats and 0*ln(0) is taken as 0.  No bias correction
or smoothing is applied anywhere.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=1)
def xlogx_table(total: int) -> np.ndarray:
    """k*ln(k) for every count k in 0..total, entry 0 being 0.0: one float per record.

    Every table of a run has the same total, so the last total's table is
    kept and shared; it is read-only.  It is built in place, two arrays of
    the total's length at peak.
    """
    out = np.arange(total + 1, dtype=float)
    out[1:] *= np.log(out[1:])
    out.flags.writeable = False
    return out


def counts_ce(counts: np.ndarray, xlogx: np.ndarray) -> float:
    """H[Y|A] of a count matrix whose rows are all occupied, summed in row order.

    ``max((sum of xlogx[row sums] - sum of xlogx[cells]) / n, 0)``, n the
    matrix total; ``xlogx`` is an ``xlogx_table`` reaching the largest row sum.
    """
    row_sums = counts.sum(axis=1)
    h = (xlogx[row_sums].sum() - xlogx[counts].sum()) / row_sums.sum()
    return max(float(h), 0.0)


@dataclass(frozen=True)
class CategoricalSeries:
    """Per-record category labels for one (possibly fused) variable.

    ``labels`` are 0-based category indices; ``cardinality`` counts the
    distinct categories the variable can take (categories may be unobserved).
    """

    labels: np.ndarray
    cardinality: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        if labels.min() < 0 or labels.max() >= self.cardinality:
            raise ValueError("every label must satisfy 0 <= label < cardinality")

    def __len__(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class ContingencyTable:
    """R x C count matrix, occupied covariate categories vs response categories; total > 0."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if (counts.sum(axis=1) == 0).any():
            raise ValueError("all-zero covariate rows must not be stored")
        object.__setattr__(self, "total", int(counts.sum()))
        if self.total <= 0:
            raise ValueError("table total must be positive")

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

    def to_json_dict(self, total: int) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "total": total,
            "h_y": self.h_y,
            "h_y_given_a": self.h_y_given_a,
            "mi": self.mutual_info,
        }


def fuse_labels(series) -> tuple[np.ndarray, int]:
    """Rank the occupied label tuples of several series, lexicographically.

    Returns ``(ranks, count)``: ``ranks[i]`` is the dense 0-based rank of
    record i's label tuple among the ``count`` occupied tuples.  The order
    is that of ``np.unique(np.column_stack(labels), axis=0)``.

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
    count = 1
    for s in series:
        labels, card = s.labels, s.cardinality
        if card > n:
            # more categories than records: rank the labels that occur
            values, labels = np.unique(labels, return_inverse=True)
            card = values.size
        code = ranks * card + labels
        span = count * card
        if span <= n:
            running = np.cumsum(np.bincount(code, minlength=span) > 0)
            ranks = running[code] - 1
            count = int(running[-1])
        else:
            codes, ranks = np.unique(code, return_inverse=True)
            count = codes.size
    return ranks, count


def crosstab(covariate: CategoricalSeries, response: CategoricalSeries) -> ContingencyTable:
    """Cross-tabulate one covariate series against the response.

    Rows are the covariate's occupied categories, in label order; columns
    cover every response category, empty ones included.  Several covariates
    are tabulated as one, fused with ``categorize.product_categories``.
    """
    if len(covariate) != len(response):
        raise ValueError("covariate and response lengths differ")
    rows, n_rows = fuse_labels([covariate])
    n_cols = response.cardinality
    counts = np.bincount(rows * n_cols + response.labels, minlength=n_rows * n_cols)
    return ContingencyTable(counts.reshape(n_rows, n_cols))


def column_margin_entropy(table: ContingencyTable) -> float:
    """Entropy of the response margin, H[Y], skipping empty columns."""
    total = table.total
    return float(np.log(total) - xlogx_table(total)[table.col_margin].sum() / total)


def conditional_entropy(table: ContingencyTable) -> float:
    """Row-weighted entropy of the within-row response distributions, H[Y|A]."""
    return counts_ce(table.counts, xlogx_table(table.total))


def mutual_information(table: ContingencyTable) -> float:
    """I[Y;A] = max(H[Y] - H[Y|A], 0)."""
    return entropy_report(table).mutual_info


def entropy_report(table: ContingencyTable) -> EntropyReport:
    """H[Y], H[Y|A] and I[Y;A] = max(H[Y] - H[Y|A], 0), the rule of every mimic's MI."""
    h_y = column_margin_entropy(table)
    h_cond = conditional_entropy(table)
    return EntropyReport(
        h_y=h_y,
        h_y_given_a=h_cond,
        mutual_info=max(h_y - h_cond, 0.0),
        rows=table.rows,
        cols=table.cols,
    )

