"""Mimicry-based null distributions for contingency-table statistics.

A mimic of a table redistributes each response column's total across the
covariate rows by a multinomial draw with the observed row-margin
proportions, so it shares the table's marginal structure but is independent
of the response by construction.  Statistics over an ensemble of mimics
give the null band behind the confirmable-effect decision.

Where too few designated noise features exist, a noise level draws
synthetic uniform features binned 1+K+1 like a real covariate, a block of
replicates at a time.  Every quantile here, of a band or of a synthetic
feature, comes from sorted order statistics with numpy's "linear" rule, bit
for bit (``categorize.linear_quantile``).  A block whose dense table of
(replicate, base, noise) rows by response columns fits in
``SYNTHETIC_BLOCK_VALUES`` cells is counted into that table with one
bincount; a wider one is fused first.

Randomness uses numpy's Philox counter-based generator; every band or job
derives its own stream from (master seed, job key), so results do not
depend on evaluation order or degree of parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ceda.categorize import TAIL_QUANTILES, linear_quantile
from ceda.tabulate import (
    CategoricalSeries,
    ContingencyTable,
    column_margin_entropy,
    counts_ce,
    crosstab,  # noqa: F401  (unused; bench/test_bench.py expects the tracer to wrap it here)
    fuse_labels,
    mutual_information,
    xlogx_table,
)

__all__ = [
    "C1Verdict",
    "NullBand",
    "band_from_samples",
    "c1_test",
    "child_rng",
    "mi_verdict",
    "mimic_ce_samples",
    "null_band",
]

# Synthetic replicates are drawn and tabulated in blocks of at most this many
# uniform values (at least one replicate): a block's working arrays grow with
# it, so the bound keeps the peak memory near that of one replicate at a time.
SYNTHETIC_BLOCK_VALUES = 16_384


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for job ``key`` under one master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class NullBand:
    """Summary of a simulated null distribution of one statistic."""

    statistic_name: str
    replicates: int
    mean: float
    sd: float
    q025: float
    q975: float

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.q025 > self.q975:
            raise ValueError("q025 must not exceed q975")

    def to_json_dict(self) -> dict:
        return {
            "stat": self.statistic_name,
            "B": self.replicates,
            "mean": self.mean,
            "sd": self.sd,
            "q025": self.q025,
            "q975": self.q975,
        }


@dataclass(frozen=True)
class C1Verdict:
    """Where an observed statistic sits relative to its null band."""

    observed: float
    band: NullBand
    status: str
    excess_sd: float


def band_from_samples(name: str, samples: np.ndarray) -> NullBand:
    """Band of ``samples``: mean, sd (ddof 1) and the 2.5%/97.5% quantiles.

    The quantiles come from sorted order statistics with numpy's "linear"
    rule, bit for bit (``linear_quantile``).
    """
    samples = np.asarray(samples, dtype=float)
    q025, q975 = linear_quantile(samples, [0.025, 0.975])
    return NullBand(
        statistic_name=name,
        replicates=samples.size,
        mean=float(samples.mean()),
        sd=float(samples.std(ddof=1)),
        q025=float(q025),
        q975=float(q975),
    )


def mimic_ce_samples(
    table: ContingencyTable, n_replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """Conditional entropies of ``n_replicates`` mimics, drawn vectorized.

    The per-column multinomial is realized as sequential conditional
    binomials over the rows, one vectorized draw per row across all
    replicates and columns.

    Each count k enters the entropy through k*log(k), read from a lookup
    table over 0..total (entry 0 is 0.0).  A row's cell terms are summed
    strictly in column order by ``np.add.accumulate``, and zero cells add an
    exact +0.0, so each replicate's sums, and the samples, are the same bit
    for bit as summing the positive cells' k*log(k) one by one in that order.
    """
    counts = table.counts
    n_rows, n_cols = counts.shape
    total = float(table.total)
    probs = table.row_margin / total
    xlogx = xlogx_table(table.total)

    remaining = np.broadcast_to(
        table.col_margin, (n_replicates, n_cols)
    ).astype(np.int64)
    cell_xlogx = np.zeros(n_replicates)
    row_xlogx = np.zeros(n_replicates)
    # reused on every row: fresh temporaries this large (past glibc's mmap and
    # trim thresholds at 200 x 102) went back to the OS and were refaulted per row
    terms = np.empty((n_replicates, n_cols))
    sums = np.empty((n_replicates, n_cols))
    p_left = 1.0
    for r in range(n_rows):
        if r == n_rows - 1:
            draw = remaining
        else:
            p = probs[r] / p_left if p_left > 0 else 0.0
            draw = rng.binomial(remaining, min(max(p, 0.0), 1.0))
            np.subtract(remaining, draw, out=remaining)
            p_left -= probs[r]
        np.take(xlogx, draw, out=terms)
        cell_xlogx += np.add.accumulate(terms, axis=1, out=sums)[:, -1]
        row_xlogx += xlogx[draw.sum(axis=1)]
    ce = (row_xlogx - cell_xlogx) / total
    return np.maximum(ce, 0.0)


def null_band(table: ContingencyTable, n_replicates: int, rng: np.random.Generator) -> NullBand:
    """Null band of I[Y; A] over ``n_replicates`` independent mimics of the table.

    Each mimic's MI is clamped at zero like the observed one.  Fewer than
    ~1000 replicates give unstable tail percentiles.
    """
    if n_replicates < 2:
        raise ValueError("need at least 2 replicates")
    ce = mimic_ce_samples(table, n_replicates, rng)
    samples = np.maximum(column_margin_entropy(table) - ce, 0.0)
    return band_from_samples("mutual_information", samples)


def c1_test(observed: float, band: NullBand) -> C1Verdict:
    """Confirmed iff strictly above the 97.5% percentile of the null."""
    if observed > band.q975:
        status = "confirmed"
    elif observed < band.q025:
        status = "below_band"
    else:
        status = "within_band"
    if band.sd > 0:
        excess = (observed - band.mean) / band.sd
    elif observed > band.mean:
        excess = float("inf")
    elif observed < band.mean:
        excess = float("-inf")
    else:
        excess = 0.0
    return C1Verdict(observed=float(observed), band=band, status=status, excess_sd=excess)


def mi_verdict(table: ContingencyTable, n_replicates: int, rng: np.random.Generator) -> C1Verdict:
    """The [C1] test: the table's I[Y; A] against its mimic null band from ``rng``."""
    band = null_band(table, n_replicates, rng)
    return c1_test(mutual_information(table), band)


def synthetic_noise_series(
    n: int, n_bins: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Labels of ``count`` i.i.d. uniform features, each binned 1+K+1 like a real covariate.

    Returns a ``(count, n)`` label array of the narrowest unsigned dtype that
    holds the K + 2 labels; row i is feature i.  The features are drawn as
    one ``rng.random((count, n))``, which takes the same values from the
    stream as ``count`` successive ``rng.random(n)`` calls.  Each row gets
    its own ``quantile_bins`` scheme with K = ``max(n_bins - 2, 1)``: the
    row's ``TAIL_QUANTILES``, from its sorted order statistics with
    numpy's "linear" rule (``linear_quantile``), cut into K equal-width bins.
    A label is the number of the row's edges strictly below the value, as in
    ``apply_bins``, counted one edge at a time.  Rows are therefore labelled
    exactly as one feature at a time would be, bit for bit.
    """
    k = max(n_bins - 2, 1)
    if n < k + 2:
        raise ValueError("too few values for the requested bin count")
    values = rng.random((count, n))
    lo, hi = linear_quantile(values, TAIL_QUANTILES)
    edges = np.linspace(lo, hi, k + 1, axis=1)
    if not (np.diff(edges, axis=1) > 0).all():
        raise ValueError("degenerate feature: quantile range has zero width")
    labels = np.zeros((count, n), dtype=np.min_scalar_type(k + 1))
    above = np.empty((count, n), dtype=bool)
    for j in range(k + 1):
        labels += np.greater(values, edges[:, j, None], out=above)
    return labels


def synthetic_ce_samples(
    base: tuple,
    response: CategoricalSeries,
    pad: int,
    n_bins: int,
    replicates: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """H[response | base + ``pad`` synthetic noise features], once per replicate.

    Replicate r draws its ``pad`` features (see ``synthetic_noise_series``)
    right after replicate r - 1's, so the samples and the generator's final
    state are those of drawing, cross-tabulating and measuring one replicate
    at a time with ``crosstab`` and ``conditional_entropy``, bit for bit.

    The features' quantiles come from sorted order statistics with numpy's
    "linear" rule.  Replicates are handled in blocks of at most
    ``SYNTHETIC_BLOCK_VALUES`` uniform values, and each block is counted in
    one bincount (see ``_block_ce``): into its dense table while that has at
    most ``SYNTHETIC_BLOCK_VALUES`` cells, else after fusing the block's
    occupied label tuples.  Each replicate's occupied rows come out in
    ``crosstab``'s row order, and its entropy is ``tabulate.counts_ce`` of
    them, as ``conditional_entropy`` is of its table.
    """
    n = len(response)
    xlogx = xlogx_table(n)
    block = max(1, SYNTHETIC_BLOCK_VALUES // (n * pad))
    samples = []
    for first in range(0, replicates, block):
        b = min(block, replicates - first)
        # a block's arrays are freed when _block_ce returns, before the next draw
        samples += _block_ce(
            base,
            response,
            synthetic_noise_series(n, n_bins, rng, b * pad).reshape(b, pad, n),
            max(n_bins, 3),
            xlogx,
        )
    return np.asarray(samples)


def _block_ce(
    base: tuple, response: CategoricalSeries, noise: np.ndarray, card: int, xlogx: np.ndarray
) -> list:
    """H[response | base + noise[r]] for each replicate r of a ``(b, pad, n)`` label block.

    While the block's dense table, b x span x n_cols cells (span the product
    of the base and noise cardinalities), holds at most
    ``SYNTHETIC_BLOCK_VALUES`` cells, a record's cell is the mixed-radix code
    of (replicate, base labels, noise labels, response label) and one
    bincount fills the table; replicate r's occupied rows are those of
    ``full[r]`` with a positive row sum.  A wider block is fused with its
    replicate index first by ``fuse_labels``, so each replicate's occupied
    rows come out together, and one bincount counts the fused cells.
    """
    b, pad, n = noise.shape
    n_cols = response.cardinality
    span = math.prod(s.cardinality for s in base) * card**pad
    if b * span * n_cols <= SYNTHETIC_BLOCK_VALUES:
        codes = np.repeat(np.arange(b), n).reshape(b, n)
        for s in base:
            codes *= s.cardinality
            codes += s.labels
        for j in range(pad):
            codes *= card
            codes += noise[:, j]
        codes *= n_cols
        codes += response.labels
        full = np.bincount(codes.ravel(), minlength=b * span * n_cols).reshape(b, span, n_cols)
        return [counts_ce(rep[rep.any(axis=1)], xlogx) for rep in full]
    series = [CategoricalSeries(np.repeat(np.arange(b), n), b)]
    series += [CategoricalSeries(np.tile(s.labels, b), s.cardinality) for s in base]
    series += [CategoricalSeries(noise[:, j].ravel(), card) for j in range(pad)]
    rows, n_rows = fuse_labels(series)
    cells = np.bincount(rows * n_cols + np.tile(response.labels, b), minlength=n_rows * n_cols)
    cells = cells.reshape(n_rows, n_cols)
    # the replicate index leads the fusion: replicate r's rows end at its largest rank
    stops = (rows.reshape(b, n).max(axis=1) + 1).tolist()
    return [counts_ce(cells[start:stop], xlogx) for start, stop in zip([0] + stops, stops)]
