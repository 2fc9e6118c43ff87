"""Mimicry-based null distributions for contingency-table statistics.

A mimic of a table redistributes each response column's total across the
covariate rows by a multinomial draw with the observed row-margin
proportions, so it shares the table's marginal structure but is independent
of the response by construction.  Statistics over an ensemble of mimics
give the null band behind the confirmable-effect decision.

Randomness uses numpy's Philox counter-based generator; every band or job
derives its own stream from (master seed, job key), so results do not
depend on evaluation order or degree of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ceda.tabulate import (
    CategoricalSeries,
    ContingencyTable,
    column_margin_entropy,
    crosstab,  # noqa: F401  (unused; bench/test_bench.py expects the tracer to wrap it here)
)
from ceda.categorize import apply_bins, quantile_bins

__all__ = [
    "C1Verdict",
    "NullBand",
    "c1_test",
    "child_rng",
    "mimic_ce_samples",
    "mimic_table",
    "null_band",
]

SAMPLE_RETENTION_LIMIT = 10_000


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
    samples: np.ndarray | None = None

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
    samples = np.asarray(samples, dtype=float)
    q025, q975 = np.quantile(samples, [0.025, 0.975])
    return NullBand(
        statistic_name=name,
        replicates=samples.size,
        mean=float(samples.mean()),
        sd=float(samples.std(ddof=1)),
        q025=float(q025),
        q975=float(q975),
        samples=samples if samples.size <= SAMPLE_RETENTION_LIMIT else None,
    )


def mimic_table(table: ContingencyTable, rng: np.random.Generator) -> ContingencyTable:
    """One mimic: per response column, a multinomial split over the rows.

    Column sums are preserved exactly; row sums only in expectation.  Rows
    that come out empty are dropped, as in any constructed table.
    """
    if table.total <= 0:
        raise ValueError("table total must be positive")
    probs = table.row_margin / table.total
    counts = np.empty_like(table.counts)
    for c in range(table.cols):
        counts[:, c] = rng.multinomial(int(table.col_margin[c]), probs)
    keep = counts.sum(axis=1) > 0
    return ContingencyTable(
        counts=counts[keep],
        row_keys=tuple(k for k, m in zip(table.row_keys, keep) if m),
        col_keys=table.col_keys,
        total=table.total,
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
    k = np.arange(1, table.total + 1, dtype=float)
    xlogx = np.concatenate(([0.0], k * np.log(k)))

    remaining = np.broadcast_to(
        table.col_margin, (n_replicates, n_cols)
    ).astype(np.int64)
    cell_xlogx = np.zeros(n_replicates)
    row_xlogx = np.zeros(n_replicates)
    p_left = 1.0
    for r in range(n_rows):
        if r == n_rows - 1:
            draw = remaining
        else:
            p = probs[r] / p_left if p_left > 0 else 0.0
            draw = rng.binomial(remaining, min(max(p, 0.0), 1.0))
            np.subtract(remaining, draw, out=remaining)
            p_left -= probs[r]
        cell_xlogx += np.add.accumulate(xlogx[draw], axis=1)[:, -1]
        row_xlogx += xlogx[draw.sum(axis=1)]
    ce = (row_xlogx - cell_xlogx) / total
    return np.maximum(ce, 0.0)


def null_band(
    table: ContingencyTable,
    statistic: str,
    n_replicates: int = 1000,
    rng: np.random.Generator | int | None = None,
) -> NullBand:
    """Null band of a statistic over independent mimics of the table.

    ``statistic`` is "mutual_information" or "conditional_entropy";
    percentiles use linear interpolation.  Fewer than ~1000 replicates
    give unstable tail percentiles.
    """
    if statistic not in ("mutual_information", "conditional_entropy"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if n_replicates < 2:
        raise ValueError("need at least 2 replicates")
    if not isinstance(rng, np.random.Generator):
        rng = child_rng(0 if rng is None else int(rng))
    ce = mimic_ce_samples(table, n_replicates, rng)
    if statistic == "conditional_entropy":
        samples = ce
    else:
        samples = np.maximum(column_margin_entropy(table) - ce, 0.0)
    return band_from_samples(statistic, samples)


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


def synthetic_noise_series(
    n: int, n_bins: int, rng: np.random.Generator
) -> CategoricalSeries:
    """One i.i.d. uniform feature, binned 1+K+1 like a real covariate."""
    values = rng.random(n)
    scheme = quantile_bins(values, max(n_bins - 2, 1))
    return apply_bins(values, scheme)
