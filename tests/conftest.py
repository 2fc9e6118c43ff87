import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ceda.protocol
from ceda.categorize import apply_bins, quantile_bins
from ceda.genlab import GeneratorSpec, sample


def binned(values, k_interior=10):
    """1+K+1 categorization with the default quantile anchors."""
    return apply_bins(values, quantile_bins(values, k_interior))


@pytest.fixture(scope="session")
def two_normal_data():
    """One large draw of the balanced two-normal study (Y plus group id V1)."""
    return sample(GeneratorSpec("ex1", 20_000, seed=1))


@pytest.fixture(scope="session")
def interaction_data():
    """Additive X1 plus sin(2*pi*(X2+X3)) with X4 pure noise, N=10^4."""
    return sample(GeneratorSpec("ex4", 10_000, seed=1))


def reference_mimic_table(table, rng):
    """One mimic's R x C count matrix: per response column, a multinomial split over the rows.

    Column sums are preserved exactly; row sums only in expectation.  Row r
    is the table's row r, so a row may come out empty; a ``ContingencyTable``
    of the mimic keeps only the occupied rows.  The vectorized sampler
    (``nullsim.mimic_ce_samples``) is checked against this oracle.
    """
    probs = table.row_margin / table.total
    counts = np.empty_like(table.counts)
    for c in range(table.cols):
        counts[:, c] = rng.multinomial(int(table.col_margin[c]), probs)
    return counts


def random_table_counts(rng, max_rows=8, max_cols=8, max_count=60):
    """A random valid count matrix with no all-zero rows."""
    r = int(rng.integers(1, max_rows + 1))
    c = int(rng.integers(1, max_cols + 1))
    counts = rng.integers(0, max_count, size=(r, c))
    counts[counts.sum(axis=1) == 0, rng.integers(c)] += 1
    return counts


def count_fusion_calls(monkeypatch) -> Counter:
    """Count the evaluator's crosstab and product_categories calls, thread-safely."""
    calls = Counter()
    lock = threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (ceda.protocol, "crosstab"),
        (ceda.protocol, "product_categories"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the most memory, in bytes,
    that ``tracemalloc`` saw allocated at once during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
