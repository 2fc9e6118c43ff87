"""Contingency-table construction and entropy measurements."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ceda.categorize import product_categories
from ceda.nullsim import child_rng, mimic_ce_samples
from ceda.tabulate import (
    CategoricalSeries,
    ContingencyTable,
    column_margin_entropy,
    conditional_entropy,
    crosstab,
    entropy_report,
    mutual_information,
    xlogx_table,
)
from conftest import binned, random_table_counts, traced_peak

LN2 = math.log(2.0)


def series(labels, cardinality=None):
    labels = np.asarray(labels)
    card = cardinality if cardinality is not None else int(labels.max()) + 1
    return CategoricalSeries(labels=labels, cardinality=card)


class TestCategoricalSeries:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CategoricalSeries(labels=np.array([0, 2]), cardinality=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CategoricalSeries(labels=np.array([], dtype=int), cardinality=1)


class TestCrosstab:
    def test_full_product(self):
        t = crosstab(series([0, 0, 1, 1]), series([0, 1, 0, 1]))
        assert t.counts.tolist() == [[1, 1], [1, 1]]
        assert t.total == 4

    def test_degenerate_single_cell(self):
        t = crosstab(series([0, 0, 0]), series([0, 0, 0]))
        assert t.counts.tolist() == [[3]]
        assert (t.rows, t.cols) == (1, 1)

    def test_empty_response_columns_kept(self):
        t = crosstab(series([0, 1]), series([0, 2], cardinality=4))
        assert t.cols == 4
        assert t.col_margin.tolist() == [1, 0, 1, 0]

    def test_empty_covariate_rows_dropped(self):
        t = crosstab(series([0, 3], cardinality=5), series([0, 1]))
        assert t.rows == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crosstab(series([0, 1, 0]), series([0, 1]))

    def test_column_sums_match_independent_tally(self, two_normal_data):
        y = binned(two_normal_data["Y"], 10)
        v1 = series(two_normal_data["V1"])
        t = crosstab(v1, y)
        assert (t.rows, t.cols) == (2, 12)
        tally = Counter(int(label) for label in y.labels)
        assert t.col_margin.tolist() == [tally[c] for c in range(12)]

    def test_all_zero_row_rejected_in_constructor(self):
        with pytest.raises(ValueError):
            ContingencyTable(np.array([[1, 0], [0, 0]]))

    def test_total_is_the_sum_of_the_counts(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            counts = random_table_counts(rng)
            assert ContingencyTable(counts).total == counts.sum()


class TestEntropies:
    def test_uniform_margin(self):
        t = ContingencyTable([[5, 5], [5, 5]])
        assert column_margin_entropy(t) == pytest.approx(LN2, abs=1e-12)

    def test_point_mass_margin(self):
        t = ContingencyTable([[20, 0]])
        assert column_margin_entropy(t) == 0.0

    def test_margin_entropy_on_large_binned_sample(self, two_normal_data):
        t = crosstab(series(two_normal_data["V1"]), binned(two_normal_data["Y"], 10))
        assert column_margin_entropy(t) == pytest.approx(2.4135, abs=0.02)

    def test_conditional_identical_rows(self):
        t = ContingencyTable([[5, 5], [5, 5]])
        assert conditional_entropy(t) == pytest.approx(LN2, abs=1e-12)

    def test_conditional_deterministic_rows(self):
        t = ContingencyTable([[10, 0], [0, 10]])
        assert conditional_entropy(t) == 0.0

    def test_conditional_on_large_binned_sample(self, two_normal_data):
        t = crosstab(series(two_normal_data["V1"]), binned(two_normal_data["Y"], 10))
        assert conditional_entropy(t) == pytest.approx(2.3011, abs=0.02)

    def test_mi_zero_under_independence(self):
        t = ContingencyTable([[5, 5], [5, 5]])
        assert mutual_information(t) == 0.0

    def test_mi_on_large_binned_sample(self, two_normal_data):
        t = crosstab(series(two_normal_data["V1"]), binned(two_normal_data["Y"], 10))
        assert mutual_information(t) == pytest.approx(0.1124, abs=0.01)

    def test_mi_equals_joint_representation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = ContingencyTable(random_table_counts(rng))
            row_h = entropy_of(t.row_margin)
            col_h = entropy_of(t.col_margin)
            alt = row_h + col_h - entropy_of(t.counts.ravel())
            assert mutual_information(t) == pytest.approx(alt, abs=1e-10)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            t = ContingencyTable(random_table_counts(rng))
            r = entropy_report(t)
            assert 0.0 <= r.h_y_given_a <= r.h_y + 1e-12
            assert r.h_y <= math.log(t.cols) + 1e-12
            assert r.mutual_info >= 0.0
            assert np.isfinite([r.h_y, r.h_y_given_a, r.mutual_info]).all()

    def test_zero_total_rejected(self):
        t = ContingencyTable([[1]])
        object.__setattr__(t, "total", 0)
        with pytest.raises(ValueError):
            column_margin_entropy(t)


def reference_xlogx(a):
    """x*ln(x) elementwise with 0*ln(0) = 0, as computed before the lookup table; the oracle."""
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    pos = a > 0
    out[pos] = a[pos] * np.log(a[pos])
    return out


def reference_counts_entropy(counts):
    """Shannon entropy of ``counts`` from ``reference_xlogx``, kept as the oracle."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    return float(np.log(total) - reference_xlogx(counts).sum() / total)


def reference_conditional_entropy(table):
    """H[Y|A] from ``reference_xlogx`` over float counts, kept as the oracle."""
    counts = table.counts.astype(float)
    n = float(table.total)
    row_sums = counts.sum(axis=1)
    h = (reference_xlogx(row_sums).sum() - reference_xlogx(counts).sum()) / n
    return float(max(h, 0.0))


@st.composite
def oracle_tables(draw):
    """Count matrices with empty columns, single cells and counts up to 10**6.

    Counts above 1 000 come only in tables of at most four cells, so a
    lookup table (one float per record) stays within a few tens of MB.
    """
    high = draw(st.sampled_from([1, 60, 1_000, 10**6]))
    most = 2 if high == 10**6 else 8
    shape = (draw(st.integers(1, most)), draw(st.integers(1, most)))
    counts = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, high)))
    for c in draw(st.lists(st.integers(0, shape[1] - 1), max_size=shape[1])):
        counts[:, c] = 0
    counts[counts.sum(axis=1) == 0, draw(st.integers(0, shape[1] - 1))] = 1
    return ContingencyTable(counts)


class TestEntropyOracles:
    @settings(max_examples=300, deadline=None)
    @given(oracle_tables())
    @example(ContingencyTable([[1]]))
    @example(ContingencyTable([[10**6]]))
    @example(ContingencyTable([[0, 10**6, 0], [1, 0, 0]]))
    @example(ContingencyTable([[10**6, 10**6], [10**6, 10**6]]))
    def test_entropies_match_the_xlogx_oracles_bytes(self, table):
        h_y = column_margin_entropy(table)
        assert h_y.hex() == reference_counts_entropy(table.col_margin).hex()
        h_cond = conditional_entropy(table)
        assert h_cond.hex() == reference_conditional_entropy(table).hex()
        assert type(h_y) is float and type(h_cond) is float

    def test_table_is_xlogx_of_every_count(self):
        table = xlogx_table(5_000)
        assert table.tobytes() == reference_xlogx(np.arange(5_001)).tobytes()

    def test_one_read_only_table_per_total(self):
        table = ContingencyTable([[3, 1, 0], [2, 5, 4]])
        xlogx_table.cache_clear()
        entropy_report(table)
        mimic_ce_samples(table, 20, child_rng(1))
        assert xlogx_table.cache_info().misses == 1
        shared = xlogx_table(table.total)
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[1] = 0.0

    def test_table_is_built_in_two_arrays_at_peak(self):
        xlogx_table.cache_clear()
        table, peak = traced_peak(xlogx_table, 10**6)
        assert peak < 2.5 * table.nbytes


def entropy_of(counts):
    counts = np.asarray(counts, dtype=float)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


class TestRefinement:
    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = 400
            a = series(rng.integers(0, 4, n), 4)
            b = series(rng.integers(0, 3, n), 3)
            y = series(rng.integers(0, 5, n), 5)
            coarse = conditional_entropy(crosstab(a, y))
            fine = conditional_entropy(crosstab(product_categories([a, b]), y))
            assert fine <= coarse + 1e-12

    def test_merging_rows_never_increases_mi(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            counts = random_table_counts(rng, max_rows=6)
            t = ContingencyTable(counts)
            if t.rows < 2:
                continue
            merged = counts.copy()
            merged[0] += merged[1]
            merged = np.delete(merged, 1, axis=0)
            assert mutual_information(ContingencyTable(merged)) <= (
                mutual_information(t) + 1e-12
            )


class TestSerialization:
    def test_report_json_fields(self):
        t = ContingencyTable([[1, 2], [3, 4]])
        obj = entropy_report(t).to_json_dict(total=t.total)
        assert set(obj) == {"rows", "cols", "total", "h_y", "h_y_given_a", "mi"}
        assert obj["total"] == 10
