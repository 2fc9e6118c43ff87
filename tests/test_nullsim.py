"""Mimicry nulls and confirmability verdicts."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ceda.categorize import apply_bins, fuse_features, product_categories, quantile_bins
from ceda.genlab import GeneratorSpec, sample
from ceda.nullsim import (
    SYNTHETIC_BLOCK_VALUES,
    NullBand,
    band_from_samples,
    c1_test,
    child_rng,
    mi_verdict,
    mimic_ce_samples,
    null_band,
    synthetic_ce_samples,
    synthetic_noise_series,
)
from ceda.tabulate import (
    CategoricalSeries,
    ContingencyTable,
    conditional_entropy,
    crosstab,
    mutual_information,
)
from conftest import binned, reference_mimic_table


def reference_mimic_ce_samples(table, n_replicates, rng):
    """The masked per-row loop with a weighted ``np.bincount``, kept as the oracle."""
    counts = table.counts
    n_rows, n_cols = counts.shape
    total = float(table.total)
    probs = table.row_margin / total

    remaining = np.broadcast_to(
        table.col_margin, (n_replicates, n_cols)
    ).astype(np.int64).copy()
    cell_xlogx = np.zeros(n_replicates)
    row_xlogx = np.zeros(n_replicates)
    p_left = 1.0
    for r in range(n_rows):
        if r == n_rows - 1:
            draw = remaining
        else:
            p = probs[r] / p_left if p_left > 0 else 0.0
            draw = rng.binomial(remaining, min(max(p, 0.0), 1.0))
            remaining = remaining - draw
            p_left -= probs[r]
        pos = draw > 0
        if pos.any():
            vals = draw[pos].astype(float)
            contrib = vals * np.log(vals)
            cell_xlogx += np.bincount(
                np.nonzero(pos)[0], weights=contrib, minlength=n_replicates
            )
        rs = draw.sum(axis=1).astype(float)
        rp = rs > 0
        row_contrib = np.zeros(n_replicates)
        row_contrib[rp] = rs[rp] * np.log(rs[rp])
        row_xlogx += row_contrib
    ce = (row_xlogx - cell_xlogx) / total
    return np.maximum(ce, 0.0)


def reference_synthetic_ce_samples(base, response, pad, n_bins, replicates, rng):
    """One replicate at a time: draw, bin, cross-tabulate and measure; kept as the oracle."""
    samples = []
    for _ in range(replicates):
        cols = []
        for _ in range(pad):
            values = rng.random(len(response))
            cols.append(apply_bins(values, quantile_bins(values, max(n_bins - 2, 1))))
        samples.append(conditional_entropy(crosstab(product_categories([*base, *cols]), response)))
    return np.asarray(samples)


def plain(state):
    """A bit generator's state with its arrays as lists, so states compare with ==."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@st.composite
def mimic_cases(draw):
    """(counts, replicates, seed): up to 8 x 12, mostly zero cells, totals 1..20 000."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    counts = draw(
        hnp.arrays(np.int64, (rows, cols), elements=st.sampled_from([0, 0, 0, 1, 2, 9, 40]))
    )
    counts[counts.sum(axis=1) == 0, draw(st.integers(0, cols - 1))] = 1
    counts *= draw(st.integers(1, 20_000 // int(counts.sum())))
    if draw(st.booleans()):
        # one row holds all but a few records: its conditional p comes
        # within about 1/total of 1
        counts[draw(st.integers(0, rows - 1)), 0] += 20_000 - int(counts.sum())
    replicates = draw(st.sampled_from([1, 2, 3]) | st.integers(200, 400))
    return counts, replicates, draw(st.integers(0, 2**32 - 1))



@st.composite
def synthetic_cases(draw):
    """(base, response, pad, n_bins, replicates, seed) for one synthetic noise level.

    n runs from the least a 1+K+1 scheme allows (K + 2) up to 4 000 records.
    Where a block holds at most 40 replicates (n * pad above about 400), the
    replicate count reaches past the second block boundary.  Base and
    response series may declare categories no record takes.  Bin counts
    above 129 give labels past int8's range, and both sides of the dense
    table bound occur.
    """
    n_bins = draw(st.sampled_from([2, 3, 12, 102, 130, 300]))
    least = max(n_bins, 3)
    n = draw(st.sampled_from([least, least + 1, 2_000, 4_000]) | st.integers(least, 4_000))
    pad = draw(st.integers(1, 3))
    block = max(1, SYNTHETIC_BLOCK_VALUES // (n * pad))
    if block <= 40:
        replicates = st.sampled_from([block, block + 1, 2 * block + 1]) | st.integers(1, 2 * block + 1)
    else:
        replicates = st.integers(1, 12)
    labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def series():
        used = draw(st.integers(1, 6))
        return CategoricalSeries(labels.integers(0, used, n), used + draw(st.integers(0, 2)))

    base = tuple(series() for _ in range(draw(st.integers(0, 2))))
    return base, series(), pad, n_bins, draw(replicates), draw(st.integers(0, 2**32 - 1))


class TestMimicTable:
    def test_column_sums_preserved_exactly(self):
        t = ContingencyTable([[10, 0], [0, 10]])
        for s in range(20):
            m = reference_mimic_table(t, child_rng(s))
            assert m.shape == (2, 2)
            assert m.sum(axis=0).tolist() == [10, 10]

    def test_expected_counts_match_margin_product(self):
        t = ContingencyTable([[10, 0], [0, 10]])
        rng = child_rng(1)
        acc = np.zeros((2, 2))
        reps = 4000
        for _ in range(reps):
            acc += reference_mimic_table(t, rng)
        assert np.allclose(acc / reps, [[5, 5], [5, 5]], atol=0.25)

    def test_single_row_table_is_fixed_point(self):
        t = ContingencyTable([[3, 4, 5]])
        m = reference_mimic_table(t, child_rng(2))
        assert np.array_equal(m, t.counts)

    def test_cell_means_within_three_sd(self):
        # analytic multinomial mean n_r. * n_.c / N and variance per cell,
        # averaged over many mimics
        counts = np.array([[8, 3, 9], [2, 12, 6], [5, 5, 10]])
        t = ContingencyTable(counts)
        probs = t.row_margin / t.total
        rng = child_rng(3)
        reps = 6000
        acc = np.zeros(counts.shape)
        for _ in range(reps):
            acc += reference_mimic_table(t, rng)
        mean = acc / reps
        for r in range(3):
            for c in range(3):
                expect = probs[r] * t.col_margin[c]
                sd = np.sqrt(t.col_margin[c] * probs[r] * (1 - probs[r]) / reps)
                assert abs(mean[r, c] - expect) <= 3.0 * max(sd, 1e-9)


class TestVectorizedCeSamples:
    def test_matches_per_table_evaluation_in_distribution(self):
        counts = np.array([[30, 10, 5], [5, 25, 20], [10, 10, 35]])
        t = ContingencyTable(counts)
        fast = mimic_ce_samples(t, 4000, child_rng(4))
        mimics = [reference_mimic_table(t, child_rng(5, i)) for i in range(1000)]
        slow = np.array([conditional_entropy(ContingencyTable(m[m.any(axis=1)])) for m in mimics])
        assert abs(fast.mean() - slow.mean()) < 4.0 * slow.std() / np.sqrt(1000)
        assert abs(fast.std() - slow.std()) < 0.25 * slow.std()


@settings(max_examples=300, deadline=None)
@given(mimic_cases())
@example(([[1]], 1, 0))
@example(([[19_999], [1]], 300, 1))
@example(([[0, 12_000, 0, 8_000]], 2, 2))
def test_mimic_ce_samples_matches_the_reference_loop_bit_for_bit(case):
    counts, replicates, seed = case
    table = ContingencyTable(counts)
    rng, reference_rng = child_rng(seed), child_rng(seed)
    samples = mimic_ce_samples(table, replicates, rng)
    expected = reference_mimic_ce_samples(table, replicates, reference_rng)
    assert samples.tobytes() == expected.tobytes()
    # the same binomial draws, so the stream is left in the same place
    assert plain(rng.bit_generator.state) == plain(reference_rng.bit_generator.state)


def _cycle(n, used, cardinality):
    return CategoricalSeries(np.arange(n) % used, cardinality)


@settings(max_examples=100, deadline=None)
@given(synthetic_cases())
# three blocks of 4, 4 and 1 replicates; the base declares 7 categories and uses 5
@example(((_cycle(2_000, 5, 7),), _cycle(2_000, 3, 4), 2, 12, 9, 1))
# n at K + 2, so most noise bins stay empty, under two base series
@example(((_cycle(102, 2, 2), _cycle(102, 3, 3)), _cycle(102, 4, 4), 3, 102, 5, 2))
# labels up to 129 in dense tables of 54 x 130 x 1 cells, over two blocks
@example(((), _cycle(300, 1, 1), 1, 130, 55, 3))
# labels up to 299; 4 x 300 x 300 x 4 cells per block, past the dense bound
@example(((_cycle(2_000, 3, 4),), _cycle(2_000, 4, 4), 2, 300, 5, 4))
def test_synthetic_ce_samples_match_the_reference_loop_bit_for_bit(case):
    base, response, pad, n_bins, replicates, seed = case
    rng, reference_rng = child_rng(seed), child_rng(seed)
    samples = synthetic_ce_samples(base, response, pad, n_bins, replicates, rng)
    expected = reference_synthetic_ce_samples(base, response, pad, n_bins, replicates, reference_rng)
    assert samples.tobytes() == expected.tobytes()
    assert plain(rng.bit_generator.state) == plain(reference_rng.bit_generator.state)


class TestSyntheticNoiseSeries:
    def test_rows_are_binned_as_one_feature_at_a_time(self):
        # 130 and 300 bins give labels past int8's range
        for n_bins in (12, 130, 300):
            rng, reference_rng = child_rng(11), child_rng(11)
            labels = synthetic_noise_series(500, n_bins, rng, 4)
            for row in labels:
                values = reference_rng.random(500)
                scheme = quantile_bins(values, n_bins - 2)
                assert row.tolist() == apply_bins(values, scheme).labels.tolist()

    def test_fewer_records_than_bins_rejected(self):
        with pytest.raises(ValueError, match="too few values"):
            synthetic_noise_series(11, 12, child_rng(12), 1)


class TestNullBand:
    def test_reproducible_under_fixed_seed(self):
        t = ContingencyTable([[30, 10], [10, 30]])
        a = null_band(t, "mutual_information", 500, child_rng(6))
        b = null_band(t, "mutual_information", 500, child_rng(6))
        assert (a.mean, a.sd, a.q025, a.q975) == (b.mean, b.sd, b.q025, b.q975)

    def test_small_balanced_table_band(self):
        t = ContingencyTable([[5, 5], [5, 5]])
        band = null_band(t, "mutual_information", 1000, child_rng(7))
        assert 0.0 < band.q975 < 0.5

    def test_unknown_statistic_rejected(self):
        t = ContingencyTable([[5, 5]])
        with pytest.raises(ValueError):
            null_band(t, "chi_squared", 100, child_rng(0))

    def test_band_invariants(self):
        with pytest.raises(ValueError):
            NullBand("x", 1, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            NullBand("x", 10, 0.0, 0.0, 1.0, 0.5)

    def test_two_group_mi_band_at_scale(self, two_normal_data):
        # 2 x 12 table over 20000 records: the independence band for the
        # mutual information is a narrow sliver above zero
        v1 = CategoricalSeries(labels=two_normal_data["V1"], cardinality=2)
        t = crosstab(v1, binned(two_normal_data["Y"], 10))
        band = null_band(t, "mutual_information", 1000, child_rng(8))
        assert 5e-05 <= band.q025 <= 0.00025
        assert 0.0003 <= band.q975 <= 0.0006

    def test_many_column_mi_band_center(self):
        # 2 rows x ~1000 occupied response bins at N=2000: heavy occupancy
        # noise inflates the independence mutual information to ~0.266
        data = sample(GeneratorSpec("ex1", 2000, seed=1))
        v1 = CategoricalSeries(labels=data["V1"], cardinality=2)
        t = crosstab(v1, binned(data["Y"], 1000))
        band = null_band(t, "mutual_information", 1000, child_rng(9))
        assert band.mean == pytest.approx(0.266, abs=0.012)
        assert band.q025 <= 0.264 and band.q975 >= 0.268


class TestC1Test:
    def test_strong_signal_confirmed(self, two_normal_data):
        v1 = CategoricalSeries(labels=two_normal_data["V1"], cardinality=2)
        t = crosstab(v1, binned(two_normal_data["Y"], 10))
        band = null_band(t, "mutual_information", 1000, child_rng(10))
        verdict = c1_test(mutual_information(t), band)
        assert verdict.status == "confirmed"
        assert verdict.excess_sd > 10

    @pytest.mark.parametrize(
        "counts", [[[30, 10], [10, 30]], [[5, 5], [5, 5]], [[7]], [[3, 0, 9], [0, 4, 1], [2, 2, 0]]]
    )
    def test_mi_verdict_is_the_composed_test(self, counts):
        t = ContingencyTable(counts)
        rng, oracle_rng = child_rng(4, 2), child_rng(4, 2)
        verdict = mi_verdict(t, 300, rng)
        band = null_band(t, "mutual_information", 300, oracle_rng)
        assert verdict == c1_test(mutual_information(t), band)
        assert repr(rng.bit_generator.state) == repr(oracle_rng.bit_generator.state)

    def test_boundary_value_not_confirmed(self):
        band = band_from_samples("mutual_information", np.linspace(0.0, 1.0, 1000))
        assert c1_test(band.q975, band).status == "within_band"
        assert c1_test(np.nextafter(band.q975, 2.0), band).status == "confirmed"

    def test_below_band(self):
        band = band_from_samples("conditional_entropy", np.linspace(1.0, 2.0, 100))
        assert c1_test(0.5, band).status == "below_band"

    def test_zero_sd_sentinels(self):
        band = NullBand("x", 10, 1.0, 0.0, 1.0, 1.0)
        assert c1_test(2.0, band).excess_sd == float("inf")
        assert c1_test(0.5, band).excess_sd == float("-inf")
        assert c1_test(1.0, band).excess_sd == 0.0
