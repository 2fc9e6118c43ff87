"""Randomized invariants over tables, binnings and nulls."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ceda.categorize import (
    _nearest,
    _sorted_nearest,
    apply_bins,
    linear_quantile,
    product_categories,
    quantile_bins,
)
from ceda.nullsim import child_rng, null_band
from ceda.tabulate import (
    CategoricalSeries,
    ContingencyTable,
    conditional_entropy,
    crosstab,
    fuse_labels,
    mutual_information,
)
from conftest import reference_mimic_table

count_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 40),
).filter(lambda m: (m.sum(axis=1) > 0).all() and m.sum() > 0)


label_pairs = st.integers(2, 400).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.int64, n, elements=st.integers(0, 5)),
        hnp.arrays(np.int64, n, elements=st.integers(0, 4)),
        hnp.arrays(np.int64, n, elements=st.integers(0, 3)),
    )
)


def as_series(labels, cardinality):
    return CategoricalSeries(labels=labels, cardinality=cardinality)


@settings(max_examples=80, deadline=None)
@given(count_matrices)
def test_mutual_information_non_negative(counts):
    assert mutual_information(ContingencyTable(counts)) >= 0.0


@settings(max_examples=80, deadline=None)
@given(count_matrices)
def test_joint_representation_identity(counts):
    t = ContingencyTable(counts)

    def h(margin):
        p = margin[margin > 0] / margin.sum()
        return float(-(p * np.log(p)).sum())

    alt = (
        h(t.row_margin.astype(float))
        + h(t.col_margin.astype(float))
        - h(t.counts.ravel().astype(float))
    )
    assert abs(mutual_information(t) - alt) < 1e-10


@settings(max_examples=60, deadline=None)
@given(label_pairs)
def test_refinement_never_increases_conditional_entropy(arrays):
    a, b, y = arrays
    ys = as_series(y, 4)
    coarse = conditional_entropy(crosstab(as_series(a, 6), ys))
    fused = product_categories([as_series(a, 6), as_series(b, 5)])
    fine = conditional_entropy(crosstab(fused, ys))
    assert fine <= coarse + 1e-12


@settings(max_examples=60, deadline=None)
@given(count_matrices.filter(lambda m: m.shape[0] >= 2))
def test_merging_rows_never_increases_mi(counts):
    t = ContingencyTable(counts)
    merged = counts.copy()
    merged[0] += merged[1]
    merged = np.delete(merged, 1, axis=0)
    assert mutual_information(ContingencyTable(merged)) <= mutual_information(t) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.floats(-50.0, 50.0),
    st.floats(0.1, 10.0),
)
def test_apply_bins_monotone_and_total(seed, k, loc, scale):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(300) * scale + loc
    scheme = quantile_bins(values, k)
    labels = apply_bins(values, scheme).labels
    order = np.argsort(values, kind="stable")
    assert (np.diff(labels[order]) >= 0).all()
    assert labels.min() >= 0 and labels.max() <= k + 1


@st.composite
def quantile_cases(draw):
    """(values, q): 1..5 000 values, 1-D or a block of rows, and up to six quantiles.

    Values spread over magnitudes 1e-5..1e5 of either sign, or take a few
    tied values, or mix -0.0 and +0.0 with a few others.  The quantiles are
    the bands' and the bins' anchors, 0 and 1, and arbitrary ones in [0, 1].
    """
    n = draw(st.integers(1, 5_000) | st.sampled_from([1, 2, 3, 40]))
    shape = (n,) if draw(st.booleans()) else (draw(st.integers(1, 8)), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "ties", "signed_zeros"]))
    if kind == "spread":
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    elif kind == "ties":
        pool = draw(st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=4))
        values = rng.choice(pool, shape)
    else:
        values = rng.choice([-0.0, 0.0, 1e-5, -2.5, 7.0], shape)
    anchors = st.sampled_from([0.025, 0.05, 0.95, 0.975, 0.0, 1.0])
    q = draw(st.lists(anchors | st.floats(0.0, 1.0), min_size=1, max_size=6))
    return values, q


@settings(max_examples=300, deadline=None)
@given(quantile_cases())
# a sort and numpy's partition leave different zeros at the median here
@example((np.array([-1.0, -0.0, -0.0, 0.0, -1.0, 0.0]), [0.5]))
@example((np.array([[3.0, -0.0, 0.0, 1.0], [0.0, -0.0, 2.0, -4.0]]), [0.0, 0.5, 1.0]))
def test_linear_quantile_matches_np_quantile_bytes(case):
    values, q = case
    expected = np.quantile(values, q, axis=None if values.ndim == 1 else 1)
    got = linear_quantile(values, q)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(label_pairs)
def test_product_cardinality_matches_tuple_count(arrays):
    a, b, _ = arrays
    fused = product_categories([as_series(a, 6), as_series(b, 5)])
    assert fused.cardinality == len(set(zip(a.tolist(), b.tolist())))


@settings(max_examples=30, deadline=None)
@given(count_matrices, st.integers(0, 2**31 - 1))
def test_mimic_preserves_column_margins(counts, seed):
    t = ContingencyTable(counts)
    m = reference_mimic_table(t, child_rng(seed))
    assert m.shape == t.counts.shape
    assert m.sum(axis=0).tolist() == t.col_margin.tolist()


@settings(max_examples=20, deadline=None)
@given(count_matrices, st.integers(0, 2**31 - 1))
def test_null_band_seed_determinism(counts, seed):
    t = ContingencyTable(counts)
    a = null_band(t, 50, child_rng(seed))
    b = null_band(t, 50, child_rng(seed))
    assert (a.mean, a.sd, a.q025, a.q975) == (b.mean, b.sd, b.q025, b.q975)


@st.composite
def fusion_inputs(draw, n_series=st.integers(1, 5), cards=st.integers(1, 12), separate_first=False):
    """Label series (some categories unoccupied) plus a response, all of one length.

    With ``separate_first`` the first series gives every record its own
    label, so the next step's code range (records x cardinality) exceeds the
    record count and fusion must take its 1-D sort path.
    """
    n = draw(st.integers(1, 60))
    series = []
    if separate_first:
        extra = draw(st.integers(0, 5))
        series.append(as_series(np.array(draw(st.permutations(range(n)))), n + extra))
    for _ in range(draw(n_series)):
        card = draw(cards)
        lo = draw(st.integers(0, card - 1))
        hi = draw(st.integers(lo, card - 1))
        labels = draw(hnp.arrays(np.int64, n, elements=st.integers(lo, hi)))
        series.append(as_series(labels, card))
    response = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    return series, as_series(response, 4)


def check_fusion_against_unique_rows(series, response):
    stacked = np.column_stack([s.labels for s in series])
    keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()

    ranks, count = fuse_labels(series)
    assert ranks.tolist() == inverse.tolist()
    assert count == keys.shape[0]

    fused = product_categories(series)
    assert fused.labels.tolist() == inverse.tolist()
    assert fused.cardinality == keys.shape[0]

    table = crosstab(fused, response)
    expected = np.zeros((keys.shape[0], response.cardinality), dtype=np.int64)
    np.add.at(expected, (inverse, response.labels), 1)
    assert table.counts.tolist() == expected.tolist()


@settings(max_examples=150, deadline=None)
@given(fusion_inputs())
def test_fusion_matches_unique_rows(inputs):
    check_fusion_against_unique_rows(*inputs)


@settings(max_examples=60, deadline=None)
@given(fusion_inputs(n_series=st.integers(1, 4), cards=st.integers(2, 12), separate_first=True))
def test_fusion_wide_step_matches_unique_rows(inputs):
    check_fusion_against_unique_rows(*inputs)


@settings(max_examples=20, deadline=None)
@given(fusion_inputs(n_series=st.just(8), cards=st.just(512)))
def test_fusion_past_int64_cardinality_product(inputs):
    series, response = inputs
    assert math.prod(s.cardinality for s in series) > 2**63
    check_fusion_against_unique_rows(series, response)


@st.composite
def points_and_centroids(draw):
    """1-D points and centroids that put points on or next to centroid midpoints."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["integers", "offset", "near-midpoint", "floats"]))
    if shape == "integers":
        # integer points and half-integer centroids: some points sit exactly
        # on a midpoint, duplicated points and coincident centroids are common
        x = draw(hnp.arrays(float, n, elements=st.integers(-6, 6).map(float)))
        centroid_values = st.integers(-14, 14).map(lambda v: v / 2)
    elif shape == "offset":
        x = draw(hnp.arrays(float, n, elements=st.floats(-5e-4, 5e-4))) + 1e8
        centroid_values = st.floats(-5e-4, 5e-4).map(lambda v: v + 1e8)
    else:
        x = draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
        centroid_values = st.floats(-1e3, 1e3)
    k = draw(st.sampled_from([n, max(n - 1, 1), draw(st.integers(1, n))]))
    if draw(st.booleans()):
        centroids = x[draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))]
    else:
        centroids = draw(hnp.arrays(float, k, elements=centroid_values))
    if shape == "near-midpoint" and k > 1:
        # move each point to a few ulps from the midpoint of two centroids
        pairs = draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(0, k - 1)))
        steps = draw(hnp.arrays(np.int64, n, elements=st.integers(-3, 3)))
        x = (centroids[pairs[:, 0]] + centroids[pairs[:, 1]]) / 2
        x = x + steps * np.spacing(x)
    return x, centroids[:, None]


@settings(max_examples=400, deadline=None)
@given(points_and_centroids())
def test_sorted_1d_assignment_matches_distance_matrix(case):
    x, centroids = case
    labels, d2 = _sorted_nearest(x)(centroids)
    expected_labels, expected_d2 = _nearest(x[:, None], centroids)
    assert labels.tolist() == expected_labels.tolist()
    assert d2.tobytes() == expected_d2.tobytes()
