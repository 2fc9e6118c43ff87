"""Quantile binning and K-means categorization."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ceda.categorize
from ceda.categorize import (
    BinningScheme,
    _kmeans_pp_init,
    _nearest,
    apply_bins,
    fuse_features,
    kmeans_fit,
    product_categories,
    quantile_bins,
)
from ceda.genlab import GeneratorSpec, sample
from ceda.tabulate import CategoricalSeries


def reference_nearest(points, centroids):
    """Nearest centroids from the distance matrix in one expression, kept as the oracle."""
    sq = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids**2).sum(axis=1)[None, :]
    )
    labels = np.argmin(sq, axis=1)
    d2 = np.maximum(sq[np.arange(points.shape[0]), labels], 0.0)
    return labels, d2


def reference_kmeans_pp_init(points, k, rng):
    """k-means++ seeding with ``rng.choice`` draws, kept as the oracle."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def reference_kmeans_fit(
    points, k, seed=0, max_iter=300, rel_tol=1e-6, reseeds=None, stop_at_repeat=True
):
    """The distance-matrix Lloyd loop with ``np.add.at`` sums, kept as the oracle.

    Points are assigned with ``reference_nearest`` and seeded with
    ``reference_kmeans_pp_init``, so no code under test takes part.

    With ``stop_at_repeat`` it also stops once the centroids repeat those of
    an earlier iteration and the cycle is in the state the ``max_iter``-th
    iteration would end on; without it, only the relative test or
    ``max_iter`` stops it.  Returns what ``fit_fields`` returns for a
    ``kmeans_fit`` model; each reseed is appended to ``reseeds`` as
    (emptied cluster, cluster of the reseed point).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    d = points.shape[1]
    centroids = reference_kmeans_pp_init(points, k, np.random.default_rng(seed))
    labels, d2 = reference_nearest(points, centroids)
    inertia = float(d2.sum())
    history = [centroids.tobytes()]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sums = np.zeros((k, d))
        np.add.at(sums, labels, points)
        sizes = np.bincount(labels, minlength=k)
        nonempty = sizes > 0
        centroids[nonempty] = sums[nonempty] / sizes[nonempty, None]
        for j in np.flatnonzero(sizes == 0):
            far = int(np.argmax(d2))
            centroids[j] = points[far]
            d2[far] = 0.0
            if reseeds is not None:
                reseeds.append((j, int(labels[far])))
        labels, d2 = reference_nearest(points, centroids)
        new_inertia = float(d2.sum())
        if inertia > 0 and (inertia - new_inertia) / inertia < rel_tol:
            inertia = new_inertia
            break
        inertia = new_inertia
        history.append(centroids.tobytes())
        if stop_at_repeat and history.count(history[-1]) > 1:
            period = iterations - history.index(history[-1])
            if (max_iter - iterations) % period == 0:
                break
    return labels.tolist(), centroids.tobytes(), inertia, iterations


def fit_fields(model):
    """Labels, centroid bytes, inertia and iteration count of a fit."""
    return (
        model.assignments.labels.tolist(),
        model.centroids.tobytes(),
        model.inertia,
        model.iterations_run,
    )


def manual_quantile(sorted_values, q):
    """Linear interpolation between order statistics, written independently."""
    n = len(sorted_values)
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class TestQuantileBins:
    def test_uniform_integer_edges(self):
        values = np.arange(100, dtype=float)
        scheme = quantile_bins(values, 10)
        s = np.sort(values)
        lo = manual_quantile(s, 0.05)
        hi = manual_quantile(s, 0.95)
        assert scheme.edges[0] == pytest.approx(lo, abs=1e-12)
        assert scheme.edges[-1] == pytest.approx(hi, abs=1e-12)
        assert np.allclose(np.diff(scheme.edges), (hi - lo) / 10)

    def test_single_interior_bin_gives_three_bins(self):
        scheme = quantile_bins(np.arange(50, dtype=float), 1)
        assert scheme.n_bins == 3

    def test_normal_sample_edge_span(self):
        rng = np.random.default_rng(11)
        scheme = quantile_bins(rng.standard_normal(20_000), 10)
        assert scheme.edges[0] == pytest.approx(-1.645, abs=0.05)
        assert scheme.edges[-1] == pytest.approx(1.645, abs=0.05)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate feature"):
            quantile_bins(np.full(100, 3.0), 10)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            quantile_bins(np.arange(100.0), 0)

    @pytest.mark.parametrize("k", [2.5, True], ids=["float", "bool"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k_interior must be an integer"):
            quantile_bins(np.arange(100.0), k)

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError):
            quantile_bins(np.arange(5.0), 10)

    def test_json_round_trip(self):
        scheme = quantile_bins(np.arange(100.0), 10)
        back = BinningScheme.from_json_dict(scheme.to_json_dict())
        assert np.array_equal(back.edges, scheme.edges)
        assert back.n_bins == scheme.n_bins


class TestBinningScheme:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"edges": [[0.1], [0.2]]}, "flat list"),
            ({"edges": [0.1, float("inf")]}, "finite"),
            ({"edges": [0.1, float("nan")]}, "finite"),
            ({"edges": [0.2, 0.1]}, "strictly ascending"),
            ({"edges": [0.1]}, "at least 2"),
        ],
    )
    def test_malformed_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            BinningScheme(**fields)

    def test_numpy_integer_and_float_fields_accepted(self):
        scheme = BinningScheme(edges=np.array([1, 2, 3], dtype=np.int64))
        assert scheme.n_bins == 4
        assert BinningScheme(edges=np.array([0.1, 0.2], dtype=np.float32)).n_bins == 3


class TestApplyBins:
    def test_below_first_edge_is_label_zero(self):
        scheme = quantile_bins(np.arange(100.0), 10)
        assert apply_bins([-50.0], scheme).labels[0] == 0

    def test_above_last_edge_is_top_label(self):
        scheme = quantile_bins(np.arange(100.0), 10)
        assert apply_bins([1e9], scheme).labels[0] == scheme.n_bins - 1

    def test_edge_value_goes_to_lower_bin(self):
        scheme = quantile_bins(np.arange(100.0), 10)
        edge = scheme.edges[3]
        just_above = np.nextafter(edge, np.inf)
        assert apply_bins([edge], scheme).labels[0] == 3
        assert apply_bins([just_above], scheme).labels[0] == 4

    def test_nan_rejected(self):
        scheme = quantile_bins(np.arange(100.0), 10)
        with pytest.raises(ValueError):
            apply_bins([float("nan")], scheme)

    def test_order_preserving(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(5000)
        scheme = quantile_bins(values, 10)
        order = np.argsort(values)
        labels = apply_bins(values, scheme).labels[order]
        assert (np.diff(labels) >= 0).all()

    def test_labels_reproduce_histogram_counts(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal(10_000)
        scheme = quantile_bins(values, 10)
        labels = apply_bins(values, scheme).labels
        counted = np.bincount(labels, minlength=12)
        # independent tally: count values in each half-open interval directly
        edges = np.concatenate([[-np.inf], scheme.edges, [np.inf]])
        manual = [
            int(((values > edges[i]) & (values <= edges[i + 1])).sum())
            for i in range(12)
        ]
        assert counted.tolist() == manual


class TestKMeans:
    def test_separated_clouds_recovered(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((200, 2)) * 0.1
        b = rng.standard_normal((200, 2)) * 0.1 + 10.0
        model = kmeans_fit(np.vstack([a, b]), 2, seed=0)
        labels = model.assignments.labels
        assert len(set(labels[:200])) == 1
        assert len(set(labels[200:])) == 1
        assert labels[0] != labels[-1]

    def test_k_one_is_mean_and_total_ss(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((500, 3))
        model = kmeans_fit(pts, 1, seed=0)
        assert np.allclose(model.centroids[0], pts.mean(axis=0))
        assert model.inertia == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum(), rel=1e-9)

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((20, 2))
        assert kmeans_fit(pts, 20, seed=0).inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((3, 1)), 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.array([[1.0], [np.inf]]), 1)

    def test_fixed_seed_bitwise_reproducible(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((1000, 2))
        m1 = kmeans_fit(pts, 12, seed=9)
        m2 = kmeans_fit(pts, 12, seed=9)
        assert np.array_equal(m1.assignments.labels, m2.assignments.labels)
        assert np.array_equal(m1.centroids, m2.centroids)

    def test_every_point_on_nearest_centroid(self):
        rng = np.random.default_rng(18)
        pts = rng.standard_normal((400, 2))
        model = kmeans_fit(pts, 8, seed=1)
        d = ((pts[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(model.assignments.labels, np.argmin(d, axis=1))

    def test_cluster_sizes_reasonably_even_on_mixture_data(self):
        data = sample(GeneratorSpec("ex2", 2000, seed=1))
        pts = np.column_stack([data["Y1"], data["Y2"]])
        model = kmeans_fit(pts, 22, seed=0)
        sizes = np.bincount(model.assignments.labels, minlength=22)
        assert sizes.std() / sizes.mean() < 1.0

    @pytest.mark.parametrize(
        "points, k",
        [
            (np.array([0.0, 0, 0, 0, 1, 1, 1, 1]), 3),
            (np.repeat(np.arange(4.0), 5)[:, None].repeat(2, axis=1), 6),
        ],
        ids=["1-D", "2-D"],
    )
    def test_emptied_cluster_is_reseeded_as_in_the_reference(self, points, k):
        # more clusters than distinct points: k-means++ places coincident
        # centroids, so a cluster empties and is reseeded in every iteration
        reseeds = []
        expected = reference_kmeans_fit(points, k, seed=3, reseeds=reseeds)
        assert reseeds
        assert fit_fields(kmeans_fit(points, k, seed=3)) == expected

    @pytest.mark.parametrize(
        "points, k",
        [(np.repeat(np.arange(5.0), 100), 5), (np.array([0.0, 0, 0, 0, 1, 1, 1, 1]), 3)],
        ids=["5-values-k5", "2-values-k3"],
    )
    def test_fixed_point_stops_with_the_capped_fit(self, points, k):
        # inertia reaches 0, so only the cap stops the reference loop
        expected = reference_kmeans_fit(points, k, stop_at_repeat=False)
        assert expected[2:] == (0.0, 300)
        model = kmeans_fit(points, k)
        assert model.iterations_run <= 5
        assert fit_fields(model)[:2] == expected[:2]
        assert np.float64(model.inertia).tobytes() == np.float64(expected[2]).tobytes()

    @pytest.mark.parametrize("max_iter", [299, 300])
    def test_cycle_stops_in_the_state_the_capped_fit_ends_on(self, max_iter):
        # cluster 1 empties and is reseeded onto a 0.4 of cluster 4; the
        # mean of three 0.4s is not 0.4, so the two clusters trade the 0.4s
        # back and forth and the centroids repeat every second iteration
        points = np.array([0.4, 0.4, 0.4, -1.5, -0.2, -0.3])
        reseeds = []
        expected = reference_kmeans_fit(
            points, 5, seed=2, max_iter=max_iter, reseeds=reseeds, stop_at_repeat=False
        )
        assert (1, 4) in reseeds
        assert expected[3] == max_iter
        model = kmeans_fit(points, 5, seed=2, max_iter=max_iter)
        assert model.iterations_run <= 5
        assert fit_fields(model)[:2] == expected[:2]
        assert np.float64(model.inertia).tobytes() == np.float64(expected[2]).tobytes()

    @pytest.mark.parametrize(
        "example, columns, k, seed",
        [
            ("ex3_rho", ("Y",), 12, 1),
            ("ex3_rho", ("X",), 102, 2),
            ("ex3_fullsine", ("Y",), 32, 3),
            ("ex2", ("Y1", "Y2"), 22, 4),
            ("ex2", ("Y1", "Y2"), 12, 5),
        ],
    )
    def test_fit_matches_reference_lloyd_loop(self, example, columns, k, seed):
        data = sample(GeneratorSpec(example, 2000, seed=seed))
        points = np.column_stack([data[c] for c in columns]).squeeze()
        assert fit_fields(kmeans_fit(points, k, seed=seed)) == reference_kmeans_fit(
            points, k, seed=seed
        )

    def test_rounded_values_match_reference(self):
        # one decimal: many duplicated points, some of them on a midpoint
        points = np.round(np.random.default_rng(21).standard_normal(3000), 1)
        for k in (5, 12, 40):
            assert fit_fields(kmeans_fit(points, k, seed=k)) == reference_kmeans_fit(
                points, k, seed=k
            )

    def test_sorted_path_redecides_only_points_near_a_midpoint(self, monkeypatch):
        sent = []
        original = ceda.categorize._nearest

        def counting(points, centroids):
            sent.append(points.shape[0])
            return original(points, centroids)

        monkeypatch.setattr(ceda.categorize, "_nearest", counting)
        values = np.random.default_rng(22).standard_normal(5000)
        model = kmeans_fit(values, 22, seed=1)
        assert model.iterations_run > 5
        assert sum(sent) < 0.01 * values.size * (model.iterations_run + 1)


@st.composite
def awkward_fits(draw, dims=(1, 2, 3)):
    """Points, k and seed for a fit: ties, duplicates, k near n, tiny to huge magnitudes.

    Coordinates are small integers (exact ties, duplicated points, coincident
    k-means++ centroids and emptied clusters) or floats, times a power of ten
    from 1e-300 (squares and products underflow to subnormals or zero) to
    1e150 (squares near the top of the double range).
    """
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(float)
    else:
        coord = st.floats(-4.0, 4.0, allow_subnormal=False)
    distinct = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    # the narrow band near 1e-160 is where products are partly subnormal
    scale = 10.0 ** draw(st.one_of(st.integers(-300, 150), st.integers(-165, -150)))
    points = np.array([distinct[i] for i in picks]) * scale
    k = n - draw(st.integers(0, min(3, n - 1))) if draw(st.booleans()) else draw(st.integers(1, n))
    return points, k, draw(st.integers(0, 2**32 - 1))


class TestKMeansOracles:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(awkward_fits())
    def test_fit_equals_the_reference_bit_for_bit(self, fit):
        points, k, seed = fit
        labels, centroids, inertia, iterations = reference_kmeans_fit(points, k, seed=seed)
        model = kmeans_fit(points, k, seed=seed)
        assert model.assignments.labels.tolist() == labels
        assert model.centroids.tobytes() == centroids
        assert np.float64(model.inertia).tobytes() == np.float64(inertia).tobytes()
        assert model.iterations_run == iterations

    @settings(max_examples=150, deadline=None)
    @given(awkward_fits())
    def test_seeding_equals_the_choice_reference_and_leaves_the_same_state(self, fit):
        points, k, seed = fit
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centroids = _kmeans_pp_init(points, k, rng)
        assert centroids.tobytes() == reference_kmeans_pp_init(points, k, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(awkward_fits(dims=(2, 3)), st.data())
    def test_nearest_equals_the_reference_bit_for_bit(self, fit, data):
        points, k, _ = fit
        rows = data.draw(st.lists(st.integers(0, points.shape[0] - 1), min_size=k, max_size=k))
        centroids = points[rows] * data.draw(st.sampled_from([1.0, 0.5, -3.0]))
        got, want = _nearest(points, centroids), reference_nearest(points, centroids)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestFuseFeatures:
    def test_scalar_clustering_with_sorted_centroids_is_order_preserving(self):
        rng = np.random.default_rng(19)
        values = rng.standard_normal(2000)
        fused = fuse_features(values, 6, seed=0, sort_centroids=True)
        order = np.argsort(values)
        assert (np.diff(fused.labels[order]) >= 0).all()

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(20)
        pts = rng.standard_normal((500, 3))
        a = fuse_features(pts, 12, seed=5)
        b = fuse_features(pts, 12, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_triple_fusion_conditional_entropy_level(self):
        # Fusing the three sine-argument features at N=1000 should leave the
        # 12-cluster response conditional entropy near 2.345.
        from ceda.tabulate import conditional_entropy, crosstab

        data = sample(GeneratorSpec("ex5", 1000, seed=1))
        y = fuse_features(data["Y"], 12, seed=42, sort_centroids=True)
        x234 = fuse_features(
            np.column_stack([data["X2"], data["X3"], data["X4"]]), 12, seed=7
        )
        ce = conditional_entropy(crosstab(x234, y))
        assert ce == pytest.approx(2.345, abs=0.03)


class TestProductCategories:
    def test_two_binary_series_full_occupancy(self):
        a = CategoricalSeries(labels=np.array([0, 0, 1, 1]), cardinality=2)
        b = CategoricalSeries(labels=np.array([0, 1, 0, 1]), cardinality=2)
        assert product_categories([a, b]).cardinality == 4

    def test_perfectly_correlated_diagonal_occupancy(self):
        labels = np.tile(np.arange(12), 5)
        a = CategoricalSeries(labels=labels, cardinality=12)
        b = CategoricalSeries(labels=labels.copy(), cardinality=12)
        assert product_categories([a, b]).cardinality == 12

    def test_cardinality_matches_distinct_tuple_oracle(self, interaction_data):
        from conftest import binned

        a = binned(interaction_data["X1"], 10)
        b = binned(interaction_data["X2"], 10)
        fused = product_categories([a, b])
        oracle = len({(int(x), int(y)) for x, y in zip(a.labels, b.labels)})
        assert fused.cardinality == oracle
        assert 130 <= fused.cardinality <= 144

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            product_categories([])

    def test_length_mismatch_rejected(self):
        a = CategoricalSeries(labels=np.array([0, 1]), cardinality=2)
        b = CategoricalSeries(labels=np.array([0, 1, 0]), cardinality=2)
        with pytest.raises(ValueError):
            product_categories([a, b])
