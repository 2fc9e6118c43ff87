"""Subset ledgers, pair classification and major-factor selection."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ceda.protocol
from ceda.genlab import GeneratorSpec, sample
from ceda.protocol import (
    PAD_REPLICATES,
    REF_REPLICATES,
    ProtocolConfig,
    _maximal_coexistent_sets,
    SubsetEvaluator,
    build_ledger,
    classify_subset,
    enumerate_subsets,
    ledger_to_tsv,
    mi_grid,
    sce_star_drop,
    select_major_factors,
)
from ceda.tabulate import CategoricalSeries
from conftest import binned, count_fusion_calls


def reference_maximal_coexistent_sets(candidates, conflicts):
    """The scan over all 2^c candidate combinations, largest first; kept as the oracle."""
    candidates = list(candidates)
    sets = []
    for r in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, r):
            if any(
                frozenset((a, b)) in conflicts
                for a, b in itertools.combinations(combo, 2)
            ):
                continue
            if any(set(combo) <= set(s) for s in sets):
                continue
            sets.append(combo)
    return sets


@pytest.fixture(scope="module")
def additive_sine_setup():
    """Categorized additive-plus-sine study: X1 real, (X2,X3) interacting, X4 noise."""
    data = sample(GeneratorSpec("ex4", 10_000, seed=1))
    y = binned(data["Y"], 10)
    cov = {f: binned(data[f], 10) for f in ("X1", "X2", "X3", "X4")}
    return cov, y


def ledger_of(cov, y, **settings):
    return build_ledger(SubsetEvaluator(cov, y, ProtocolConfig(**settings)))


@pytest.fixture(scope="module")
def additive_sine_evaluator(additive_sine_setup):
    cov, y = additive_sine_setup
    return SubsetEvaluator(cov, y, ProtocolConfig(max_order=2, seed=1))


class TestProtocolConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_order", 0),
            ("replicates", 1),
            ("seed", -1),
            ("threads", 0),
            ("r_int", float("nan")),
            ("r_int", float("inf")),
            ("r_int", 0.0),
            ("cell_floor", -1.0),
            ("cell_floor", float("nan")),
            ("noise_features", ("X4", "X3", "X4")),
        ],
    )
    def test_out_of_range_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{field: value})

    def test_smallest_accepted_values(self):
        ProtocolConfig(max_order=1, replicates=2, seed=0, threads=1, r_int=1e-9, cell_floor=0.0)


class TestEnumerateSubsets:
    def test_four_features_full_depth(self):
        assert len(enumerate_subsets(list("abcd"), 4)) == 15

    def test_ten_features_pairs(self):
        assert len(enumerate_subsets([f"X{i}" for i in range(10)], 2)) == 55

    def test_ten_features_depth_six(self):
        assert len(enumerate_subsets([f"X{i}" for i in range(10)], 6)) == 847

    def test_size_then_lexicographic_order(self):
        subsets = enumerate_subsets(["a", "b", "c"], 2)
        assert subsets == [("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c")]

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subsets(["a"], 0)
        with pytest.raises(ValueError):
            enumerate_subsets(["a"], 2)


class TestBuildLedger:
    def test_singleton_conditional_entropy_level(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ledger = ledger_of(cov, y, max_order=1, seed=1, replicates=300)
        by_subset = {e.subset: e for e in ledger}
        assert by_subset[("X1",)].ce == pytest.approx(2.2315, abs=0.02)
        assert by_subset[("X1",)].ce_drop == pytest.approx(0.2322, abs=0.03)

    def test_pair_successive_drop_dominates_parts(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ledger = ledger_of(cov, y, max_order=2, seed=1, replicates=300)
        by_subset = {e.subset: e for e in ledger}
        pair = by_subset[("X2", "X3")]
        assert pair.sce_drop == pytest.approx(0.7781, abs=0.05)
        part = max(by_subset[("X2",)].ce_drop, by_subset[("X3",)].ce_drop)
        assert pair.sce_drop > 5 * abs(part)

    def test_singleton_sce_equals_ce_drop(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ledger = ledger_of(cov, y, max_order=1, seed=1, replicates=300)
        for e in ledger:
            assert e.sce_drop == e.ce_drop

    def test_sorted_by_ce_within_order(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ledger = ledger_of(cov, y, max_order=2, seed=1, replicates=200)
        for order in (1, 2):
            ces = [e.ce for e in ledger if e.order == order and np.isfinite(e.ce)]
            assert ces == sorted(ces)

    def test_pair_sce_drop_non_negative(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ledger = ledger_of(cov, y, max_order=2, seed=1, replicates=200)
        for e in ledger:
            if e.order >= 2:
                assert e.sce_drop >= -1e-12

    def test_independent_of_feature_enumeration_order(self, additive_sine_setup):
        cov, y = additive_sine_setup
        cfg = ProtocolConfig(max_order=2, seed=1, replicates=200)
        forward = build_ledger(SubsetEvaluator(dict(cov), y, cfg))
        reversed_cov = dict(reversed(list(cov.items())))
        backward = build_ledger(SubsetEvaluator(reversed_cov, y, cfg))
        assert [e.subset for e in forward] == [e.subset for e in backward]
        assert [e.ce for e in forward] == [e.ce for e in backward]

    def test_cell_budget_marks_subset_unreliable(self, additive_sine_setup, monkeypatch):
        cov, y = additive_sine_setup
        monkeypatch.setattr(ceda.protocol, "CELL_BUDGET", 500)
        cfg = ProtocolConfig(max_order=2, seed=1, replicates=200)
        ledger = build_ledger(SubsetEvaluator(cov, y, cfg))
        pairs = [e for e in ledger if e.order == 2]
        assert pairs and all(not e.reliable for e in pairs)
        assert all(np.isnan(e.ce) for e in pairs)
        for e in pairs:
            assert e.table_cols == y.cardinality
            assert np.isnan(e.ce_drop) and np.isnan(e.sce_drop)
            assert e.sce_star_drop is None and e.c1 is None
            assert (e.table_rows, e.avg_cell, e.synthetic_noise) == (0, 0.0, False)

    def test_sce_star_drop_adds_the_member_the_best_proper_subset_leaves_out(
        self, additive_sine_setup
    ):
        cov, y = additive_sine_setup
        ev = SubsetEvaluator(cov, y, ProtocolConfig(max_order=2, seed=1, replicates=200))
        rows = [e for e in build_ledger(ev) if e.order == 2 and e.reliable]
        assert len(rows) == 6
        for e in rows:
            best = min(((f,) for f in e.subset), key=ev.ce)
            (member,) = set(e.subset) - set(best)
            assert (e.sce_star_drop, e.synthetic_noise) == sce_star_drop(ev, e.subset, member)
            assert e.sce_drop == ev.ce(best) - e.ce

    def test_thread_count_does_not_change_results(self, additive_sine_setup):
        cov, y = additive_sine_setup
        one = ledger_of(cov, y, max_order=2, seed=1, replicates=200, threads=1)
        four = ledger_of(cov, y, max_order=2, seed=1, replicates=200, threads=4)
        assert [(e.subset, e.ce, e.ce_drop) for e in one] == [
            (e.subset, e.ce, e.ce_drop) for e in four
        ]

    def test_tsv_layout(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ledger = ledger_of(cov, y, max_order=1, seed=1, replicates=200)
        text = ledger_to_tsv(ledger)
        header = text.splitlines()[0].split("\t")
        assert header == [
            "order", "subset", "ce", "ce_drop", "sce_drop",
            "sce_star_drop", "rows", "avg_cell", "c1_status",
        ]


class TestSceStarDrop:
    def test_noise_partner_adds_nothing(self, additive_sine_evaluator):
        drop, synthetic = sce_star_drop(additive_sine_evaluator, ("X1", "X2"), "X2")
        assert abs(drop) < 0.02
        assert synthetic  # no designated noise pool configured

    def test_real_factor_drop_at_matched_dimension(self, additive_sine_evaluator):
        ev = additive_sine_evaluator
        benchmark = ev.ce(("X4",)) - ev.ce(("X2", "X4"))
        assert benchmark == pytest.approx(0.0777, abs=0.03)
        drop, _ = sce_star_drop(ev, ("X1", "X4"), "X1")
        assert drop > 2 * abs(benchmark)

    def test_flag_reports_synthetic_noise_next_to_one_designated_feature(
        self, additive_sine_setup
    ):
        cov, y = additive_sine_setup
        ev = SubsetEvaluator(cov, y, ProtocolConfig(seed=1, noise_features=("X4",)))
        # padding X1 to dimension 2 and the order-1 reference each find one
        # designated sample and top it up with synthetic ones
        assert sce_star_drop(ev, ("X1", "X2"), "X2")[1]
        assert sce_star_drop(ev, ("X1",), "X1")[1]
        assert len(ev.padded_ce_samples(("X1",), 2)) == 1 + PAD_REPLICATES

    def test_flag_is_false_when_designated_noise_suffices(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ev = SubsetEvaluator(cov, y, ProtocolConfig(seed=1, noise_features=("X3", "X4")))
        assert not sce_star_drop(ev, ("X1", "X2"), "X2")[1]
        assert not sce_star_drop(ev, ("X1",), "X1")[1]

    def test_feature_must_belong_to_subset(self, additive_sine_evaluator):
        with pytest.raises(ValueError):
            sce_star_drop(additive_sine_evaluator, ("X1", "X2"), "X3")


class TestReferenceBand:
    def test_zero_size_rejected(self, additive_sine_evaluator):
        with pytest.raises(ValueError):
            additive_sine_evaluator.reference_band(0)

    def test_negative_size_rejected(self, additive_sine_evaluator):
        with pytest.raises(ValueError):
            additive_sine_evaluator.reference_band(-1)

    def test_reference_non_increasing_in_subset_size(self, monkeypatch):
        data = sample(GeneratorSpec("ex6", 20_000, seed=2))
        y = binned(data["Y"], 10)
        cov = {f: binned(data[f], 10) for f in ("X1", "X2", "X3")}
        monkeypatch.setattr(ceda.protocol, "REF_REPLICATES", 30)
        ev = SubsetEvaluator(cov, y, ProtocolConfig(seed=16))
        levels = [ev.reference_band(k).mean for k in (1, 2, 3)]
        assert levels[0] >= levels[1] >= levels[2]

    def test_band_is_tight_at_scale(self, additive_sine_setup):
        cov, y = additive_sine_setup
        ev = SubsetEvaluator(cov, y, ProtocolConfig(seed=17))
        band = ev.reference_band(1)
        assert band.sd < 0.01
        assert band.mean == pytest.approx(2.45, abs=0.03)

    def test_one_designated_combination_is_topped_up_with_synthetic_noise(
        self, additive_sine_setup
    ):
        cov, y = additive_sine_setup
        ev = SubsetEvaluator(cov, y, ProtocolConfig(seed=1, noise_features=("X3", "X4")))
        band = ev.reference_band(2)
        assert band.replicates > 2
        assert band.sd > 0
        assert band.q025 < band.q975
        assert ev.drew_synthetic((), 2)

    def test_one_designated_feature_joins_the_synthetic_replicates(
        self, additive_sine_setup
    ):
        cov, y = additive_sine_setup
        ev = SubsetEvaluator(cov, y, ProtocolConfig(seed=1, noise_features=("X4",)))
        band = ev.reference_band(1)
        assert band.replicates == 1 + REF_REPLICATES
        assert ev.padded_ce_samples((), 1)[0] == ev.ce(("X4",))
        assert ev.drew_synthetic((), 1)

    def test_padding_must_add_a_feature(self, additive_sine_evaluator):
        with pytest.raises(ValueError):
            additive_sine_evaluator.padded_ce_samples(("X1", "X2"), 2)


class TestClassifySubset:
    def test_hidden_pair_classified_as_interaction(self, additive_sine_evaluator):
        analysis = classify_subset(additive_sine_evaluator, ("X2", "X3"))
        assert analysis.classification == "interaction"
        assert analysis.ratio > 10

    def test_tiny_sample_pair_is_dimension_undetermined(self):
        data = sample(GeneratorSpec("ex4", 600, seed=2))
        y = binned(data["Y"], 10)
        cov = {f: binned(data[f], 10) for f in ("X1", "X2")}
        cfg = ProtocolConfig(max_order=2, seed=2, replicates=100)
        ev = SubsetEvaluator(cov, y, cfg)
        analysis = classify_subset(ev, ("X1", "X2"))
        assert analysis.classification == "undetermined (dimension)"
        assert analysis.pair == ("X1", "X2") and analysis.part_drops == {}
        assert np.isnan(analysis.joint_drop)
        assert np.isnan(analysis.excess) and np.isnan(analysis.ratio)
        assert analysis.significant is False


class TestSelectMajorFactors:
    def test_additive_sine_study_selection(self, additive_sine_evaluator):
        report = select_major_factors(additive_sine_evaluator)
        assert report.confirmed == [
            (("X1",), 1, "order-1 major factor"),
            (("X2", "X3"), 2, "order-2 major factor (interaction)"),
        ]
        assert report.chief_collection == ("X1",)
        excluded = {s for s, _ in report.excluded}
        assert ("X4",) in excluded

    def test_thread_count_does_not_change_report(self, additive_sine_setup):
        cov, y = additive_sine_setup
        one, four = (
            select_major_factors(
                SubsetEvaluator(cov, y, ProtocolConfig(seed=1, replicates=200, threads=t))
            )
            for t in (1, 4)
        )
        assert one == four

    def test_all_noise_covariates_give_empty_report(self):
        rng = np.random.default_rng(21)
        n = 5000
        y = binned(rng.standard_normal(n), 10)
        cov = {f"Z{i}": binned(rng.random(n), 10) for i in range(3)}
        report = select_major_factors(SubsetEvaluator(cov, y, ProtocolConfig(seed=3)))
        assert report.confirmed == []
        assert report.chief_collection == ()

    def test_non_coexistent_composite_feature_forms_alternative(self):
        data = sample(GeneratorSpec("ex6", 50_000, seed=1))
        y = binned(data["Y"], 10)
        cov = {f"X{i}": binned(data[f"X{i}"], 10) for i in range(1, 11)}
        cfg = ProtocolConfig(
            max_order=2, seed=1, noise_features=("X7", "X8", "X9", "X10")
        )
        report = select_major_factors(SubsetEvaluator(cov, y, cfg))
        assert report.chief_collection == ("X1", "X2", "X3")
        assert ("X4", "X5", "X6") in report.alternative_collections
        classes = {p.pair: p.classification for p in report.pair_analyses}
        assert classes[("X1", "X6")] == "non_coexistent"
        assert classes[("X1", "X2")] == "ecological"


class TestMaximalCoexistentSets:
    def test_sets_and_their_order_on_a_small_conflict_graph(self):
        conflicts = {frozenset(p) for p in (("X1", "X2"), ("X2", "X3"), ("X4", "X5"))}
        sets = _maximal_coexistent_sets(["X1", "X2", "X3", "X4", "X5"], conflicts)
        assert sets == [
            ("X1", "X3", "X4"),
            ("X1", "X3", "X5"),
            ("X2", "X4"),
            ("X2", "X5"),
        ]

    def test_no_conflicts_give_one_set_of_every_candidate(self):
        assert _maximal_coexistent_sets(["b", "a", "c"], set()) == [("b", "a", "c")]

    def test_no_candidates_give_no_sets(self):
        assert _maximal_coexistent_sets([], set()) == []

    def test_thirty_candidates(self):
        # the 2^30 combination scan would not finish; four maximal sets
        c = [f"F{i:02d}" for i in range(30)]
        conflicts = {frozenset(p) for p in ((c[0], c[1]), (c[1], c[2]), (c[28], c[29]))}
        middle = tuple(c[3:28])
        assert _maximal_coexistent_sets(c, conflicts) == [
            (c[0], c[2], *middle, c[28]),
            (c[0], c[2], *middle, c[29]),
            (c[1], *middle, c[28]),
            (c[1], *middle, c[29]),
        ]


@st.composite
def conflict_graphs(draw):
    """(candidates, conflicts): up to 10 candidates in a drawn order, any set of conflicting pairs."""
    candidates = draw(st.permutations([f"X{i}" for i in range(draw(st.integers(0, 10)))]))
    pairs = list(itertools.combinations(candidates, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return candidates, {frozenset(p) for p in chosen}


@settings(max_examples=200, deadline=None)
@given(conflict_graphs())
def test_maximal_coexistent_sets_match_the_combination_scan(graph):
    candidates, conflicts = graph
    assert _maximal_coexistent_sets(candidates, conflicts) == reference_maximal_coexistent_sets(
        candidates, conflicts
    )


class TestMiGrid:
    def test_mid_correlation_cell_level_and_verdict(self):
        data = sample(GeneratorSpec("ex3_rho", 20_000, seed=1))
        cells = mi_grid(data["Y"], data["X"], [12], [12], n_replicates=500, seed=1)
        assert len(cells) == 1
        assert cells[0].report.mutual_info == pytest.approx(0.1478, abs=0.02)
        assert cells[0].verdict.status == "confirmed"

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            mi_grid(np.arange(100.0), np.arange(100.0), [], [12])

    def test_cells_bands_and_verdicts_compare_and_hash_by_value(self):
        rng = np.random.default_rng(21)
        y, x = rng.standard_normal(300), rng.standard_normal(300)
        first, second = (mi_grid(y, x, [3], [4], n_replicates=20, seed=2) for _ in range(2))
        assert first == second
        assert first != mi_grid(y, x, [3], [4], n_replicates=20, seed=3)
        assert hash(first[0]) == hash(second[0])
        assert len({first[0].band, second[0].band}) == 1

    def test_grid_shape_and_ordering(self):
        rng = np.random.default_rng(22)
        y, x = rng.standard_normal(2000), rng.standard_normal(2000)
        cells = mi_grid(y, x, [4, 6], [3, 5], n_replicates=100, seed=2)
        assert [(c.y_bins, c.x_bins) for c in cells] == [
            (4, 3), (4, 5), (6, 3), (6, 5)
        ]

    def test_threads_do_not_change_output(self):
        rng = np.random.default_rng(23)
        y, x = rng.standard_normal(3000), rng.standard_normal(3000)
        ladders = ([6, 10], [6, 10])
        one = mi_grid(y, x, *ladders, n_replicates=200, seed=3, threads=1)
        many = mi_grid(y, x, *ladders, n_replicates=200, seed=3, threads=8)
        assert [
            (c.report.mutual_info, c.band.mean, c.verdict.status) for c in one
        ] == [(c.report.mutual_info, c.band.mean, c.verdict.status) for c in many]


class TestSharedEvaluator:
    def test_entries_computed_once_under_thread_contention(self, monkeypatch):
        data = sample(GeneratorSpec("ex4", 600, seed=3))
        y = binned(data["Y"], 4)
        cov = {f: binned(data[f], 4) for f in ("X1", "X2", "X3", "X4")}
        monkeypatch.setattr(ceda.protocol, "REF_REPLICATES", 6)
        monkeypatch.setattr(ceda.protocol, "PAD_REPLICATES", 6)
        cfg = ProtocolConfig(max_order=2, seed=1)
        calls = count_fusion_calls(monkeypatch)

        def work(evaluator):
            return (
                evaluator.reference_band(2).mean,
                evaluator.padded_ce_samples(("X1",), 2).tolist(),
                evaluator.ce(("X2", "X3")),
            )

        expected = work(SubsetEvaluator(cov, y, cfg))
        expected_calls = dict(calls)
        calls.clear()

        shared = SubsetEvaluator(cov, y, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, shared) for _ in range(16)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 16
        assert dict(calls) == expected_calls


class TestSubsetIdentity:
    """A subset is a feature set: each method keys, seeds and fuses it in sorted order."""

    def test_any_order_reads_the_sorted_subsets_entries(self, monkeypatch):
        data = sample(GeneratorSpec("ex4", 600, seed=3))
        y = binned(data["Y"], 4)
        cov = {f: binned(data[f], 4) for f in ("X1", "X2", "X3")}
        monkeypatch.setattr(ceda.protocol, "PAD_REPLICATES", 6)
        ev = SubsetEvaluator(cov, y, ProtocolConfig(replicates=20, seed=1))
        calls = count_fusion_calls(monkeypatch)
        assert ev.table(("X2", "X1")) is ev.table(("X1", "X2"))
        assert calls["crosstab"] == 1
        assert ev.ce(("X3", "X1", "X2")) == ev.ce(("X1", "X2", "X3"))
        assert ev.mi_verdict(("X2", "X1")) is ev.mi_verdict(("X1", "X2"))
        assert ev.padded_ce_samples(("X2", "X1"), 3) is ev.padded_ce_samples(("X1", "X2"), 3)
