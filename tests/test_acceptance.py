"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints a single summary line (visible with ``pytest -s`` or in
captured output on failure) and then asserts.  Tolerances and replicate
budgets are fixed here on purpose; loosening them is a deliberate act.
"""

import math

import numpy as np
import pytest

from ceda.categorize import apply_bins, fuse_features, product_categories, quantile_bins
from ceda.genlab import GeneratorSpec, gaussian_entropy, sample
from ceda.nullsim import (
    band_from_samples,
    c1_test,
    child_rng,
    mimic_ce_samples,
    null_band,
)
from ceda.protocol import (
    ProtocolConfig,
    SubsetEvaluator,
    build_ledger,
    mi_grid,
    sce_star_drop,
    select_major_factors,
)
from ceda.tabulate import (
    CategoricalSeries,
    ContingencyTable,
    column_margin_entropy,
    conditional_entropy,
    crosstab,
    mutual_information,
)
from conftest import binned, reference_mimic_table


def verdict(tag: str, ok: bool, detail: str):
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


def compound_symmetric(d, rho):
    cov = np.full((d, d), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


def test_01_gaussian_entropy_oracle():
    targets = [
        (np.eye(1), 1.4189),
        (compound_symmetric(4, 0.5), 5.0942),
        (compound_symmetric(4, 0.7), 4.4355),
    ]
    errors = [abs(gaussian_entropy(cov) - want) for cov, want in targets]
    verdict(
        "criterion 1 (gaussian entropy oracle)",
        all(e < 5e-4 for e in errors),
        f"max abs error {max(errors):.2e} (tolerance 5e-4)",
    )


def test_02_two_normal_mutual_information():
    mis = []
    all_confirmed = True
    for seed in range(1, 21):
        data = sample(GeneratorSpec("ex1", 20_000, seed=seed))
        v1 = CategoricalSeries(labels=data["V1"], cardinality=2)
        for k in (10, 20, 30):
            t = crosstab(v1, binned(data["Y"], k))
            mi = mutual_information(t)
            mis.append(mi)
            band = null_band(t, 1000, child_rng(seed, k))
            if c1_test(mi, band).status != "confirmed":
                all_confirmed = False
    mean_mi = float(np.mean(mis))
    ok = abs(mean_mi - 0.113) < 0.01 and all_confirmed
    verdict(
        "criterion 2 (group-effect mutual information, 20 seeds x 3 ladders)",
        ok,
        f"mean I={mean_mi:.4f} (target 0.113±0.01), all confirmed={all_confirmed}",
    )


def test_03_bin_doubling_scale_relation():
    data = sample(GeneratorSpec("ex1", 20_000, seed=1))
    h = {
        k: column_margin_entropy(
            crosstab(
                CategoricalSeries(labels=data["V1"], cardinality=2),
                binned(data["Y"], k),
            )
        )
        for k in (10, 20, 30)
    }
    gap2 = abs((h[20] - h[10]) - math.log(2))
    gap3 = abs((h[30] - h[10]) - math.log(3))
    verdict(
        "criterion 3 (entropy scale relation under bin refinement)",
        gap2 < 0.1 and gap3 < 0.1,
        f"|ΔH−ln2|={gap2:.4f}, |ΔH−ln3|={gap3:.4f} (tolerance 0.1; refining "
        "K→3K adds ≈0.9·ln3 because only 90% of the mass sits in the "
        "interior bins, so the ln3 clause fails structurally)",
    )


def _mixture_confirmations(mu, seed):
    data = sample(GeneratorSpec("ex2star", 20_000, seed=seed, params={"mu": mu}))
    pts = np.column_stack([data["Y1"], data["Y2"]])
    v1 = CategoricalSeries(labels=data["V1"], cardinality=2)
    out = []
    for k in (12, 22, 32, 102):
        y = fuse_features(pts, k, seed=seed)
        t = crosstab(v1, y)
        band = null_band(t, 1000, child_rng(seed, k))
        out.append(c1_test(mutual_information(t), band).status == "confirmed")
    return out


@pytest.mark.slow
def test_04_mixture_discrimination():
    quiet = sum(
        not any(_mixture_confirmations((0.5, 0.5), seed)) for seed in range(1, 21)
    )
    loud = sum(
        all(_mixture_confirmations((1.0, 1.0), seed)) for seed in range(1, 21)
    )
    ok = quiet >= 18 and loud >= 18
    verdict(
        "criterion 4 (moment-matched mixture discrimination, 20 seeds)",
        ok,
        f"near mixture never-confirmed in {quiet}/20 seeds, "
        f"far mixture all-ladders-confirmed in {loud}/20 seeds (need ≥18 each)",
    )


def _grid_cells(y, x, ladder, seed, replicates=1000):
    return mi_grid(y, x, ladder, ladder, ProtocolConfig(replicates=replicates, seed=seed))


@pytest.mark.slow
def test_05_bivariate_dependence_grid():
    ladder = [12, 22, 32, 102]
    data = sample(GeneratorSpec("ex3_rho", 20_000, seed=1, params={"rho": 0.5}))
    mid = _grid_cells(data["Y"], data["X"], ladder, seed=1)
    mid_ok = all(c.verdict.status == "confirmed" for c in mid)

    confirms = trials = 0
    for seed in range(1, 51):
        null_data = sample(GeneratorSpec("ex3_rho", 20_000, seed=seed, params={"rho": 0.0}))
        cells = _grid_cells(null_data["Y"], null_data["X"], [12, 22, 32], seed=seed)
        confirms += sum(c.verdict.status == "confirmed" for c in cells)
        trials += len(cells)
    null_rate = confirms / trials

    sine_ok = True
    min_ratio = math.inf
    for example in ("ex3_halfsine", "ex3_fullsine"):
        sd = sample(GeneratorSpec(example, 20_000, seed=1))
        for c in _grid_cells(sd["Y"], sd["X"], ladder, seed=1):
            ratio = c.verdict.observed / c.verdict.band.q975
            min_ratio = min(min_ratio, ratio)
            if c.verdict.status != "confirmed" or ratio <= 5.0:
                sine_ok = False
    ok = mid_ok and null_rate <= 0.10 and sine_ok
    verdict(
        "criterion 5 (dependence grid: signal, null rate, sine curves)",
        ok,
        f"rho=.5 all 16 confirmed={mid_ok}; rho=0 confirm rate "
        f"{null_rate:.3f} (≤0.10); sine min I/q975={min_ratio:.1f} (>5)",
    )


@pytest.mark.slow
def test_06_additive_sine_selection():
    hits = 0
    for seed in range(1, 11):
        data = sample(GeneratorSpec("ex4", 10_000, seed=seed))
        y = binned(data["Y"], 10)
        cov = {f: binned(data[f], 10) for f in ("X1", "X2", "X3", "X4")}
        cfg = ProtocolConfig(max_order=2, seed=seed)
        report = select_major_factors(SubsetEvaluator(cov, y, cfg))
        if report.chief_collection == ("X1",) and report.interactions == [("X2", "X3")]:
            hits += 1

    # dimension-matched drops on the seed-1 dataset
    data = sample(GeneratorSpec("ex4", 10_000, seed=1))
    y = binned(data["Y"], 10)
    cov = {f: binned(data[f], 10) for f in ("X1", "X2", "X3", "X4")}
    ev = SubsetEvaluator(cov, y, ProtocolConfig(max_order=2, seed=1))
    pad = ev.padded_ce_samples(("X1",), 2)
    noise_drop, _ = sce_star_drop(ev, ("X1", "X2"), "X2")
    noise_band = band_from_samples("sce_star_drop", pad.mean() - pad)
    noise_small = noise_drop < noise_band.q975

    ref2 = ev.reference_band(2)
    joint_drop = ref2.mean - ev.ce(("X2", "X3"))
    joint_band_q975 = ref2.mean - ref2.q025
    joint_big = joint_drop > joint_band_q975

    ok = hits >= 9 and noise_small and joint_big
    verdict(
        "criterion 6 (planted-factor selection, 10 seeds)",
        ok,
        f"exact selection in {hits}/10 seeds (need ≥9); noise-partner drop "
        f"{noise_drop:.4f} under band q975 {noise_band.q975:.4f}={noise_small}; "
        f"pair drop {joint_drop:.4f} over {joint_band_q975:.4f}={joint_big}",
    )


def test_07_fused_route_escapes_dimension_curse():
    seed = 3
    data = sample(GeneratorSpec("ex5", 1000, seed=seed))
    y = binned(data["Y"], 10)
    cov = {f"X{i}": binned(data[f"X{i}"], 10) for i in range(1, 5)}
    ledger = build_ledger(
        SubsetEvaluator(cov, y, ProtocolConfig(max_order=3, seed=seed, replicates=300))
    )
    triplets = [e for e in ledger if e.order == 3]
    direct_unreliable = bool(triplets) and all(e.c1 is None for e in triplets)

    yk = fuse_features(data["Y"], 12, seed=42, sort_centroids=True)
    block = np.column_stack([data["X2"], data["X3"], data["X4"]])
    below_all = True
    magnitudes = []
    for k in (12, 36, 72, 144):
        fused = fuse_features(block, k, seed=7)
        t = crosstab(fused, yk)
        band = band_from_samples(
            "conditional_entropy", mimic_ce_samples(t, 100, child_rng(seed, k))
        )
        v = c1_test(conditional_entropy(t), band)
        below_all = below_all and v.observed < band.q025
        magnitudes.append(abs(v.excess_sd))
    growing = all(a < b for a, b in zip(magnitudes, magnitudes[1:]))
    ok = direct_unreliable and below_all and growing
    verdict(
        "criterion 7 (cluster-fused escape from the dimension curse)",
        ok,
        f"direct order-3 unreliable={direct_unreliable}; below q025 at all "
        f"cluster counts={below_all}; |excess sd| {[round(m, 1) for m in magnitudes]} "
        f"growing={growing}",
    )


@pytest.mark.slow
def test_08_dependent_covariate_structure():
    data = sample(GeneratorSpec("ex6", 100_000, seed=1))
    y = binned(data["Y"], 20)
    cov = {f"X{i}": binned(data[f"X{i}"], 20) for i in range(1, 11)}
    cfg = ProtocolConfig(max_order=2, seed=1, noise_features=("X7", "X8", "X9", "X10"))
    ev = SubsetEvaluator(cov, y, cfg)
    singles = {f: ev.ce((f,)) for f in cov}
    core = [singles[f] for f in ("X1", "X2", "X3")]
    noise_tier = [singles[f] for f in ("X7", "X8", "X9", "X10")]
    ordering = singles["X6"] < min(core) and max(core) < min(noise_tier)

    report = select_major_factors(ev)
    classes = {p.pair: p.classification for p in report.pair_analyses}
    pair_ok = (
        classes[("X1", "X2")] == "ecological"
        and classes[("X1", "X6")] == "non_coexistent"
    )
    structure_ok = report.chief_collection == ("X1", "X2", "X3") and (
        ("X4", "X5", "X6") in report.alternative_collections
    )

    yk = fuse_features(data["Y"], 22, seed=1, sort_centroids=True)
    fused_ce = []
    for trip in (("X1", "X2", "X3"), ("X4", "X5", "X6"), ("X7", "X8", "X9")):
        block = np.column_stack([data[f] for f in trip])
        fused_ce.append(
            conditional_entropy(crosstab(fuse_features(block, 22, seed=1), yk))
        )
    fused_ok = fused_ce[0] < fused_ce[1] < fused_ce[2]
    ok = ordering and pair_ok and structure_ok and fused_ok
    verdict(
        "criterion 8 (correlated-covariate structure discovery)",
        ok,
        f"singleton tiers ok={ordering}; pair classes ok={pair_ok}; "
        f"chief/alternative ok={structure_ok}; fused triplet CEs "
        f"{[round(c, 3) for c in fused_ce]} ordered={fused_ok}",
    )


def _random_tables(rng, count):
    from conftest import random_table_counts

    for _ in range(count):
        yield ContingencyTable(random_table_counts(rng))


def test_09_property_suites():
    rng = np.random.default_rng(90)

    refine_ok = True
    for _ in range(1000):
        n = 300
        a = CategoricalSeries(labels=rng.integers(0, 4, n), cardinality=4)
        b = CategoricalSeries(labels=rng.integers(0, 3, n), cardinality=3)
        y = CategoricalSeries(labels=rng.integers(0, 5, n), cardinality=5)
        if conditional_entropy(crosstab(product_categories([a, b]), y)) > conditional_entropy(
            crosstab(a, y)
        ) + 1e-12:
            refine_ok = False
            break

    identity_ok = True
    for t in _random_tables(rng, 1000):
        def h(margin):
            p = margin[margin > 0] / margin.sum()
            return float(-(p * np.log(p)).sum())

        alt = (
            h(t.row_margin.astype(float))
            + h(t.col_margin.astype(float))
            - h(t.counts.ravel().astype(float))
        )
        mi = mutual_information(t)
        if mi < 0 or abs(mi - alt) > 1e-10:
            identity_ok = False
            break

    base = ContingencyTable([[8, 3, 9], [2, 12, 6], [5, 5, 10]])
    probs = base.row_margin / base.total
    acc = np.zeros(base.counts.shape)
    reps = 5000
    margin_rng = child_rng(91)
    for _ in range(reps):
        acc += reference_mimic_table(base, margin_rng)
    margins_ok = True
    for r in range(3):
        for c in range(3):
            expect = probs[r] * base.col_margin[c]
            sd = math.sqrt(base.col_margin[c] * probs[r] * (1 - probs[r]) / reps)
            if abs(acc[r, c] / reps - expect) > 3.0 * max(sd, 1e-9):
                margins_ok = False

    false_confirms = 0
    trials = 200
    for s in range(trials):
        trial_rng = child_rng(92, s)
        a = CategoricalSeries(labels=trial_rng.integers(0, 12, 2000), cardinality=12)
        y = CategoricalSeries(labels=trial_rng.integers(0, 12, 2000), cardinality=12)
        t = crosstab(a, y)
        band = null_band(t, 1000, child_rng(93, s))
        if c1_test(mutual_information(t), band).status == "confirmed":
            false_confirms += 1
    false_rate = false_confirms / trials

    grid_rng = np.random.default_rng(94)
    gy, gx = grid_rng.standard_normal(4000), grid_rng.standard_normal(4000)
    outputs = [
        [
            (c.verdict.observed, c.verdict.band.mean, c.verdict.band.q975, c.verdict.status)
            for c in mi_grid(
                gy, gx, [6, 10], [6, 10], ProtocolConfig(replicates=300, seed=5, threads=th)
            )
        ]
        for th in (1, 2, 8)
    ]
    threads_ok = outputs[0] == outputs[1] == outputs[2]

    ok = refine_ok and identity_ok and margins_ok and false_rate <= 0.07 and threads_ok
    verdict(
        "criterion 9 (property suites)",
        ok,
        f"refinement={refine_ok}, joint identity={identity_ok}, mimic "
        f"margins={margins_ok}, false-confirm rate={false_rate:.3f} (≤0.07), "
        f"thread determinism={threads_ok}",
    )
