"""Covariate-subset ledgers and the major-factor selection protocol.

Everything here follows one comparability rule: conditional entropies are
only compared between tables of the same dimension.  A subset's noise level
at order k is H[Y | subset + (k - |subset|) noise features]; the reference
level for a size-k subset is the empty subset's noise level at order k, and
per-feature effects inside a size-k subset are measured against the
feature's noise level at the same order.  One rule gives every noise level:
each combination of designated noise features outside the subset gives one
sample, and with fewer than two such samples, synthetic uniform features
binned with the covariates' ladder are drawn on top.  A level is
``synthetic`` exactly when such features were drawn.  The synthetic
replicates are drawn and tabulated in blocks
(``nullsim.synthetic_ce_samples``) from the same stream as one replicate at
a time, so each level is unchanged bit for bit.
"""

from __future__ import annotations

import itertools
import math
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ceda.tabulate import CategoricalSeries, conditional_entropy, crosstab, entropy_report
from ceda.categorize import fuse_features, product_categories
from ceda.nullsim import (
    C1Verdict,
    NullBand,
    band_from_samples,
    child_rng,
    mi_verdict,
    synthetic_ce_samples,
)

__all__ = [
    "GridCell",
    "MajorFactorReport",
    "PairAnalysis",
    "ProtocolConfig",
    "SubsetEvaluator",
    "SubsetLedgerEntry",
    "build_ledger",
    "classify_subset",
    "enumerate_subsets",
    "ledger_to_tsv",
    "mi_grid",
    "sce_star_drop",
    "select_major_factors",
]

# Pair/subset classifications
INTERACTION = "interaction"
ECOLOGICAL = "ecological"
NON_COEXISTENT = "non_coexistent"
DEPENDENCE_LINK = "dependence_link"
NOT_SIGNIFICANT = "not_significant"
NO_ADDED_EFFECT = "no_added_effect"
UNDETERMINED = "undetermined"
UNDETERMINED_DIMENSION = "undetermined (dimension)"

# A pair whose joint drop is within ECO_LOW..ECO_HIGH times the sum of its
# parts' drops, or within COEXIST_MARGIN of it, acts ecologically.
ECO_LOW = 0.8
ECO_HIGH = 1.5
COEXIST_MARGIN = 0.05
# A conditional entropy counts as below a reference band only when it is
# below its 2.5% quantile by more than this margin.
CANDIDATE_MARGIN = 0.01
# Synthetic noise replicates drawn for a reference level (the empty subset)
# and for any other subset's noise level.
REF_REPLICATES = 100
PAD_REPLICATES = 30
# A subset whose full table would exceed this many cells is listed unevaluated.
CELL_BUDGET = 2_000_000


@dataclass(frozen=True)
class ProtocolConfig:
    """Thresholds and budgets for ledger building and factor selection.

    The interaction ratio ``r_int`` is configurable because the underlying
    analyses argue with ratios ("more than 10 times", "5 times larger")
    rather than fixed constants; the ecological band and the margins are
    the module constants ``ECO_LOW``/``ECO_HIGH``, ``COEXIST_MARGIN`` and
    ``CANDIDATE_MARGIN``, as are the synthetic replicate counts and the cell
    budget.  Construction raises ``ValueError`` for a value outside its
    range, e.g. fewer than 2 replicates, a negative seed, a non-finite
    ``r_int`` or a repeated noise feature.
    """

    max_order: int = 2
    replicates: int = 1000
    seed: int = 0
    r_int: float = 3.0
    cell_floor: float = 1.0
    noise_features: tuple = ()
    threads: int = 1

    def __post_init__(self):
        for name, least in (("max_order", 1), ("replicates", 2), ("seed", 0), ("threads", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.r_int) and self.r_int > 0):
            raise ValueError(f"r_int must be finite and > 0, got {self.r_int}")
        if not self.cell_floor >= 0:
            raise ValueError(f"cell_floor must be >= 0, got {self.cell_floor}")
        if len(set(self.noise_features)) < len(self.noise_features):
            raise ValueError(
                f"noise_features names a feature more than once: {list(self.noise_features)}"
            )


@dataclass(frozen=True)
class SubsetLedgerEntry:
    """One covariate subset's conditional-entropy bookkeeping; defaults leave it unevaluated."""

    subset: tuple
    order: int
    table_cols: int
    ce: float = math.nan
    ce_drop: float = math.nan
    sce_drop: float = math.nan
    sce_star_drop: float | None = None
    table_rows: int = 0
    avg_cell: float = 0.0
    reliable: bool = False
    c1: C1Verdict | None = None
    synthetic_noise: bool = False


@dataclass(frozen=True)
class PairAnalysis:
    """Dimension-matched comparison of a feature pair's joint vs. separate effects.

    The defaults are the undetermined analysis of a pair too sparse to compare.
    """

    pair: tuple
    joint_drop: float = math.nan
    part_drops: dict = field(default_factory=dict)
    excess: float = math.nan
    ratio: float = math.nan
    classification: str = UNDETERMINED_DIMENSION
    significant: bool = False


@dataclass(frozen=True)
class MajorFactorReport:
    """Confirmed factors, their classifications and the (in)compatible collections."""

    confirmed: list
    chief_collection: tuple
    alternative_collections: list
    pair_analyses: list
    excluded: list


def enumerate_subsets(features, max_order: int) -> list[tuple]:
    """All subsets of size 1..max_order in (size, lexicographic) order."""
    features = list(features)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_order > len(features):
        raise ValueError("max_order exceeds the feature count")
    out = []
    for k in range(1, max_order + 1):
        out.extend(itertools.combinations(features, k))
    return out


class _OnceCache:
    """Memo whose entries are computed once, however many threads ask.

    A thread that finds an entry being computed waits for it instead of
    computing it again.  Each key has its own lock, so different keys are
    computed concurrently; an entry only ever waits on entries of a kind
    further down the order noise/verdict -> ce -> table, so the locks cannot
    deadlock.  A computation that raises leaves its entry empty.
    """

    _EMPTY = object()

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}

    def get(self, key, compute):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = [threading.Lock(), self._EMPTY]
        with entry[0]:
            if entry[1] is self._EMPTY:
                entry[1] = compute()
        return entry[1]


class SubsetEvaluator:
    """One run's categorized data, its config, and everything derived from them.

    Tables, conditional entropies, C1 verdicts and noise levels depend only
    on the data, the config and keyed seeds, so each is computed once and
    memoised under ``(kind, key)``.  A subset is a feature set: every method
    sorts the subset it is given before using it as a memo key, a stream tag
    or a fusion order, so the order it is named in changes nothing.  A
    subset's fused labels are not kept: they are built for its table and
    counted away.  Safe to share between threads.
    """

    def __init__(self, covariates: dict, response: CategoricalSeries, config: ProtocolConfig):
        self.covariates = dict(covariates)
        self.response = response
        self.config = config
        self.n = len(response)
        self._memo = _OnceCache()

    def table(self, subset: tuple):
        subset = tuple(sorted(subset))

        def compute():
            series = [self.covariates[f] for f in subset]
            fused = series[0] if len(series) == 1 else product_categories(series)
            return crosstab(fused, self.response)

        return self._memo.get(("table", subset), compute)

    def ce(self, subset: tuple) -> float:
        subset = tuple(sorted(subset))
        return self._memo.get(("ce", subset), lambda: conditional_entropy(self.table(subset)))

    def mi_verdict(self, subset: tuple) -> C1Verdict:
        """[C1] verdict on I[Y; subset] against its mimic null band."""
        subset = tuple(sorted(subset))
        cfg = self.config
        return self._memo.get(
            ("verdict", subset),
            lambda: mi_verdict(
                self.table(subset), cfg.replicates, child_rng(cfg.seed, 1, _subset_tag(subset))
            ),
        )

    def _bins_for_noise(self) -> int:
        return max(c.cardinality for c in self.covariates.values())

    def reference_band(self, k: int) -> NullBand:
        """Band of H[Y | k noise features]: the empty subset's noise level."""
        return self._noise_level((), k)[1]

    def padded_ce_samples(self, subset: tuple, target_order: int) -> np.ndarray:
        """Samples of H[Y | subset + noise padding] at dimension ``target_order``.

        The empty subset gives the samples behind ``reference_band(target_order)``.
        """
        return self._noise_level(subset, target_order)[0]

    def padded_ce(self, subset: tuple, target_order: int) -> float:
        return float(self.padded_ce_samples(subset, target_order).mean())

    def drew_synthetic(self, subset: tuple, target_order: int) -> bool:
        """Whether the noise level of ``subset`` at ``target_order`` drew synthetic noise."""
        return self._noise_level(subset, target_order)[2]

    def _noise_level(self, subset: tuple, order: int) -> tuple:
        """``(samples, band, synthetic)`` of the subset's noise level at ``order``.

        The rule is the module docstring's; synthetic draws number
        ``REF_REPLICATES`` for the empty subset and ``PAD_REPLICATES`` otherwise.
        """
        subset = tuple(sorted(subset))
        pad = order - len(subset)
        if pad < 1:
            raise ValueError("the order must exceed the subset size")

        def compute():
            cfg = self.config
            noise = [
                f for f in cfg.noise_features if f in self.covariates and f not in subset
            ]
            samples = [self.ce(subset + combo) for combo in itertools.combinations(noise, pad)]
            synthetic = len(samples) < 2
            if synthetic:
                if subset:
                    rng = child_rng(cfg.seed, 91, order, _subset_tag(subset))
                    replicates = PAD_REPLICATES
                else:
                    rng = child_rng(cfg.seed, 90, order)
                    replicates = REF_REPLICATES
                base = tuple(self.covariates[f] for f in subset)
                drawn = synthetic_ce_samples(
                    base, self.response, pad, self._bins_for_noise(), replicates, rng
                )
                samples = np.concatenate([samples, drawn])
            samples = np.asarray(samples)
            return samples, band_from_samples("conditional_entropy", samples), synthetic

        return self._memo.get(("noise", subset, order), compute)


def _subset_tag(subset: tuple) -> int:
    return zlib.crc32("|".join(str(f) for f in subset).encode())


def sce_star_drop(
    evaluator: SubsetEvaluator, subset: tuple, added_feature
) -> tuple[float, bool]:
    """Effect of one feature measured at the full subset's table dimension.

    Returns H[Y | rest + noise pad] - H[Y | subset] and whether synthetic
    noise had to be drawn for the pad.
    """
    if added_feature not in subset:
        raise ValueError("added_feature must belong to the subset")
    rest = tuple(f for f in subset if f != added_feature)
    k = len(subset)
    drop = evaluator.padded_ce(rest, k) - evaluator.ce(subset)
    return drop, evaluator.drew_synthetic(rest, k)


def classify_subset(evaluator: SubsetEvaluator, subset: tuple) -> PairAnalysis:
    """Interaction / ecological / non-coexistence call at matched dimension.

    ``joint_drop`` and the per-feature ``part_drops`` are all measured
    against the size-k noise reference, so the comparison is scale-free.
    """
    config = evaluator.config
    k = len(subset)
    ref = evaluator.reference_band(k)
    table = evaluator.table(subset)
    if table.avg_cell_count < config.cell_floor:
        return PairAnalysis(pair=subset)
    ce_joint = evaluator.ce(subset)
    joint_drop = ref.mean - ce_joint
    joint_sig = ce_joint < ref.q025 - CANDIDATE_MARGIN
    parts = {}
    part_sig = {}
    for f in subset:
        padded = evaluator.padded_ce((f,), k)
        parts[f] = ref.mean - padded
        part_sig[f] = padded < ref.q025 - CANDIDATE_MARGIN
    sum_parts = sum(max(v, 0.0) for v in parts.values())
    floor = max(ref.mean - ref.q025, 1e-9)
    ratio = joint_drop / max(sum_parts, floor)
    excess = joint_drop - sum_parts

    if not joint_sig:
        cls = NOT_SIGNIFICANT
    elif ratio >= config.r_int:
        cls = INTERACTION
    elif excess < -COEXIST_MARGIN:
        cls = NON_COEXISTENT
    elif not all(part_sig.values()):
        cls = DEPENDENCE_LINK if excess > COEXIST_MARGIN else NO_ADDED_EFFECT
    elif ECO_LOW <= ratio <= ECO_HIGH or abs(excess) <= COEXIST_MARGIN:
        cls = ECOLOGICAL
    else:
        cls = UNDETERMINED
    return PairAnalysis(
        pair=subset,
        joint_drop=joint_drop,
        part_drops=parts,
        excess=excess,
        ratio=ratio,
        classification=cls,
        significant=joint_sig,
    )


def _ledger_entry(evaluator: SubsetEvaluator, subset: tuple) -> SubsetLedgerEntry:
    k = len(subset)
    cols = evaluator.response.cardinality
    if math.prod(evaluator.covariates[f].cardinality for f in subset) * cols > CELL_BUDGET:
        return SubsetLedgerEntry(subset, k, table_cols=cols)
    table = evaluator.table(subset)
    ce = evaluator.ce(subset)
    ce_drop = evaluator.reference_band(k).mean - ce
    sce = ce_drop
    if k >= 2:
        # the best proper subset: the (k-1)-subset of lowest CE
        rest = min(itertools.combinations(subset, k - 1), key=evaluator.ce)
        sce = evaluator.ce(rest) - ce
    reliable = table.avg_cell_count >= evaluator.config.cell_floor
    c1, sce_star, synthetic = None, None, False
    if reliable:
        c1 = evaluator.mi_verdict(subset)
        if k >= 2:
            # effect of the member the best proper subset leaves out, at the
            # subset's own dimension
            (added,) = set(subset) - set(rest)
            sce_star, synthetic = sce_star_drop(evaluator, subset, added)
    return SubsetLedgerEntry(
        subset=subset,
        order=k,
        ce=ce,
        ce_drop=ce_drop,
        sce_drop=sce,
        sce_star_drop=sce_star,
        table_rows=table.rows,
        table_cols=table.cols,
        avg_cell=table.avg_cell_count,
        reliable=reliable,
        c1=c1,
        synthetic_noise=synthetic,
    )


def _map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, spread over ``threads`` worker threads."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def build_ledger(evaluator: SubsetEvaluator) -> list[SubsetLedgerEntry]:
    """Evaluate every subset up to ``config.max_order``; sorted by CE within each order.

    Subsets whose estimated table size exceeds the cell budget are listed
    but marked unreliable rather than evaluated.
    """
    config = evaluator.config
    subsets = enumerate_subsets(sorted(evaluator.covariates), config.max_order)
    entries = _map(lambda s: _ledger_entry(evaluator, s), subsets, config.threads)
    entries.sort(key=lambda e: (e.order, e.ce if np.isfinite(e.ce) else np.inf))
    return entries


def ledger_to_tsv(entries) -> str:
    lines = [
        "order\tsubset\tce\tce_drop\tsce_drop\tsce_star_drop\trows\tavg_cell\tc1_status"
    ]
    for e in entries:
        star = "" if e.sce_star_drop is None else f"{e.sce_star_drop:.6f}"
        status = "unreliable" if e.c1 is None else e.c1.status
        lines.append(
            f"{e.order}\t{'_'.join(str(f) for f in e.subset)}\t{e.ce:.6f}\t"
            f"{e.ce_drop:.6f}\t{e.sce_drop:.6f}\t{star}\t{e.table_rows}\t"
            f"{e.avg_cell:.4f}\t{status}"
        )
    return "\n".join(lines) + "\n"


def _maximal_coexistent_sets(candidates, conflicts) -> list[tuple]:
    """All maximal candidate subsets containing no conflicting pair.

    They are the maximal cliques of the compatibility graph (two candidates
    are joined unless they conflict), found by Bron-Kerbosch with pivoting.
    Larger sets come first, and sets of one size in the order
    ``itertools.combinations`` gives their candidate positions.
    """
    candidates = list(candidates)
    compatible = [
        {j for j, b in enumerate(candidates) if j != i and frozenset((a, b)) not in conflicts}
        for i, a in enumerate(candidates)
    ]
    cliques = []

    def extend(clique, pool, done):
        if not pool and not done:
            cliques.append(tuple(sorted(clique)))
            return
        pivot = max(pool | done, key=lambda u: len(pool & compatible[u]))
        for v in pool - compatible[pivot]:
            extend(clique + [v], pool & compatible[v], done & compatible[v])
            pool = pool - {v}
            done = done | {v}

    if candidates:
        extend([], set(range(len(candidates))), set())
    cliques.sort(key=lambda c: (-len(c), c))
    return [tuple(candidates[i] for i in c) for c in cliques]


def select_major_factors(evaluator: SubsetEvaluator) -> MajorFactorReport:
    """Assemble the major-factor report from singleton gates and pair analyses.

    Order-1 candidates must clear the confirmability test and sit below the
    dimension-1 noise reference band.  Pairs classified as interactions
    become order-2 factors; non-coexistent pairs split the candidates into
    a chief collection (largest total drop) and alternative collections,
    the latter augmented with dependence-linked partners.
    """
    config = evaluator.config
    noise = set(config.noise_features)
    features = [f for f in sorted(evaluator.covariates) if f not in noise]
    pairs = list(itertools.combinations(features, 2)) if config.max_order >= 2 else []
    verdicts = _map(lambda f: evaluator.mi_verdict((f,)), features, config.threads)
    pair_analyses = _map(lambda p: classify_subset(evaluator, p), pairs, config.threads)
    ref1 = evaluator.reference_band(1)

    candidates = []
    excluded = []
    drops = {}
    for f, verdict in zip(features, verdicts):
        ce = evaluator.ce((f,))
        drops[f] = ref1.mean - ce
        if verdict.status == "confirmed" and ce < ref1.q025 - CANDIDATE_MARGIN:
            candidates.append(f)
        else:
            excluded.append(((f,), "not confirmed as order-1"))

    conflicts = set()
    links: dict = {}
    interactions = []
    for (a, b), analysis in zip(pairs, pair_analyses):
        if analysis.classification == INTERACTION:
            interactions.append((a, b))
        elif analysis.classification == NON_COEXISTENT:
            if a in candidates and b in candidates:
                conflicts.add(frozenset((a, b)))
        elif analysis.classification == DEPENDENCE_LINK:
            for member, partner in ((a, b), (b, a)):
                if member in candidates and partner not in candidates:
                    links.setdefault(member, set()).add(partner)

    coexistent = _maximal_coexistent_sets(candidates, conflicts)
    if coexistent:
        chief = max(
            coexistent, key=lambda s: (sum(drops[f] for f in s), tuple(sorted(s)))
        )
    else:
        chief = ()
    alternatives = []
    for s in coexistent:
        if set(s) == set(chief):
            continue
        augmented = set(s)
        for member in s:
            augmented |= links.get(member, set())
        alternatives.append(tuple(sorted(augmented, key=str)))

    confirmed = [((f,), 1, "order-1 major factor") for f in sorted(chief, key=str)]
    for pair in interactions:
        confirmed.append((pair, 2, "order-2 major factor (interaction)"))

    return MajorFactorReport(
        confirmed=confirmed,
        chief_collection=tuple(sorted(chief, key=str)),
        alternative_collections=alternatives,
        pair_analyses=pair_analyses,
        excluded=excluded,
    )


@dataclass(frozen=True)
class GridCell:
    """One (response bins, covariate bins) cell of the consistency grid."""

    y_bins: int
    x_bins: int
    report: object
    band: NullBand
    verdict: C1Verdict


def mi_grid(
    y_values,
    x_values,
    y_bins_ladder,
    x_bins_ladder,
    n_replicates: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> list[GridCell]:
    """Mutual information and its null band over a ladder of K-means categorizations.

    Consistent confirmation across cells is the inference the grid supports;
    each cell's clustering and null stream derive deterministically from the
    seed, so the grid is reproducible at any thread count.
    """
    y_bins_ladder = list(y_bins_ladder)
    x_bins_ladder = list(x_bins_ladder)
    if not y_bins_ladder or not x_bins_ladder:
        raise ValueError("empty bin ladder")
    y_cat = {
        ky: fuse_features(y_values, ky, seed=seed * 1009 + ky) for ky in y_bins_ladder
    }
    x_cat = {
        kx: fuse_features(x_values, kx, seed=seed * 2003 + kx) for kx in x_bins_ladder
    }

    def cell(pair):
        ky, kx = pair
        table = crosstab(x_cat[kx], y_cat[ky])
        verdict = mi_verdict(table, n_replicates, child_rng(seed, 2, ky, kx))
        return GridCell(ky, kx, entropy_report(table), verdict.band, verdict)

    pairs = [(ky, kx) for ky in y_bins_ladder for kx in x_bins_ladder]
    return _map(cell, pairs, threads)
