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
from dataclasses import dataclass, field

import numpy as np

from ceda.tabulate import CategoricalSeries, conditional_entropy, crosstab
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
# A subset whose full table would exceed this many cells is neither evaluated nor classified.
CELL_BUDGET = 2_000_000
# The most covariate subsets a ledger may list, refused before any subset is built. A
# subset over CELL_BUDGET is listed without a table and still costs about 600 bytes and
# 7 us (2**21 subsets: 1.2 GiB, 14 s, x86-64), so 10**7 need about 6 GB to list alone.
SUBSET_BUDGET = 10_000_000


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
    """One covariate subset's conditional-entropy bookkeeping; defaults leave it unevaluated.

    ``c1`` is None exactly when the subset is unreliable: over ``CELL_BUDGET``
    or sparser than the cell floor.
    """

    subset: tuple
    order: int
    ce: float = math.nan
    ce_drop: float = math.nan
    sce_drop: float = math.nan
    sce_star_drop: float | None = None
    table_rows: int = 0
    avg_cell: float = 0.0
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
    """The chief and alternative collections, the interaction pairs and every pair's analysis."""

    chief_collection: tuple
    alternative_collections: list
    interactions: list
    pair_analyses: list


def enumerate_subsets(features, max_order: int) -> list[tuple]:
    """All subsets of size 1..max_order in (size, lexicographic) order."""
    features = list(features)
    check_subset_budget(len(features), max_order)
    out = []
    for k in range(1, max_order + 1):
        out.extend(itertools.combinations(features, k))
    return out


def check_subset_budget(n_features: int, max_order: int):
    """Raise ``ValueError`` unless 1 <= max_order <= n_features and the subsets of
    1..max_order features fit ``SUBSET_BUDGET``.

    The count, the sum of C(n_features, k) over k, is judged before any subset is built.
    """
    if not 1 <= max_order <= n_features:
        raise ValueError(f"max order {max_order} is outside 1..{n_features} (the feature count)")
    count = sum(math.comb(n_features, k) for k in range(1, max_order + 1))
    if count > SUBSET_BUDGET:
        raise ValueError(
            f"{count} subsets of 1 to {max_order} of {n_features} features exceed "
            f"the subset budget ({SUBSET_BUDGET})"
        )


def check_noise_features(noise_features, covariates):
    """Raise ``ValueError`` when a designated noise feature is not a covariate."""
    unknown = [f for f in noise_features if f not in covariates]
    if unknown:
        raise ValueError(f"noise features must be covariates, got {unknown}")


class _OnceCache:
    """Memo whose entries are computed once, however many threads ask.

    A thread that finds an entry being computed waits for it instead of
    computing it again.  Each key has its own lock, so different keys are
    computed concurrently; an entry only ever waits on entries of a kind
    further down the order noise/verdict -> ce, so the locks cannot
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


@dataclass(frozen=True)
class TableSummary:
    """What a ledger row reads from a subset's table: its CE, occupied rows and mean cell count."""

    ce: float
    rows: int
    avg_cell: float


class SubsetEvaluator:
    """One run's categorized data, its config, and everything derived from them.

    Table summaries, C1 verdicts and noise levels depend only on the data,
    the config and keyed seeds, so each is computed once and memoised under
    ``(kind, key)``.  Tables are not memoised: ``table`` builds one on every
    call, and no table outlives the call that built it, so a run's memory
    does not grow with the tables of the subsets it evaluates.  A subset is
    a feature set: every method sorts the subset it is given before using it
    as a memo key, a stream tag or a fusion order, so the order it is named
    in changes nothing.  Safe to share between threads.
    """

    def __init__(self, covariates: dict, response: CategoricalSeries, config: ProtocolConfig):
        self.covariates = dict(covariates)
        self.response = response
        self.config = config
        self.n = len(response)
        self._memo = _OnceCache()

    def table(self, subset: tuple):
        """The subset's fused labels against the response, tabulated anew on every call."""
        series = [self.covariates[f] for f in sorted(subset)]
        fused = series[0] if len(series) == 1 else product_categories(series)
        return crosstab(fused, self.response)

    def summary(self, subset: tuple) -> TableSummary:
        subset = tuple(sorted(subset))

        def compute():
            table = self.table(subset)
            return TableSummary(conditional_entropy(table), table.rows, table.avg_cell_count)

        return self._memo.get(("ce", subset), compute)

    def ce(self, subset: tuple) -> float:
        return self.summary(subset).ce

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

    def mi_verdicts(self, subsets) -> list[C1Verdict]:
        """``mi_verdict`` of each subset, in order, spread over ``config.threads``."""
        return _map(self.mi_verdict, subsets, self.config.threads)

    def reference_band(self, k: int) -> NullBand:
        """Band of H[Y | k noise features]: the empty subset's noise level."""
        return self._noise_level((), k)[1]

    def padded_ce_samples(self, subset: tuple, target_order: int) -> np.ndarray:
        """Samples of H[Y | subset + noise padding] at dimension ``target_order``.

        The empty subset gives the samples behind ``reference_band(target_order)``.
        """
        return self._noise_level(subset, target_order)[0]

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
            check_noise_features(cfg.noise_features, self.covariates)
            noise = [f for f in cfg.noise_features if f not in subset]
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
                n_bins = max(c.cardinality for c in self.covariates.values())
                drawn = synthetic_ce_samples(base, self.response, pad, n_bins, replicates, rng)
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
    drop = float(evaluator.padded_ce_samples(rest, k).mean()) - evaluator.ce(subset)
    return drop, evaluator.drew_synthetic(rest, k)


def _over_budget(evaluator: SubsetEvaluator, subset: tuple) -> bool:
    """Whether the subset's full table would exceed ``CELL_BUDGET``, judged before it is built."""
    cells = math.prod(evaluator.covariates[f].cardinality for f in subset)
    return cells * evaluator.response.cardinality > CELL_BUDGET


def classify_subset(evaluator: SubsetEvaluator, subset: tuple) -> PairAnalysis:
    """Interaction / ecological / non-coexistence call at matched dimension.

    ``joint_drop`` and the per-feature ``part_drops`` are all measured
    against the size-k noise reference, so the comparison is scale-free.
    A subset over the cell budget, or whose table is sparser than the cell
    floor, is left undetermined.
    """
    config = evaluator.config
    k = len(subset)
    ref = evaluator.reference_band(k)
    if _over_budget(evaluator, subset) or evaluator.summary(subset).avg_cell < config.cell_floor:
        return PairAnalysis(pair=subset)
    ce_joint = evaluator.ce(subset)
    joint_drop = ref.mean - ce_joint
    joint_sig = ce_joint < ref.q025 - CANDIDATE_MARGIN
    parts = {}
    part_sig = {}
    for f in subset:
        padded = float(evaluator.padded_ce_samples((f,), k).mean())
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
    if _over_budget(evaluator, subset):
        return SubsetLedgerEntry(subset, k)
    summary = evaluator.summary(subset)
    ce = summary.ce
    ce_drop = evaluator.reference_band(k).mean - ce
    sce = ce_drop
    if k >= 2:
        # the best proper subset: the (k-1)-subset of lowest CE
        rest = min(itertools.combinations(subset, k - 1), key=evaluator.ce)
        sce = evaluator.ce(rest) - ce
    c1, sce_star, synthetic = None, None, False
    if summary.avg_cell >= evaluator.config.cell_floor:
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
        table_rows=summary.rows,
        avg_cell=summary.avg_cell,
        c1=c1,
        synthetic_noise=synthetic,
    )


def _map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, spread over ``threads`` worker threads."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so one thread loads no pool code

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def build_ledger(evaluator: SubsetEvaluator) -> list[SubsetLedgerEntry]:
    """Evaluate every subset up to ``config.max_order``; sorted by CE within each order.

    Subsets whose estimated table size exceeds the cell budget are listed
    unevaluated, with no [C1] verdict.
    """
    config = evaluator.config
    subsets = enumerate_subsets(sorted(evaluator.covariates), config.max_order)
    entries = _map(lambda s: _ledger_entry(evaluator, s), subsets, config.threads)
    entries.sort(key=lambda e: (e.order, e.ce if np.isfinite(e.ce) else np.inf))
    return entries


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

    Order-1 candidates are read from their ledger rows: a row must have a
    confirmed [C1] verdict (so it is reliable) and a CE below the
    dimension-1 noise reference band.  Pairs classified as interactions
    become order-2 factors; non-coexistent pairs split the candidates into
    a chief collection (largest total drop) and alternative collections,
    the latter augmented with dependence-linked partners.
    """
    config = evaluator.config
    noise = set(config.noise_features)
    features = [f for f in sorted(evaluator.covariates) if f not in noise]
    pairs = list(itertools.combinations(features, 2)) if config.max_order >= 2 else []
    rows = _map(lambda f: _ledger_entry(evaluator, (f,)), features, config.threads)
    pair_analyses = _map(lambda p: classify_subset(evaluator, p), pairs, config.threads)
    gate = evaluator.reference_band(1).q025 - CANDIDATE_MARGIN
    drops = {
        row.subset[0]: row.ce_drop
        for row in rows
        if row.c1 is not None and row.c1.status == "confirmed" and row.ce < gate
    }
    candidates = list(drops)

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

    return MajorFactorReport(
        chief_collection=tuple(sorted(chief, key=str)),
        alternative_collections=alternatives,
        interactions=interactions,
        pair_analyses=pair_analyses,
    )


@dataclass(frozen=True)
class GridCell:
    """One (response bins, covariate bins) cell of the consistency grid and its [C1] verdict."""

    y_bins: int
    x_bins: int
    verdict: C1Verdict


def mi_grid(
    y_values, x_values, y_bins_ladder, x_bins_ladder, config: ProtocolConfig
) -> list[GridCell]:
    """Mutual information and its null band over a ladder of K-means categorizations.

    Consistent confirmation across cells is the inference the grid supports;
    each cell's clustering and null stream derive deterministically from
    ``config.seed``, and its band draws ``config.replicates`` mimics, so the
    grid is reproducible at any ``config.threads``.
    """
    y_bins_ladder = list(y_bins_ladder)
    x_bins_ladder = list(x_bins_ladder)
    if not y_bins_ladder or not x_bins_ladder:
        raise ValueError("empty bin ladder")
    seed = config.seed
    y_cat = {
        ky: fuse_features(y_values, ky, seed=seed * 1009 + ky) for ky in y_bins_ladder
    }
    x_cat = {
        kx: fuse_features(x_values, kx, seed=seed * 2003 + kx) for kx in x_bins_ladder
    }

    def cell(pair):
        ky, kx = pair
        table = crosstab(x_cat[kx], y_cat[ky])
        return GridCell(ky, kx, mi_verdict(table, config.replicates, child_rng(seed, 2, ky, kx)))

    pairs = [(ky, kx) for ky in y_bins_ladder for kx in x_bins_ladder]
    return _map(cell, pairs, config.threads)
