"""Turn quantitative features into categorical series.

Two routes: 1+K+1 binning (K equal-width interior bins over the 5%-95%
quantile range plus two unbounded tail bins) for 1-D features, and Lloyd
K-means for 1-D or multi-D features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ceda.tabulate import CategoricalSeries, fuse_labels

__all__ = [
    "BinningScheme",
    "KMeansModel",
    "apply_bins",
    "fuse_features",
    "kmeans_fit",
    "product_categories",
    "quantile_bins",
]


@dataclass(frozen=True)
class BinningScheme:
    """1+K+1 binning: K+1 ascending cut points giving K+2 right-closed bins."""

    edges: np.ndarray
    low_q: float
    high_q: float
    k_interior: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        object.__setattr__(self, "edges", edges)
        if edges.size != self.k_interior + 1:
            raise ValueError("expected k_interior + 1 cut points")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly ascending")

    @property
    def n_bins(self) -> int:
        return self.k_interior + 2

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": self.edges.tolist(),
                "low_q": self.low_q,
                "high_q": self.high_q,
                "k_interior": self.k_interior,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BinningScheme":
        obj = json.loads(text)
        return cls(
            edges=np.asarray(obj["edges"], dtype=float),
            low_q=obj["low_q"],
            high_q=obj["high_q"],
            k_interior=obj["k_interior"],
        )


def quantile_bins(
    values,
    k_interior: int,
    low_q: float = 0.05,
    high_q: float = 0.95,
) -> BinningScheme:
    """Equal-width interior bins over the observed [low_q, high_q] quantile range.

    Quantiles use linear interpolation between order statistics.
    """
    values = np.asarray(values, dtype=float)
    if k_interior < 1:
        raise ValueError("k_interior must be >= 1")
    if not (0.0 < low_q < high_q < 1.0):
        raise ValueError("need 0 < low_q < high_q < 1")
    if values.size < k_interior + 2:
        raise ValueError("too few values for the requested bin count")
    lo, hi = np.quantile(values, [low_q, high_q])
    if not hi > lo:
        raise ValueError("degenerate feature: quantile range has zero width")
    edges = np.linspace(lo, hi, k_interior + 1)
    return BinningScheme(edges=edges, low_q=low_q, high_q=high_q, k_interior=k_interior)


def apply_bins(values, scheme: BinningScheme) -> CategoricalSeries:
    """Label each value with the index of its half-open bin (right-closed)."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValueError("NaN values cannot be binned")
    labels = np.searchsorted(scheme.edges, values, side="left")
    return CategoricalSeries(labels=labels, cardinality=scheme.n_bins)


@dataclass(frozen=True)
class KMeansModel:
    """Lloyd K-means fit: centroids, assignments and the final inertia."""

    centroids: np.ndarray
    assignments: CategoricalSeries
    inertia: float
    iterations_run: int
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps({"centroids": self.centroids.tolist(), "seed": self.seed})


def _nearest(points: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels and squared distances; ties go to the lowest index."""
    sq = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids**2).sum(axis=1)[None, :]
    )
    labels = np.argmin(sq, axis=1)
    d2 = np.maximum(sq[np.arange(points.shape[0]), labels], 0.0)
    return labels, d2


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
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


def kmeans_fit(
    points,
    k: int,
    seed: int | None = 0,
    max_iter: int = 300,
    rel_tol: float = 1e-6,
) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ start.

    Stops when the relative inertia improvement drops below ``rel_tol``.
    An emptied cluster is reseeded to the point farthest from its centroid.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n, d = points.shape
    if not np.isfinite(points).all():
        raise ValueError("non-finite coordinates")
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= number of points")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    labels, d2 = _nearest(points, centroids)
    inertia = float(d2.sum())
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sums = np.zeros((k, d))
        np.add.at(sums, labels, points)
        sizes = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        nonempty = sizes > 0
        centroids[nonempty] = sums[nonempty] / sizes[nonempty, None]
        for j in empty:
            far = int(np.argmax(d2))
            centroids[j] = points[far]
            d2[far] = 0.0
        labels, d2 = _nearest(points, centroids)
        new_inertia = float(d2.sum())
        if inertia > 0 and (inertia - new_inertia) / inertia < rel_tol:
            inertia = new_inertia
            break
        inertia = new_inertia
    assignments = CategoricalSeries(labels=labels, cardinality=k)
    return KMeansModel(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations_run=iterations,
        seed=seed,
    )


def fuse_features(
    matrix,
    k: int,
    seed: int | None = 0,
    sort_centroids: bool = False,
) -> CategoricalSeries:
    """Fuse a multi-D feature block into one categorical variable via K-means.

    With ``sort_centroids`` labels are reindexed by the centroids' first
    coordinate, so 1-D clusterings come out order-preserving.
    """
    model = kmeans_fit(matrix, k, seed=seed)
    labels = model.assignments.labels
    if sort_centroids:
        order = np.argsort(model.centroids[:, 0], kind="stable")
        remap = np.empty(k, dtype=np.int64)
        remap[order] = np.arange(k)
        labels = remap[labels]
    return CategoricalSeries(labels=labels, cardinality=k)


def product_categories(series_list) -> CategoricalSeries:
    """Combine several categorical series into one label per occupied tuple.

    Labels are the tuples' ranks in lexicographic order of the input labels
    (see ``ceda.tabulate.fuse_labels``); fusion never overflows, whatever
    the number of series or the product of their cardinalities.
    """
    ranks, keys = fuse_labels(series_list)
    return CategoricalSeries(labels=ranks, cardinality=keys.shape[0])
