"""Turn quantitative features into categorical series.

Two routes: 1+K+1 binning (K equal-width interior bins over the 5%-95%
quantile range plus two unbounded tail bins) for 1-D features, and Lloyd
K-means for 1-D or multi-D features.

K-means on 1-D points sorts them once and labels them in each iteration by
cutting the sorted points at the midpoints between sorted centroids.  Points
close enough to a midpoint for rounding to matter are re-decided with the
multi-D path's own distance arithmetic, so the labels, centroids, inertia
and iteration count equal those of the full point-by-centroid distance
matrix bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ceda.tabulate import CategoricalSeries, fuse_labels

__all__ = [
    "BinningScheme",
    "KMeansModel",
    "apply_bins",
    "fuse_features",
    "kmeans_fit",
    "linear_quantile",
    "product_categories",
    "quantile_bins",
]


# The quantiles that bound the K interior bins of every 1+K+1 binning, real or
# synthetic; the two tail bins take the values outside them.
TAIL_QUANTILES = (0.05, 0.95)


def _check_scheme_params(k_interior, low_q, high_q):
    """Raise ``ValueError`` unless k_interior is an integer >= 1 and 0 < low_q < high_q < 1."""
    if isinstance(k_interior, bool) or not isinstance(k_interior, numbers.Integral):
        raise ValueError(f"k_interior must be an integer, got {k_interior!r}")
    if k_interior < 1:
        raise ValueError("k_interior must be >= 1")
    if not all(
        isinstance(q, numbers.Real) and not isinstance(q, bool) for q in (low_q, high_q)
    ) or not (0.0 < low_q < high_q < 1.0):
        raise ValueError("need 0 < low_q < high_q < 1")


@dataclass(frozen=True)
class BinningScheme:
    """1+K+1 binning: K+1 ascending cut points giving K+2 right-closed bins."""

    edges: np.ndarray
    low_q: float
    high_q: float
    k_interior: int

    def __post_init__(self):
        _check_scheme_params(self.k_interior, self.low_q, self.high_q)
        edges = np.asarray(self.edges, dtype=float)
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size != self.k_interior + 1:
            raise ValueError("expected a flat list of k_interior + 1 cut points")
        if not np.isfinite(edges).all():
            raise ValueError("cut points must be finite")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly ascending")

    @property
    def n_bins(self) -> int:
        return self.k_interior + 2

    def to_json_dict(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "low_q": self.low_q,
            "high_q": self.high_q,
            "k_interior": self.k_interior,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BinningScheme":
        return cls(
            edges=np.asarray(obj["edges"], dtype=float),
            low_q=obj["low_q"],
            high_q=obj["high_q"],
            k_interior=obj["k_interior"],
        )


def linear_quantile(values, q) -> np.ndarray:
    """``np.quantile(values, q, axis=-1)`` (method "linear"), bit for bit, from a sort.

    The order statistics come from ``np.sort`` along the last axis and are
    combined with numpy's own arithmetic: virtual index ``(n - 1) * q``, its
    floor and ceiling neighbours (both the last value at or past index
    n - 1), and ``_lerp``'s two branches, ``a + d*g`` for g < 0.5 and
    ``b - d*(1 - g)`` otherwise.  The values of the order statistics do not
    depend on how they are found, but a sort and numpy's partition may put a
    -0.0 and a +0.0 in either order; so where an order statistic used is
    zero, or a slice holds a NaN, the result is ``np.quantile``'s own.  The
    result has the shape of ``q`` followed by that of ``values`` without its
    last axis, as ``np.quantile``'s does.
    """
    values = np.asarray(values, dtype=float)
    q = np.asarray(q, dtype=float)
    n = values.shape[-1]
    ordered = np.sort(values, axis=-1)
    virtual = (n - 1) * q
    top = virtual >= n - 1
    below = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    # numpy takes the fraction from the lower index after its top clamp
    gamma = virtual - below
    shape = q.shape + values.shape[:-1]
    a = np.moveaxis(ordered[..., below.ravel()], -1, 0).reshape(shape)
    b = np.moveaxis(ordered[..., above.ravel()], -1, 0).reshape(shape)
    if not (a.all() and b.all()) or np.isnan(ordered[..., -1]).any():
        return np.quantile(values, q, axis=-1)
    gamma = gamma.reshape(q.shape + (1,) * (values.ndim - 1))
    d = b - a
    return np.where(gamma >= 0.5, b - d * (1 - gamma), a + d * gamma)


def quantile_bins(values, k_interior: int) -> BinningScheme:
    """Equal-width interior bins over the observed ``TAIL_QUANTILES`` range.

    Quantiles use linear interpolation between order statistics, taken from
    a sort with ``linear_quantile`` (numpy's "linear" rule, bit for bit).
    """
    values = np.asarray(values, dtype=float)
    low_q, high_q = TAIL_QUANTILES
    _check_scheme_params(k_interior, low_q, high_q)
    if values.size < k_interior + 2:
        raise ValueError("too few values for the requested bin count")
    lo, hi = linear_quantile(values, TAIL_QUANTILES)
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


def _distance_assign(points: np.ndarray):
    """``assign(centroids) -> (labels, d2)`` for ``points``: nearest centroids by distance matrix.

    The squared distances are ``p2 - 2p @ c.T + c2``, with ``2p`` and the
    points' squared norms ``p2`` computed once here and the matrix built in
    place by each call.  Labels are the rows' argmin (ties go to the lowest
    index) and ``d2`` their clamped entries.
    """
    two_p = 2.0 * points
    p2 = (points**2).sum(axis=1)[:, None]

    def assign(centroids: np.ndarray):
        sq = two_p @ centroids.T
        np.subtract(p2, sq, out=sq)
        sq += (centroids**2).sum(axis=1)
        labels = sq.argmin(axis=1)
        d2 = np.take_along_axis(sq, labels[:, None], axis=1)[:, 0]
        return labels, np.maximum(d2, 0.0, out=d2)

    return assign


def _nearest(points: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels and squared distances; ties go to the lowest index."""
    return _distance_assign(points)(centroids)


_EPS = np.finfo(float).eps / 2  # unit roundoff u
_TINY = np.finfo(float).smallest_subnormal


def _window_union(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The sorted positions in the union of the ranges ``[lo_j, hi_j)``, each once."""
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if not lo.size:
        return lo
    by_start = np.argsort(lo, kind="stable")
    lo, hi = lo[by_start], hi[by_start]
    # a range starts where the ranges before it end, if that is later
    reach = np.maximum.accumulate(hi)
    lo[1:] = np.maximum(lo[1:], reach[:-1])
    sizes = np.maximum(hi - lo, 0)
    ends = sizes.cumsum()
    return np.arange(ends[-1]) + np.repeat(lo - (ends - sizes), sizes)


def _sorted_nearest(x: np.ndarray):
    """``_nearest`` for the 1-D points ``x``, bit for bit: sort once, cut at midpoints.

    Returns ``assign(centroids) -> (labels, d2)``.  Between two adjacent
    sorted centroids a < b, every point below their midpoint m is nearer to a
    and every point above it nearer to b, so cutting the sorted points at the
    midpoints labels them all.  ``_nearest`` compares rounded distances
    q(x, c) = fl(fl(x*x) - fl(2x*c)) + fl(c*c) instead, and these can
    disagree with the exact order near a midpoint.

    Window: with S = max|x| + max|c|, each q(x, c) is within
    E = 3u(|x|+|c|)^2 + O(u^2) <= 6u*S^2 (plus 8 subnormal steps for
    underflow) of (x - c)^2, u being the unit roundoff.  The exact gap
    (x - b)^2 - (x - a)^2 = 2(b - a)(m - x), and any centroid beyond a or b
    is farther by at least as much, so ``argmin`` agrees with the exact
    order once 2(b - a)|m - x| > 2E, i.e. |m - x| > E / (b - a).  The window
    half-width 2E / (b - a) + 4u*S doubles that and absorbs the rounding of
    m, of b - a and of the window's own ends.  The points inside the windows
    (their union, found by binary search in the sorted points) go to
    ``_nearest`` itself, so its arithmetic decides ties and near-ties (the
    lowest index wins).  Coincident centroids (b - a = 0) or a bound that
    overflows give an infinite window: then every point goes to ``_nearest``.
    ``d2`` is ``_nearest``'s own expression for the chosen centroid.
    """
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    x_scale = max(abs(xs[0]), abs(xs[-1]))
    x2, two_x = x**2, 2.0 * x

    def assign(centroids: np.ndarray):
        c = centroids[:, 0]
        corder = np.argsort(c, kind="stable")
        cs = c[corder]
        # cs is sorted, so its largest magnitude is at one end
        scale = x_scale + max(abs(cs[0]), abs(cs[-1]))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = 6.0 * _EPS * scale * scale + 8.0 * _TINY
            half = 2.0 * bound / (cs[1:] - cs[:-1]) + 4.0 * _EPS * scale
        if not np.isfinite(half).all():
            return _nearest(x[:, None], centroids)
        mids = (cs[:-1] + cs[1:]) / 2.0
        cuts = np.concatenate(([0], xs.searchsorted(mids), [n]))
        labels = np.empty(n, dtype=corder.dtype)
        labels[order] = np.repeat(corder, cuts[1:] - cuts[:-1])
        near = order[
            _window_union(
                xs.searchsorted(mids - half, side="left"),
                xs.searchsorted(mids + half, side="right"),
            )
        ]
        if near.size:
            labels[near] = _nearest(x[near, None], centroids)[0]
        cl = c[labels]
        d2 = two_x * cl
        np.subtract(x2, d2, out=d2)
        cl *= cl
        d2 += cl
        return labels, np.maximum(d2, 0.0, out=d2)

    return assign


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each centroid a point drawn with probability ∝ its d², the rest uniform.

    A d²-weighted draw is ``rng.choice(n, p=d2 / total)``'s own arithmetic
    (a normalised cumulative sum searched with one ``rng.random()``), bit for
    bit and with the same generator state after it; only ``choice``'s
    re-validation of ``p`` is left out, as ``d2`` is finite and non-negative
    by construction.
    """
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
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[j] = points[idx]
        np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1), out=d2)
    return centroids


# A K-means fit stops at the first iteration that improves its inertia by a
# smaller share than this.
KMEANS_REL_TOL = 1e-6


def kmeans_fit(points, k: int, seed: int | None = 0, max_iter: int = 300) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ start.

    Stops when the relative inertia improvement drops below ``KMEANS_REL_TOL``, or
    when the centroids equal, bit for bit, those of ``p`` iterations before.
    Each iteration's centroids depend on the previous centroids alone, so
    from then on the fit repeats that cycle; it stops at the first iteration
    whose state is the one the ``max_iter``-th would end on (at once for a
    fixed point, ``p`` = 1).  Labels, centroids and inertia are those of the
    uncut loop; only ``iterations_run`` is smaller.  This stops fits whose
    inertia reaches 0 (no more clusters than distinct points), which the
    relative test cannot.
    An emptied cluster is reseeded to the point farthest from its centroid.

    Multi-D points are assigned with the full point-by-centroid distance
    matrix (``_distance_assign``, ``_nearest``'s arithmetic with the points'
    doubled coordinates and squared norms computed once per fit).  1-D
    points are sorted once and, in each iteration, cut at the sorted
    centroids' midpoints (``_sorted_nearest``); points close enough to a
    midpoint for rounding to matter are re-decided by ``_nearest``'s own
    arithmetic, so labels, centroids, inertia and iteration count are those
    of the distance-matrix path, bit for bit.  Cluster sums accumulate in
    record order on either path, and each centroid is its sum divided by
    its size.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n, d = points.shape
    if not np.isfinite(points).all():
        raise ValueError("non-finite coordinates")
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= number of points")

    if d == 1:
        assign = _sorted_nearest(points[:, 0])
    else:
        assign = _distance_assign(points)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    labels, d2 = assign(centroids)
    inertia = float(d2.sum())
    iterations = 0
    seen = {centroids.tobytes(): 0}
    for iterations in range(1, max_iter + 1):
        sums = np.column_stack(
            [np.bincount(labels, weights=column, minlength=k) for column in points.T]
        )
        sizes = np.bincount(labels, minlength=k)
        # an emptied cluster keeps its centroid until it is reseeded below
        np.divide(sums, sizes[:, None], out=centroids, where=sizes[:, None] > 0)
        for j in np.flatnonzero(sizes == 0):
            far = int(np.argmax(d2))
            centroids[j] = points[far]
            d2[far] = 0.0
        labels, d2 = assign(centroids)
        new_inertia = float(d2.sum())
        converged = inertia > 0 and (inertia - new_inertia) / inertia < KMEANS_REL_TOL
        inertia = new_inertia
        # centroids seen ``period`` iterations ago: the fit cycles from here
        period = iterations - seen.setdefault(centroids.tobytes(), iterations)
        if converged or (period and (max_iter - iterations) % period == 0):
            break
    assignments = CategoricalSeries(labels=labels, cardinality=k)
    return KMeansModel(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations_run=iterations,
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
    ranks, count = fuse_labels(series_list)
    return CategoricalSeries(labels=ranks, cardinality=count)
