"""Device-local clustering: spectral projection, seeding, thresholding, Lloyd.

The pipeline run on each device is: project the local data onto its top-k
singular subspace, seed k centers on the projected rows, keep only points
that are at least three times closer to their nearest center than to every
other center, average those sets, then run plain Lloyd iterations on the
original (unprojected) rows until the centers stop moving.

Seeding and thresholding work on the rows' k-dimensional coordinates in an
orthonormal basis of that subspace, not on the projected rows in d-space.
Distances agree in exact arithmetic, so the result is the same while the
cost no longer grows with d. The averaged centers are lifted back to
d-space once, to start the final Lloyd.

The seeding restarts draw their k-means++ starts in lockstep, over one
table of distances. One Lloyd loop serves both the seeding restarts and
the final solve: it takes a stack of starts, iterates them together (each
stops at its own convergence step), and takes every step's means in one
``cluster_means`` call, which on these narrow rows is a single
``np.bincount``. Each step labels all its active starts from one
certified matrix product (``linalg._nearest_each``); a start with a row
that the rounding bound cannot settle takes its labels from the exact
``_sq_distances`` instead, so every label and tie-break is that exact
kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _nearest_each, top_k_projection, validate_matrix
from .rng import Stream

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 500
_SEED_RESTARTS = 5


@dataclass
class Clustering:
    """A disjoint partition of rows into k clusters with per-cluster centers."""

    assignment: np.ndarray  # (n,) ints in [0, k)
    centers: np.ndarray     # (k, d)
    k: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    def members(self, r: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == r)

    @classmethod
    def from_labels(cls, data: np.ndarray, labels: np.ndarray, k: int) -> "Clustering":
        """Build a clustering from a label vector, centers = cluster means.

        A label in [0, k) that does not occur is an error.
        """
        labels = np.asarray(labels, dtype=int)
        centers, sizes = cluster_means(np.asarray(data, dtype=float), labels, k)
        if not sizes.all():
            raise ValueError(f"cluster {int(sizes.argmin())} has no members")
        return cls(assignment=labels, centers=centers, k=k)


def cluster_means(data: np.ndarray, labels: np.ndarray, k: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster means and sizes of ``data`` rows under ``labels`` in [0, k).

    Mean r is exactly ``data[labels == r].mean(axis=0)``; NaN if r is absent.
    For widths 2..k one weighted ``np.bincount`` sums every (cluster,
    column) bin in row order, as that mean does. Width 1 keeps the masked
    loop, because numpy sums a single column pairwise, and so does a width
    above k (raw d-space rows), where the loop is faster.
    """
    sizes = np.bincount(labels, minlength=k)
    width = data.shape[1]
    if 1 < width <= k:
        bins = (labels[:, None] * width + np.arange(width)).ravel()
        sums = np.bincount(bins, weights=data.ravel(), minlength=k * width)
        with np.errstate(invalid="ignore"):  # 0/0 is the NaN of an absent r
            return sums.reshape(k, width) / sizes[:, None], sizes
    means = np.full((k, width), np.nan)
    for r in np.flatnonzero(sizes):
        means[r] = data[labels == r].mean(axis=0)
    return means, sizes


@dataclass
class LocalResult:
    """Output of one device solve: final clusters plus solver telemetry."""

    clusters: Clustering
    unassigned_after_threshold: int
    lloyd_iterations: int

    @property
    def centers(self) -> np.ndarray:
        return self.clusters.centers


def _sq_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances, (n, k), as the broadcast difference block gives them.

    Not ``linalg.pairwise_distances``: this einsum sum of squares rounds
    differently from ``np.linalg.norm``, and Lloyd's argmin and
    ``threshold_assign``'s three-times test depend on those last bits.
    On rows no wider than k (the seeding coordinates) it is
    ``einsum("nkd,nkd->nk")`` over the (n, k, w) block, which is faster
    there than a loop. On wider rows it takes one center at a time: the
    difference goes into one reused (n, w) buffer laid out like ``data``,
    and ``einsum("nd,nd->n")`` adds the same products in the same order as
    the block would, without ever holding the block. Lloyd, on the seeding
    coordinates and on the raw rows alike, calls it only as
    ``linalg._nearest_each``'s exact fallback for one start: its labels
    come from a certified matrix product wherever a rounding bound settles
    them.
    """
    n, width = data.shape
    k = centers.shape[0]
    if width <= k:
        diff = data[:, None, :] - centers[None, :, :]
        return np.einsum("nkd,nkd->nk", diff, diff)
    dist = np.empty((n, k))
    diff = np.empty_like(data)
    for j, center in enumerate(centers):
        np.subtract(data, center, out=diff)
        dist[:, j] = np.einsum("nd,nd->n", diff, diff)
    return dist


def _assignment_cost(data: np.ndarray, labels: np.ndarray,
                     centers: np.ndarray) -> float:
    diff = data - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def _lloyd(data: np.ndarray, starts: np.ndarray, tol: float, max_iter: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations from each of R (k, w) starts, all run together.

    Returns labels (R, n), centers (R, k, w) and iterations (R,). Each
    start follows exactly the path it would follow alone and stops at its
    own step, once its largest center shift drops below ``tol``.
    Nearest-center ties go to the lowest cluster index. A cluster that
    loses all members keeps its previous center. The returned centers are
    exactly the means of the returned assignment (for nonempty clusters).

    A start whose labels repeat the previous step's stops at that step
    without taking means: they would equal its centers bit for bit, so its
    shift is exactly 0. That holds for finite centers and a positive
    ``tol``; otherwise the start takes the step as usual. The means of the
    starts that moved come from one ``cluster_means`` call, start j's
    clusters numbered from j*k over a stacked copy of the rows (the rows
    themselves when there is only one start). Every step's labels, for all
    active starts, come from ``linalg._nearest_each``: one certified
    product, with ``_sq_distances`` for a start it cannot settle.

    A step whose shift is NaN (a cluster mean that overflowed to inf, so
    that no shift could ever drop below ``tol``) raises ``ValueError``.
    """
    centers = np.array(starts, dtype=float)
    runs, k, width = centers.shape
    n = data.shape[0]
    data_sq = np.einsum("nd,nd->n", data, data)
    stacked = np.tile(data, (runs, 1)) if runs > 1 else data
    labels = np.zeros((runs, n), dtype=int)
    iterations = np.zeros(runs, dtype=int)
    active = np.arange(runs)
    for step in range(1, max_iter + 1):
        if not active.size:
            break
        iterations[active] = step
        nearest = _nearest_each(data, centers[active], _sq_distances, data_sq)
        moved = active
        if step > 1 and 0.0 < tol:
            repeat = ((nearest == labels[active]).all(axis=1)
                      & np.isfinite(centers[active]).all(axis=(1, 2)))
            moved, nearest = active[~repeat], nearest[~repeat]
        if not moved.size:
            break
        labels[moved] = nearest
        offsets = np.arange(moved.size)[:, None] * k
        means, sizes = cluster_means(stacked[:moved.size * n],
                                     (labels[moved] + offsets).ravel(),
                                     moved.size * k)
        current = centers[moved]
        updated = np.where(sizes.reshape(-1, k, 1) > 0,
                           means.reshape(current.shape), current)
        shift = np.sqrt(((updated - current) ** 2).sum(axis=2)).max(axis=1)
        if np.isnan(shift).any():
            raise ValueError("Lloyd center shift is NaN: a center is not finite")
        centers[moved] = updated
        active = moved[~(shift < tol)]
    return labels, centers, iterations


def lloyd_iterate(data: np.ndarray, centers: np.ndarray, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> Clustering:
    """Run Lloyd steps from ``centers`` until movement drops below ``tol``.

    Raises ``ValueError`` once a center's shift is NaN (a non-finite center).
    """
    data = validate_matrix(data, "data")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("need at least one initial center")
    labels, final, _ = _lloyd(data, centers[None], tol, max_iter)
    return Clustering(assignment=labels[0], centers=final[0], k=centers.shape[0])


def _has_equal_rows(centers: np.ndarray) -> np.ndarray:
    """Whether each (k, w) matrix in ``centers`` (..., k, w) repeats a row.

    Rows compare by exact float equality, so -0.0 equals 0.0; on finite
    centers this agrees with counting fewer than k distinct rows.
    """
    equal = (centers[..., :, None, :] == centers[..., None, :, :]).all(axis=-1)
    return np.triu(equal, 1).any(axis=(-2, -1))


def _dsq_sample(data: np.ndarray, k: int, seed: tuple) -> np.ndarray:
    """k-means++ starts for every seeding restart: (R, k, w) D^2-sampled rows.

    Restart r draws from ``Stream(*seed, r)``: its first uniform picks the
    first row, as ``integers(1, n)`` would, and each later one serves one
    D^2 step. One ``uniforms(k)`` call yields the values that k one-value
    calls would, since Philox's raw stream does not depend on how it is
    chunked. The restarts step together over one (R, n) table of squared
    distances to their nearest chosen row; the (R, n, w) differences keep
    ``data``'s memory layout, so each row's squares add in the order one
    restart's (n, w) differences would. A step picks, per restart, the
    number of cumulative weights not above u times their total: that is
    ``searchsorted(cdf, u, side="right")`` on the nondecreasing cdf,
    capped at n-1.
    """
    n = data.shape[0]
    draws = np.stack([Stream(*seed, r).uniforms(k) for r in range(_SEED_RESTARTS)])
    picks = np.empty((_SEED_RESTARTS, k), dtype=np.int64)
    picks[:, 0] = np.minimum((draws[:, 0] * n).astype(np.int64), n - 1)
    d2 = ((data - data[picks[:, 0], None]) ** 2).sum(axis=2)
    for j in range(1, k):
        # All weights are zero once every distinct row has been chosen.
        if not d2.any(axis=1).all():
            raise ValueError("insufficient distinct points")
        cdf = np.cumsum(d2, axis=1)
        u = draws[:, j] * cdf[:, -1]
        picks[:, j] = np.minimum(n - np.count_nonzero(cdf > u[:, None], axis=1),
                                 n - 1)
        d2 = np.minimum(d2, ((data - data[picks[:, j], None]) ** 2).sum(axis=2))
    return data[picks]


def approx_seed(projected, k: int, seed, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Estimate k centers on the projected rows (or their subspace coordinates).

    k-means++ seeding refined by Lloyd, best cost over seeded restarts.
    Restarts whose refined centers collapse (two equal rows) are skipped.
    Comfortably within the 10x-of-optimal budget the pipeline assumes;
    tests enforce that factor against an exhaustive oracle at small sizes.
    """
    data = validate_matrix(projected)
    if not isinstance(seed, tuple):
        seed = (int(seed),)
    if k < 1:
        raise ValueError("k must be at least 1")
    if data.shape[0] < k:
        raise ValueError("insufficient distinct points")
    labels, refined, _ = _lloyd(data, _dsq_sample(data, k, seed), tol,
                                DEFAULT_MAX_ITER)
    best_cost = np.inf
    best_centers: np.ndarray | None = None
    for restart in np.flatnonzero(~_has_equal_rows(refined)):
        cost = _assignment_cost(data, labels[restart], refined[restart])
        if cost < best_cost:
            best_cost = cost
            best_centers = refined[restart]
    if best_centers is None:
        raise ValueError("seeding collapsed on every restart")
    return best_centers


def threshold_assign(projected, centers: np.ndarray
                     ) -> tuple[list[np.ndarray], np.ndarray]:
    """Keep points decisively closest to one center; average what remains.

    Row i lands in set r when its distance to center r is at most a third
    of its distance to every other center. The sets are pairwise disjoint;
    a point near the midpoint of two centers lands in none. Empty sets
    fall back to the input center so all k centers stay alive.
    """
    data = validate_matrix(projected)
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    if _has_equal_rows(centers):
        raise ValueError("centers must be distinct")
    dist = np.sqrt(_sq_distances(data, centers))
    nearest = dist.argmin(axis=1)
    rows = np.arange(data.shape[0])
    d_near = dist[rows, nearest]
    rest = dist.copy()
    rest[rows, nearest] = np.inf
    keep = 3.0 * d_near <= rest.min(axis=1)
    sets = [np.flatnonzero(keep & (nearest == r)) for r in range(k)]
    means, sizes = cluster_means(data[keep], nearest[keep], k)
    return sets, np.where(sizes[:, None] > 0, means, centers)


def local_cluster(data: np.ndarray, k: int, seed,
                  tol: float = DEFAULT_TOL) -> LocalResult:
    """Full device solve: project, seed, threshold, then Lloyd on raw rows.

    Seeding and thresholding run in the top-k subspace coordinates; the
    thresholded centers are lifted to d-space to start Lloyd.
    """
    data = validate_matrix(data, "device data")
    if k < 1:
        raise ValueError("k must be at least 1")
    if data.shape[0] < k:
        raise ValueError("insufficient distinct points")
    k_eff = min(k, min(data.shape))
    coords, lift = top_k_projection(data, k_eff)
    seeded = approx_seed(coords, k, seed, tol=tol)
    sets, theta = threshold_assign(coords, seeded)
    labels, centers, iterations = _lloyd(data, (theta @ lift)[None], tol,
                                         DEFAULT_MAX_ITER)
    unassigned = data.shape[0] - sum(s.size for s in sets)
    return LocalResult(clusters=Clustering(assignment=labels[0],
                                           centers=centers[0], k=k),
                       unassigned_after_threshold=unassigned,
                       lloyd_iterations=int(iterations[0]))
