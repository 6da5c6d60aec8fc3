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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import top_k_projection, validate_matrix
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
    """
    sizes = np.bincount(labels, minlength=k)
    means = np.full((k, data.shape[1]), np.nan)
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
    """Squared distances, (n, k), from the broadcast difference block.

    Not ``linalg.pairwise_distances``: this einsum sum of squares rounds
    differently from ``np.linalg.norm``, and Lloyd's argmin and
    ``threshold_assign``'s three-times test depend on those last bits.
    The (n, k, d) block stays small here: one device's rows against its
    own k centers, at most 160 x 8 x 300 doubles (3 MB) on the
    d=300/k=64 table1 shape.
    """
    diff = data[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _assignment_cost(data: np.ndarray, labels: np.ndarray,
                     centers: np.ndarray) -> float:
    diff = data - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def _lloyd(data: np.ndarray, centers: np.ndarray, tol: float,
           max_iter: int) -> tuple[Clustering, int]:
    """Lloyd iterations; returns (clustering, iterations).

    Nearest-center ties go to the lowest cluster index. A cluster that
    loses all members keeps its previous center. The returned centers are
    exactly the means of the returned assignment (for nonempty clusters).
    """
    centers = np.array(centers, dtype=float)
    k = centers.shape[0]
    labels = np.zeros(data.shape[0], dtype=int)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        labels = _sq_distances(data, centers).argmin(axis=1)
        means, sizes = cluster_means(data, labels, k)
        updated = np.where(sizes[:, None] > 0, means, centers)
        shift = float(np.sqrt(((updated - centers) ** 2).sum(axis=1)).max())
        centers = updated
        if shift < tol:
            break
    return Clustering(assignment=labels, centers=centers, k=k), iteration


def lloyd_iterate(data: np.ndarray, centers: np.ndarray, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> Clustering:
    """Run Lloyd steps from ``centers`` until movement drops below ``tol``."""
    data = validate_matrix(data, "data")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("need at least one initial center")
    clustering, _ = _lloyd(data, centers, tol, max_iter)
    return clustering


def _dsq_sample(data: np.ndarray, k: int, stream: Stream) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of k rows."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[stream.integers(1, n)[0]]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        # All weights are zero once every distinct row has been chosen.
        if not d2.any():
            raise ValueError("insufficient distinct points")
        idx = stream.choice_weighted(d2)
        centers[j] = data[idx]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


def approx_seed(projected, k: int, seed, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Estimate k centers on the projected rows (or their subspace coordinates).

    k-means++ seeding refined by Lloyd, best cost over seeded restarts.
    Comfortably within the 10x-of-optimal budget the pipeline assumes;
    tests enforce that factor against an exhaustive oracle at small sizes.
    """
    data = validate_matrix(projected)
    if not isinstance(seed, tuple):
        seed = (int(seed),)
    if data.shape[0] < k:
        raise ValueError("insufficient distinct points")
    best_cost = np.inf
    best_centers: np.ndarray | None = None
    for restart in range(_SEED_RESTARTS):
        stream = Stream(*seed, restart)
        seeded = _dsq_sample(data, k, stream)
        refined, _ = _lloyd(data, seeded, tol, DEFAULT_MAX_ITER)
        if np.unique(refined.centers, axis=0).shape[0] < k:
            continue  # degenerate restart; centers collapsed
        cost = _assignment_cost(data, refined.assignment, refined.centers)
        if cost < best_cost:
            best_cost = cost
            best_centers = refined.centers
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
    if np.unique(centers, axis=0).shape[0] < k:
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
    clustering, iterations = _lloyd(data, theta @ lift, tol, DEFAULT_MAX_ITER)
    unassigned = data.shape[0] - sum(s.size for s in sets)
    return LocalResult(clusters=clustering,
                       unassigned_after_threshold=unassigned,
                       lloyd_iterations=iterations)
