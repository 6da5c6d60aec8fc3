"""Independent oracles the tests compare the library against.

Nothing here shares code with the package: the spectral oracle is a
classical max-pivot Jacobi eigensolver on the full Gram matrix, the
k-means oracle enumerates set partitions outright, the matching oracle
tries every permutation, and the max-min oracle recomputes every distance
at every step. Some references do share package code, because they must
reproduce the package bit for bit. The d-space device solve composes the
package's own seeding, thresholding and Lloyd steps on projected d-space
rows; the subspace-coordinate device solve must match it. The per-restart
seeding draws each restart's k-means++ start one scalar draw at a time,
refines it with its own single-start Lloyd and picks the best restart as
``approx_seed`` does; the lockstep sampler and the stacked multi-start
solve must match it. The two-pass k-means cost takes the package's
``cluster_means`` and then gathers each cluster a second time, and the
masked cost gathers each cluster with a boolean mask; the one-gather
cost must match both. The exact-path lemma audit takes the
package's global fit, ``operator_norm`` and scaled mean-shift norms, so
that its bounds and norms are the package's to the bit; it differs only
in taking the exact norm on every device. The full-eigh projection is
the package's projection as it was before the certified block iteration
and the power-of-two scaling: the certified path must match it to working
precision, and the full-eigh fallback bit for bit. The partition-based
nearest labels are the package's certified kernel as it was with F laid
out (D, n, R·k), argmin and partition along the k entries: the kernel
that reduces along the k axis must decide alike, falling back on the
same center sets. The exact threshold is the package's threshold as it
was, on exact distances alone: the certified threshold must match it
bit for bit.

Every exact squared distance here comes from ``sequential_sq``, a plain
loop that adds each pair's squared differences one column at a time. The
package's one exact kernel must equal it bit for bit, so the single-start
Lloyd, the scalar sampler, the exact threshold and the partition-based
labels' fallback take it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from kfed import linalg, local, separation
from kfed.local import (DEFAULT_MAX_ITER, DEFAULT_TOL, Clustering, approx_seed,
                        cluster_means, lloyd_iterate, threshold_assign)
from kfed.rng import Stream


def jacobi_eigenvalues(sym: np.ndarray, max_rotations: int = 100_000) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by classical Jacobi rotations.

    Pivots on the largest off-diagonal entry each step, which is the
    textbook (slow, reliable) variant.
    """
    h = np.array(sym, dtype=float)
    m = h.shape[0]
    if m == 1:
        return h[0].copy()
    scale = np.linalg.norm(h) or 1.0
    mask = ~np.eye(m, dtype=bool)
    for _ in range(max_rotations):
        off = np.abs(np.where(mask, h, 0.0))
        p, q = np.unravel_index(off.argmax(), off.shape)
        if off[p, q] <= 1e-15 * scale:
            break
        theta = 0.5 * np.arctan2(2.0 * h[p, q], h[q, q] - h[p, p])
        c, s = np.cos(theta), np.sin(theta)
        rot = np.eye(m)
        rot[p, p] = rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        h = rot.T @ h @ rot
    return np.sort(np.diag(h))[::-1].copy()


def jacobi_spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value via Jacobi eigendecomposition of MᵀM."""
    mat = np.asarray(mat, dtype=float)
    values = jacobi_eigenvalues(mat.T @ mat)
    return float(np.sqrt(max(values[0], 0.0)))


def svd_truncation(mat: np.ndarray, k: int) -> np.ndarray:
    """Best rank-k approximation from a dense full SVD."""
    u, s, vt = np.linalg.svd(np.asarray(mat, dtype=float), full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def eigh_projection(mat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(coords, lift) of the top-k projection from one full ``np.linalg.eigh``
    of the smaller Gram matrix of the unscaled rows."""
    mat = np.asarray(mat, dtype=float)
    n, d = mat.shape
    if d <= n:
        basis = np.linalg.eigh(mat.T @ mat)[1][:, -k:]
        return mat @ basis, basis.T
    values, basis = np.linalg.eigh(mat @ mat.T)
    basis = basis[:, -k:]
    sigma = np.sqrt(np.clip(values[-k:], 0.0, None))
    sigma[sigma <= sigma[-1] * max(n, d) * np.finfo(float).eps] = 0.0
    inverse = np.divide(1.0, sigma, out=np.zeros(k), where=sigma > 0.0)
    return basis * sigma, inverse[:, None] * (basis.T @ mat)


def _canonical_labelings(n: int, k: int):
    """Label vectors in first-occurrence canonical form (covers all partitions)."""
    prefix = [0]

    def recurse(used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for label in range(min(used + 1, k)):
            prefix.append(label)
            yield from recurse(max(used, label + 1))
            prefix.pop()

    if n == 0:
        return
    yield from recurse(1)


def brute_force_kmeans(data: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Exact optimal k-means cost by enumerating every partition into <= k sets."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    labelings = np.array(list(_canonical_labelings(n, k)), dtype=np.int64)
    m = labelings.shape[0]
    onehot = np.zeros((m, n, k))
    onehot[np.arange(m)[:, None], np.arange(n)[None, :], labelings] = 1.0
    counts = onehot.sum(axis=1)
    sums = np.einsum("mnk,nd->mkd", onehot, data)
    reduction = np.where(counts > 0,
                         (sums ** 2).sum(axis=2) / np.maximum(counts, 1.0), 0.0)
    costs = float((data ** 2).sum()) - reduction.sum(axis=1)
    best = int(costs.argmin())
    return float(costs[best]), labelings[best]


def brute_force_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best agreement over every label permutation (feasible for small k)."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    k = int(max(pred.max(), truth.max())) + 1
    best = 0
    for perm in itertools.permutations(range(k)):
        table = np.array(perm)
        best = max(best, int((table[pred] == truth).sum()))
    return best / pred.shape[0]


def naive_kmeans_cost(data: np.ndarray, labels: np.ndarray) -> float:
    """Double-loop cost summation, no vectorized shortcuts."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    total = 0.0
    for r in sorted(set(labels.tolist())):
        rows = [i for i in range(len(labels)) if labels[i] == r]
        mean = sum(data[i] for i in rows) / len(rows)
        for i in rows:
            diff = data[i] - mean
            total += float(diff @ diff)
    return total


def masked_kmeans_cost(data: np.ndarray, labels: np.ndarray) -> float:
    """Cost cluster by cluster, each gathered with a boolean mask."""
    data = np.asarray(data, dtype=float)
    present, labels = np.unique(np.asarray(labels, dtype=int),
                                return_inverse=True)
    total = 0.0
    for r in range(present.size):
        block = data[labels == r]
        diff = block - block.mean(axis=0)
        total += float(np.einsum("nd,nd->", diff, diff))
    return total


def two_pass_kmeans_cost(data: np.ndarray, labels: np.ndarray) -> float:
    """Cost from ``cluster_means``, then a second gather of each cluster."""
    data = np.asarray(data, dtype=float)
    present, labels = np.unique(np.asarray(labels, dtype=int),
                                return_inverse=True)
    means, _ = cluster_means(data, labels, present.size)
    total = 0.0
    for r in range(present.size):
        diff = data[labels == r] - means[r]
        total += float(np.einsum("nd,nd->", diff, diff))
    return total


def greedy_max_min(uploads, k: int, start_device: int) -> list[tuple[int, int]]:
    """Greedy max-min seed selection, every distance recomputed each step.

    ``uploads`` is a list of (device_id, centers). Starts from all of the
    start device's centers and adds the point whose nearest chosen point
    is farthest; ties go to the smallest (device_id, local index).
    """
    points = sorted(((int(z), i), [float(x) for x in row])
                    for z, centers in uploads for i, row in enumerate(centers))
    coords = dict(points)
    chosen = [key for key, _ in points if key[0] == start_device]
    while len(chosen) < k:
        best, best_gap = None, -1.0
        for key, p in points:
            if key in chosen:
                continue
            gap = min(sum((a - b) ** 2 for a, b in zip(p, coords[c]))
                      for c in chosen)
            if gap > best_gap:
                best, best_gap = key, gap
        chosen.append(best)
    return chosen


def dspace_local_cluster(data: np.ndarray, k: int, seed, tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER
                         ) -> tuple[Clustering, int]:
    """Device solve that seeds and thresholds the projected rows in d-space.

    Projects through an eigendecomposition of the smaller Gram matrix,
    exactly as the package did before it moved seeding and thresholding to
    subspace coordinates. Returns (clustering, rows unassigned after
    thresholding).
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    rank = min(k, n, d)
    gram = data.T @ data if d <= n else data @ data.T
    basis = np.linalg.eigh(gram)[1][:, -rank:]
    if d <= n:
        projected = (data @ basis) @ basis.T
    else:
        projected = basis @ (basis.T @ data)
    seeded = approx_seed(projected, k, seed, tol=tol)
    labels, theta = threshold_assign(projected, seeded)
    clustering = lloyd_iterate(data, theta, tol, max_iter)
    return clustering, int(np.count_nonzero(labels == k))


def sequential_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances (len(a), len(b)) between the rows of ``a`` and
    ``b``: each pair's squared differences added one column at a time,
    left to right, from 0; inf, without a warning, beyond the float range."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    with np.errstate(over="ignore"):
        for j in range(a.shape[1]):
            diff = a[:, j, None] - b[None, :, j]
            out += diff * diff
    return out


def single_lloyd(data: np.ndarray, centers: np.ndarray, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER
                 ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Lloyd from one start, one masked mean per cluster per step.

    Returns (labels, centers, iterations, whether a cluster ever lost all
    its members). Ties go to the lowest index; an empty cluster keeps its
    center; it stops once no center moves by ``tol`` or more.
    """
    centers = np.array(centers, dtype=float)
    labels = np.zeros(data.shape[0], dtype=int)
    iteration, emptied = 0, False
    for iteration in range(1, max_iter + 1):
        labels = sequential_sq(data, centers).argmin(axis=1)
        updated = centers.copy()
        for r in range(centers.shape[0]):
            members = data[labels == r]
            if members.shape[0]:
                updated[r] = members.mean(axis=0)
            else:
                emptied = True
        shift = float(np.sqrt(((updated - centers) ** 2).sum(axis=1)).max())
        centers = updated
        if shift < tol:
            break
    return labels, centers, iteration, emptied


def scalar_dsq_sample(data: np.ndarray, k: int, stream: Stream) -> np.ndarray:
    """k-means++ seeding of one restart: D^2-weighted sampling of k rows.

    The first row comes from ``stream.integers(1, n)``; each later row from
    one ``stream.uniforms(1)`` draw, scaled by the total weight and looked
    up with ``searchsorted(side="right")`` in the cumulative weights.
    """
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[stream.integers(1, n)[0]]
    d2 = sequential_sq(data, centers[:1])[:, 0]
    for j in range(1, k):
        # All weights are zero once every distinct row has been chosen.
        if not d2.any():
            raise ValueError("insufficient distinct points")
        cdf = np.cumsum(d2)
        u = stream.uniforms(1)[0] * cdf[-1]
        centers[j] = data[min(int(np.searchsorted(cdf, u, side="right")), n - 1)]
        d2 = np.minimum(d2, sequential_sq(data, centers[j:j + 1])[:, 0])
    return centers


def dsq_starts(data: np.ndarray, k: int, seed: tuple) -> np.ndarray:
    """Every restart's start, (R, k, w): restart r samples ``Stream(*seed, r)``."""
    return np.stack([scalar_dsq_sample(data, k, Stream(*seed, restart))
                     for restart in range(local._SEED_RESTARTS)])


def per_restart_seed(data: np.ndarray, k: int, seed: tuple, tol: float = DEFAULT_TOL
                     ) -> tuple[np.ndarray, list[int]]:
    """``approx_seed`` run one restart at a time: (centers, collapsed restarts).

    The restarts' k-means++ starts come from ``dsq_starts`` (looked up at
    call time, so a test may patch it), and ``single_lloyd`` refines each.
    A restart whose refined centers repeat a row (``np.unique``) is
    skipped; the lowest cost wins, and a later restart replaces it only at
    a strictly lower cost.
    """
    data = np.asarray(data, dtype=float)
    if data.shape[0] < k:
        raise ValueError("insufficient distinct points")
    best_cost, best, collapsed = np.inf, None, []
    for restart, start in enumerate(dsq_starts(data, k, seed)):
        labels, centers, _, _ = single_lloyd(data, start, tol)
        if np.unique(centers, axis=0).shape[0] < k:
            collapsed.append(restart)
            continue
        diff = data - centers[labels]
        cost = float(np.einsum("nd,nd->", diff, diff))
        if cost < best_cost:
            best_cost, best = cost, centers
    if best is None:
        raise ValueError("seeding collapsed on every restart")
    return best, collapsed


def exact_lemma_audit(data: np.ndarray, clustering: Clustering,
                      partition) -> separation.LemmaAudit:
    """``lemma_audit`` with an exact ``operator_norm`` on every device.

    No Frobenius certificate: every device's residual norm is the
    eigensolve. Mean shifts take the audit's power-of-two scaled row norms.
    A bound counts as violated beyond the smaller of 1e-9 and 1e-12 times the
    larger of the bound and the centers' scale, the power of two that
    ``_fit_target`` scales them by. ``separation.operator_norm`` is looked
    up at call time, so a test that patches it patches this audit too.
    """
    data, labels, centers, _, op, _, exponent = separation._fit_target(
        data, clustering)
    scale = 2.0 ** min(exponent, 64)   # capped: 1e-12 * 2^40 exceeds 1e-9
    k = clustering.k

    audit = separation.LemmaAudit(mean_shift_checks=0, norm_change_checks=0)
    for z, rows in enumerate(partition.device_rows):
        if rows.size == 0:
            continue
        local_labels = labels[rows]
        local_data = data[rows]
        local_means, local_sizes = cluster_means(local_data, local_labels, k)
        present = np.flatnonzero(local_sizes)
        shifts = separation._row_norms(local_means[present] - centers[present])
        for r, lhs in zip(present, shifts.tolist()):
            rhs = op / math.sqrt(local_sizes[r])
            audit.mean_shift_checks += 1
            if lhs > rhs + min(1e-9, 1e-12 * max(rhs, scale)):
                audit.violations.append({
                    "kind": "mean_shift", "device": z, "cluster": int(r),
                    "lhs": lhs, "rhs": rhs,
                })
        lhs = separation.operator_norm(local_data - local_means[local_labels])
        rhs = 2.0 * math.sqrt(present.size) * op
        audit.norm_change_checks += 1
        if lhs > rhs + min(1e-9, 1e-12 * max(rhs, scale)):
            audit.violations.append({
                "kind": "norm_change", "device": z, "cluster": None,
                "lhs": lhs, "rhs": rhs,
            })
    return audit


def partition_nearest_each(a: np.ndarray, centers: np.ndarray, a_sq: np.ndarray
                           ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Nearest-center labels (D, R, n) from one (D, n, R·k) product, and the
    (matrix, set) pairs that took exact distances: each set takes F's
    argmin where its two smallest entries (``partition``) differ by more
    than the rounding bound on every row and F is finite; any other set
    takes the argmin of ``sequential_sq``."""
    devices, runs, k, width = centers.shape
    n = a.shape[1]
    flat = centers.reshape(devices, runs * k, width)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        c_sq = np.einsum("mkd,mkd->mk", flat, flat)
        f = linalg._product_sq(a, flat, a_sq, c_sq).reshape(devices, n, runs, k)
        labels = f.argmin(axis=3).transpose(0, 2, 1)
        tau = linalg._rounding_bound(
            np.sqrt(a_sq)[:, :, None],
            np.sqrt(c_sq.reshape(devices, runs, k).max(axis=2))[:, None, :], width)
        finite = np.isfinite(f).all(axis=(1, 3))
        gap = np.inf
        if k > 1:
            f.partition(1, axis=3)
            gap = f[..., 1] - f[..., 0]
        settled = finite & (gap > tau).all(axis=1)
    fallen = [(int(m), int(r)) for m, r in zip(*np.nonzero(~settled))]
    for m, r in fallen:
        labels[m, r] = sequential_sq(a[m], centers[m, r]).argmin(axis=1)
    return labels, fallen


def exact_threshold(data: np.ndarray, centers: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Set labels (D, n) and set means (D, k, w) of a stack ``data``
    (D, n, w) against distinct ``centers`` (D, k, w) by the three-times
    rule on ``sequential_sq``, one device at a time."""
    devices, n, width = data.shape
    k = centers.shape[1]
    dist = np.empty((devices, n, k))
    for m in range(devices):
        dist[m] = sequential_sq(data[m], centers[m])
    np.sqrt(dist, out=dist)
    nearest = dist.argmin(axis=2)
    at = (np.arange(devices)[:, None], np.arange(n), nearest)
    d_near = dist[at]
    dist[at] = np.inf
    keep = 3.0 * d_near <= dist.min(axis=2)
    labels = np.where(keep, nearest, k)
    owner = np.arange(devices)[:, None] * k
    means, sizes = cluster_means(data[keep], (nearest + owner)[keep], devices * k)
    theta = np.where(sizes[:, None] > 0, means,
                     centers.reshape(-1, width)).reshape(centers.shape)
    return labels, theta
