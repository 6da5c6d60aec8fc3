"""Device-local clustering: spectral projection, seeding, thresholding, Lloyd.

The pipeline run on each device is: project the local data onto its top-k
singular subspace, seed k centers on the projected rows, keep only points
that are at least three times closer to their nearest center than to every
other center (``threshold_assign`` labels each row with its set, or with k
where it lands in none), average those sets, then run plain Lloyd
iterations on the original (unprojected) rows until the centers stop
moving.

Seeding and thresholding work on the rows' k-dimensional coordinates in an
orthonormal basis of that subspace, not on the projected rows in d-space.
Distances agree in exact arithmetic, so the result is the same while the
cost no longer grows with d. The averaged centers are lifted back to
d-space once, to start the final Lloyd.

Every stage after the projection decides on its inputs scaled once per
device by the power of two that brings that device's largest entry into
[0.5, 1) (``_stack``): the seeding on the coordinates, the threshold and
each Lloyd on the rows together with their centers, with ``tol`` scaled
alike. The scaling is exact bar entries 2^1022 below the largest, so
every decision is the one at scale 1, and no squared distance, sum of
them or center shift leaves the float range; each stage scales its
outputs back. The solve is scale-free: data at 2^±600 or 1e±200 gives
the scale-1 labels, and at a power of two the scale-1 centers times the
scale. The projection scales itself (``linalg.top_k_projection``).

The seeding restarts draw their k-means++ starts in lockstep, over one
table of distances that each step fills from one matrix product
(``_dsq_sample``): a restart keeps those picks only where the rounding
bound proves that the exact sampler (``_exact_dsq``) makes every one of
them, and takes that sampler's picks otherwise, so every start is the
exact sampler's bit for bit. One Lloyd loop serves both the seeding
restarts and the final solve: it takes a stack of starts, iterates them
together (each stops at its own convergence step), and takes every
step's means in one ``cluster_means`` call, which on these narrow rows
is a single ``np.bincount``. Each step labels every start from one
certified matrix product (``linalg._nearest_each``); a start with a row
that the rounding bound cannot settle takes its labels from the one exact
kernel, ``linalg._exact_sq``, instead, so every label and tie-break is
that kernel's. The threshold is certified from one such product per
device in the same way: a device with a row whose set the bound cannot
prove runs the exact three-times rule on ``linalg._exact_sq``, and the
exact sampler takes its distances from that kernel too.

``local_cluster`` also solves many devices in one call. Each device
projects alone. Then each group of devices with equal (rows, projection
rank, k) runs the k-means++ sampler, the seeding Lloyd with its choice
of restart, and the threshold once, over a stack with a leading device
axis: on coordinates a few columns wide numpy's per-call overhead, not
arithmetic, sets the cost of those stages. Last, each device runs its
raw-row Lloyd alone. Every output is bit for bit the one-device call's:
a certified decision holds for any order of summation, the exact
fallbacks run one device (and one restart or start) at a time, and each
restart's cost is its own sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import (_TINY, _as_matrix, _gamma, _nearest_each, _product_sq,
                     _rounding_bound, _settle, top_k_projection)
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

        A label vector that is not one label per row, a label outside
        [0, k), or one in it that does not occur, is an error.
        """
        data, labels = np.asarray(data, dtype=float), np.asarray(labels, dtype=int)
        if labels.shape != data.shape[:1]:
            raise ValueError(f"labels of shape {labels.shape} do not fit "
                             f"rows of shape {data.shape}")
        outside = labels[(labels < 0) | (labels >= k)]
        if outside.size:
            raise ValueError(f"label {int(outside[0])} outside [0, {k})")
        centers, sizes = cluster_means(data, labels, k)
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


def _assignment_cost(data: np.ndarray, labels: np.ndarray,
                     centers: np.ndarray) -> float:
    diff = data - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def _moved_means(rows: np.ndarray, labels: np.ndarray, current: np.ndarray
                 ) -> np.ndarray:
    """The next centers of S starts (S, k, w) from their (S, n) labels over
    ``rows``, which hold each start's n rows in turn: one ``cluster_means``
    call, start j's clusters numbered from j*k. A cluster without members
    keeps its current center."""
    count, k, width = current.shape
    offsets = np.arange(count)[:, None] * k
    means, sizes = cluster_means(rows.reshape(-1, width),
                                 (labels + offsets).ravel(), count * k)
    return np.where(sizes.reshape(-1, k, 1) > 0, means.reshape(current.shape),
                    current)


def _lloyd(data: np.ndarray, starts: np.ndarray, tol, max_iter: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations on each of D row matrices ``data`` (D, n, w) from
    each of its R (k, w) starts ``starts`` (D, R, k, w), all run together.

    Returns labels (D, R, n), centers (D, R, k, w) and iterations (D, R).
    Each start follows exactly the path it would follow alone and stops at
    its own step, once its largest center shift drops below its matrix's
    ``tol`` (D,), a scalar for one matrix. Nearest-center ties go to the
    lowest cluster index. A cluster that loses all members keeps its
    previous center. The returned centers are exactly the means of the
    returned assignment (for nonempty clusters). The callers pass rows and
    starts scaled by ``_stack``'s power of two, so every center is finite
    and no squared distance or shift overflows.

    A start whose labels repeat the previous step's stops at that step
    without taking means: they would equal its centers bit for bit, so its
    shift is exactly 0. That holds for a positive ``tol``; with ``tol`` 0
    the start takes the step as usual. The means come
    from ``cluster_means`` with the j-th start of a call's clusters
    numbered from j*k: on one matrix, one call over as many copies of its
    rows (tiled once) as starts moved; on a stack, one call per restart
    index, over the matrices whose start moved (the stack itself when all
    did), so that no copy outgrows the stack. Every step labels every
    start from ``linalg._nearest_each``: one certified product per matrix
    against all its starts, with ``linalg._exact_sq`` for a start it
    cannot settle. Only the active starts' labels are kept.
    """
    centers = np.array(starts, dtype=float)
    devices, runs, k, width = centers.shape
    tol = np.repeat(tol, runs)          # one per start
    n = data.shape[1]
    data_sq = np.einsum("mnd,mnd->mn", data, data)
    data_t = np.ascontiguousarray(np.swapaxes(data, 1, 2))     # for the products
    # one matrix's rows, once per restart (the rows themselves for one)
    tiled = np.tile(data[0], (runs, 1)) if devices == 1 < runs else data[0]
    labels = np.zeros((devices, runs, n), dtype=int)
    iterations = np.zeros((devices, runs), dtype=int)
    # start s = m*runs + r is restart r on matrix m; the flat views share memory
    flat_centers = centers.reshape(-1, k, width)
    flat_labels, flat_iterations = labels.reshape(-1, n), iterations.reshape(-1)
    active = np.arange(devices * runs)
    for step in range(1, max_iter + 1):
        if not active.size:
            break
        flat_iterations[active] = step
        nearest = _nearest_each(data, centers, data_sq, data_t).reshape(-1, n)[active]
        current = flat_centers[active]
        if step > 1:
            repeat = (nearest == flat_labels[active]).all(axis=1) & (0.0 < tol[active])
            active, nearest, current = (active[~repeat], nearest[~repeat],
                                        current[~repeat])
        if not active.size:
            break
        flat_labels[active] = nearest
        if devices == 1:    # every moved start at once, on the tiled rows
            updated = _moved_means(tiled[:active.size * n], nearest, current)
        else:               # one restart at a time: no copy outgrows the stack
            device, run = np.divmod(active, runs)
            updated = np.empty_like(current)
            for r in np.unique(run):
                at = np.flatnonzero(run == r)
                rows = data if at.size == devices else data[device[at]]
                updated[at] = _moved_means(rows, nearest[at], current[at])
        shift = np.sqrt(((updated - current) ** 2).sum(axis=2)).max(axis=1)
        flat_centers[active] = updated
        active = active[~(shift < tol[active])]
    return labels, centers, iterations


def lloyd_iterate(data: np.ndarray, centers: np.ndarray, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> Clustering:
    """Run Lloyd steps from ``centers`` until movement drops below ``tol``,
    for at most ``max_iter`` >= 1 steps (``_scaled_lloyd``): the same
    labels at any scale, the same centers times the scale at a power of
    two. Non-finite rows or centers raise ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    data = _as_matrix(data, "data")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("need at least one initial center")
    if centers.shape[1] != data.shape[1]:
        raise ValueError(f"centers have width {centers.shape[1]}, "
                         f"data rows have width {data.shape[1]}")
    return _scaled_lloyd(data, centers, tol, max_iter)[0]


def _scaled_lloyd(rows, start, tol: float, max_iter: int) -> tuple[Clustering, int]:
    """Lloyd on one row matrix ``rows`` from one (k, w) ``start``, run on
    both scaled together by ``_stack``'s power of two, with ``tol`` scaled
    alike: the clustering, its centers scaled back, and its step count."""
    rows, start, exponent = _stack(rows, start)
    labels, centers, iterations = _lloyd(rows, start[:, None],
                                         np.ldexp(tol, -exponent), max_iter)
    return (Clustering(assignment=labels[0, 0], k=start.shape[1],
                       centers=np.ldexp(centers[0, 0], exponent[0])),
            int(iterations[0, 0]))


def _has_equal_rows(centers: np.ndarray) -> np.ndarray:
    """Whether each (k, w) matrix in ``centers`` (..., k, w) repeats a row.

    Rows compare by exact float equality, so -0.0 equals 0.0; on finite
    centers this agrees with counting fewer than k distinct rows.
    """
    equal = (centers[..., :, None, :] == centers[..., None, :, :]).all(axis=-1)
    return np.triu(equal, 1).any(axis=(-2, -1))


def _exact_dsq(rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The k-means++ picks (k,) of one restart over ``rows`` (n, w), from
    its uniforms ``draws`` (k,), by the exact squared distances of
    ``linalg._exact_sq``.

    The first uniform picks the first row, as ``integers(1, n)`` would, and
    each later one serves one D^2 step over the squared distances to the
    nearest chosen row, refreshed against the newest pick only when a step
    needs them. A step picks the number of cumulative weights not
    above u times their total: that is ``searchsorted(cdf, u,
    side="right")`` on the nondecreasing cdf, capped at n-1. ``rows`` come
    scaled by ``_stack``, so no weight or total leaves the float range.
    ``_dsq_sample`` runs it on each restart whose picks it cannot prove.
    """
    n = rows.shape[0]
    picks = np.empty(draws.shape, dtype=np.int64)
    picks[0] = min(int(draws[0] * n), n - 1)
    d2 = np.full(n, np.inf)
    for j in range(1, draws.size):
        np.minimum(d2, linalg._exact_sq(rows, rows[picks[j - 1:j]])[:, 0], out=d2)
        # All weights are zero once every distinct row has been chosen.
        if not d2.any():
            raise ValueError("insufficient distinct points")
        cdf = np.cumsum(d2)
        picks[j] = min(n - np.count_nonzero(cdf > draws[j] * cdf[-1]), n - 1)
    return picks


def _dsq_sample(data: np.ndarray, k: int, seeds: list[tuple]) -> np.ndarray:
    """k-means++ starts for every seeding restart of each of D row matrices
    ``data`` (D, n, w): (D, R, k, w) D^2-sampled rows, bit for bit the rows
    that ``_exact_dsq`` picks.

    Restart r of matrix m draws from ``Stream(*seeds[m], r)``. One
    ``uniforms(k)`` call yields the values that k one-value calls would,
    since Philox's raw stream does not depend on how it is chunked.

    Each step takes, for every restart, F = ‖x‖² − 2·x·c + ‖c‖² from one
    (D, R, w) @ (D, w, n) product of the newest picks c against the rows x
    (``linalg._product_sq``), keeps each row's G = max(min F, 0) over the
    restart's picks, and picks from C = cumsum(G), with T = C[n-1] and v
    the step's uniform, the number of entries of C[:n-1] not above u = v·T:
    on a nondecreasing cdf that is ``_exact_dsq``'s pick.

    After the loop one check proves every pick of a restart, or sends that
    restart to ``_exact_dsq`` alone. Let K be the exact sampler's weights
    and C', T', u' its cdf, total and scaled draw. With ρ the largest norm
    among the restart's k picks (``_rounding_bound`` grows with it), each
    row's e = ``_rounding_bound(‖x‖, ρ)`` bounds |F − K| for every pick,
    so |G − K| <= e (K >= 0), and E = Σ e bounds every prefix-sum gap.
    ``np.cumsum`` adds in sequence, so C and C' are each within γ_n of
    their exact prefix sums of nonnegative terms, and
    |C_i − C'_i| <= Δ = (1 + γ_n)·E + 2·γ_n·T/(1 − γ_n). The products u
    and u' = v·T' round once each, so |u − u'| <= Δ + 2⁻⁵³·(2T + Δ) +
    2⁻¹⁰⁷⁴. A comparison C_i > u then has the sign of C'_i > u' wherever
    |C_i − u| > B = 2.5·E + 5·γ_{n+2}·T + 2⁻¹⁰⁷³: the spare covers the
    rounded sum E and the rounding of B itself. Both cdfs are
    nondecreasing, so the pick p is proven once the two entries that
    bracket u clear B: C_{p−1} below it (for p > 0) and C_p above it (for
    p < n − 1). T > B proves T' > 0, the exact sampler's "insufficient
    distinct points" check. By induction over the steps every pick, and so
    every later table, is the exact sampler's.

    A restart fails where any step's margin or total does not clear B.
    ``approx_seed`` passes rows scaled by ``_stack``, so every F, e and C
    is finite. The check runs once, after the loop, so every error comes
    from ``_exact_dsq``.
    Memory stays O(D·R·n): no (D, R, n, w) difference block is held.
    """
    devices, n, width = data.shape
    runs = _SEED_RESTARTS
    draws = np.array([[Stream(*seed, r).uniforms(k) for r in range(runs)]
                      for seed in seeds])
    picks = np.empty((devices, runs, k), dtype=np.int64)
    picks[..., 0] = np.minimum((draws[..., 0] * n).astype(np.int64), n - 1)
    owner = np.arange(devices)[:, None]
    base = np.arange(devices * runs).reshape(devices, runs) * n
    sq = np.einsum("mnd,mnd->mn", data, data)
    near = np.full((devices, runs, n), np.inf)
    cdf = np.empty_like(near)
    flat = cdf.reshape(-1)
    total, u, lower, upper = np.empty((4, k - 1, devices, runs))
    for j in range(1, k):
        new = picks[..., j - 1]
        np.minimum(near, _product_sq(data[owner, new], data, sq[owner, new], sq),
                   out=near)
        np.maximum(near, 0.0, out=cdf)
        np.cumsum(cdf, axis=2, out=cdf)
        total[j - 1] = cdf[..., -1]
        np.multiply(draws[..., j], total[j - 1], out=u[j - 1])
        picks[..., j] = np.add.reduce(cdf[..., :-1] <= u[j - 1, ..., None], axis=2)
        at = base + picks[..., j]
        lower[j - 1] = flat[at - 1]     # unused where the pick is 0
        upper[j - 1] = flat[at]
    reach = np.sqrt(sq[owner[..., None], picks].max(axis=2))
    spread = _rounding_bound(np.sqrt(sq)[:, None, :], reach[..., None],
                             width).sum(axis=2)
    bound = 2.5 * spread + 5.0 * _gamma(n + 2) * total + 2.0 * _TINY
    chosen = picks[..., 1:].transpose(2, 0, 1)
    below = np.where(chosen > 0, u - lower, np.inf)
    above = np.where(chosen < n - 1, upper - u, np.inf)
    proven = ((total > bound) & (below > bound) & (above > bound)).all(axis=0)
    for m, r in zip(*np.nonzero(~proven)):
        picks[m, r] = _exact_dsq(data[m], draws[m, r])
    return data[owner[..., None], picks]


def _stack(m, centers=None) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """``m`` as a float stack of row matrices (D, n, w), ``centers`` (D, k,
    w) or None, both scaled per device by a power of two, and each power's
    exponent (D,). A 2-D ``m`` is one matrix, with (k, w) ``centers``; a
    3-D one a stack. Raise unless ``m`` is nonempty and finite and the
    centers, where given, fit it and are finite.

    Device i's power brings the largest entry of its rows and centers into
    [0.5, 1), the rule of ``linalg._finite_scaled``, which is exact bar
    entries 2^1022 below the largest: every decision on the scaled stack is
    the one at scale 1, and no squared distance between its rows and
    centers, nor any sum of n of them, leaves the float range. One max and
    one min per device over a (D, n·w) view of the rows, and one max of
    the centers' magnitudes, both give the powers and check that every
    entry is finite.
    """
    m = np.asarray(m, dtype=float)
    stack = m if m.ndim == 3 else _as_matrix(m, "matrix")[None]
    devices, n, width = stack.shape
    flat = _as_matrix(stack.reshape(devices, n * width), "matrix")
    largest = np.maximum(flat.max(axis=1), -flat.min(axis=1))  # NaN with a NaN
    if not np.isfinite(largest).all():
        raise ValueError("matrix contains non-finite values")
    if centers is not None:
        shape = np.shape(centers)
        centers = np.asarray(centers, dtype=float)
        centers = centers if m.ndim == 3 else centers[None]
        if (centers.ndim != 3 or centers.shape[::2] != (devices, width)
                or not centers.shape[1]):
            raise ValueError(f"centers of shape {shape} do not fit rows of shape "
                             f"{m.shape}")
        largest = np.maximum(largest, np.abs(centers).reshape(devices, -1).max(axis=1))
        if not np.isfinite(largest).all():
            raise ValueError("centers contain non-finite values")
    exponent = np.frexp(largest)[1]
    scale = -exponent[:, None, None]
    if centers is not None:
        centers = np.ldexp(centers, scale)
    return np.ldexp(stack, scale), centers, exponent


def _check_k(k) -> None:
    """Raise unless ``k`` is an integer of at least 1."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")


def _seed_key(seed) -> tuple:
    """A seed as the key of its ``Stream``: an integer, or a tuple of them."""
    key = seed if isinstance(seed, tuple) else (seed,)
    if not all(isinstance(part, (int, np.integer)) for part in key):
        raise ValueError(f"seed must be an integer or a tuple of integers, "
                         f"got {seed!r}")
    return key


def approx_seed(projected, k: int, seed, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Estimate k centers on the projected rows (or their subspace coordinates).

    k-means++ seeding refined by Lloyd, best cost over seeded restarts.
    Restarts whose refined centers collapse (two equal rows) are skipped.
    Comfortably within the 10x-of-optimal budget the pipeline assumes;
    tests enforce that factor against an exhaustive oracle at small sizes.

    A 3-D ``projected`` is a stack of D devices' rows, (D, n, w), and
    ``seed`` is then a list of D per-device seeds: the result is (D, k, w),
    device by device bit for bit what the 2-D call on its rows gives, and
    one failing device fails the call.

    Each device seeds on its rows scaled by ``_stack``'s power of two, with
    ``tol`` scaled alike, and its centers are scaled back: the same picks
    at any scale, the same centers times the scale at a power of two.
    """
    stacked = np.ndim(projected) == 3
    stack, _, exponent = _stack(projected)
    if stacked and not isinstance(seed, list):
        raise ValueError("a stack needs a list of per-device seeds")
    seeds = seed if stacked else [seed]
    if len(seeds) != stack.shape[0]:
        raise ValueError("need one seed per device")
    seeds = [_seed_key(s) for s in seeds]
    _check_k(k)
    if stack.shape[1] < k:
        raise ValueError("insufficient distinct points")
    labels, refined, _ = _lloyd(stack, _dsq_sample(stack, k, seeds),
                                np.ldexp(tol, -exponent), DEFAULT_MAX_ITER)
    costs = np.full(labels.shape[:2], np.inf)    # collapsed restarts stay inf
    for m, restart in zip(*np.nonzero(~_has_equal_rows(refined))):
        costs[m, restart] = _assignment_cost(stack[m], labels[m, restart],
                                             refined[m, restart])
    if (costs.min(axis=1) == np.inf).any():
        raise ValueError("seeding collapsed on every restart")
    best = refined[np.arange(len(costs)), costs.argmin(axis=1)]   # first minimum
    best = np.ldexp(best, exponent[:, None, None])
    return best if stacked else best[0]


def threshold_assign(projected, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep points decisively closest to one center; average what remains.

    Row i lands in set r when its distance to center r is at most a third
    of its distance to every other center; a point near the midpoint of two
    centers lands in none. Returns each row's set label, (n,) ints in
    [0, k] where k means no set, and the (k, w) means of the sets. An empty
    set keeps its input center, so all k centers stay alive.

    A 3-D ``projected`` (D, n, w) with centers (D, k, w) thresholds D
    devices at once: it returns (D, n) labels and (D, k, w) centers, device
    by device bit for bit what the 2-D call gives.

    Each device decides on its rows and centers scaled together by
    ``_stack``'s power of two, and its means are scaled back: the same
    labels at any scale, the same means times the scale at a power of two.

    Labels and means are the exact rule's bit for bit: a row is kept where
    fl(3·fl(√K₁)) <= fl(√K₂), K₁ and K₂ its ``linalg._exact_sq`` to the
    nearest center and to the nearest other one. Each device takes F
    (k, n) from one product, and ``linalg._settle`` proves each row's
    nearest center, with F₁ its F, e = τ and g = fl(F₂ − F₁), F₂ the
    smallest other F. Both sides of the rule are nondecreasing in K, so
    fl(3·fl(√h₁)) <= fl(√l₂) proves a keep and fl(3·fl(√l₁)) > fl(√h₂) a
    drop, with l₁ = fl(F₁ − e), h₁ = fl(F₁ + e), l₂ = fl(l₁ + g) and
    h₂ = fl(h₁ + g); a negative bound gives NaN and proves nothing. They
    bracket K₁ and K₂: each K lies within 2·γ_{w+4}·R of its F
    (``_rounding_bound``, R at the largest center norm), e exceeds that by
    3·γ_{w+4}·R >= 15·2⁻⁵³·R, and the three roundings in l₂ and h₂ move
    them by under 4.5·2⁻⁵³·R (a sum that underflows is exact). Where fl(√)
    ties the nearest center with another, the exact rule drops the row
    under either. A device with a row not proven runs the exact rule
    (``_exact_sets``) alone; where a distance to a distinct other center
    underflows to 0 there, so that the rule has no answer, it raises
    ``ValueError``. A proven device has K₂ > 0, so it never hides one.
    """
    stacked = np.ndim(projected) == 3
    data, centers, exponent = _stack(projected, centers)
    devices, k, width = centers.shape
    if _has_equal_rows(centers).any():
        raise ValueError("centers must be distinct")
    with np.errstate(invalid="ignore"):     # a negative bound's root is NaN
        c_sq = np.einsum("mkd,mkd->mk", centers, centers)
        a_sq = np.einsum("mnd,mnd->mn", data, data)
        f = _product_sq(centers, data, c_sq, a_sq)[:, None]
        nearest, settled, near_sq, e = (part[:, 0] for part in
                                        _settle(f, a_sq, c_sq[:, None], width))
        gap = np.where(f[:, 0] > e[:, None], f[:, 0], np.inf).min(axis=1)
        low, high = near_sq - e, near_sq + e
        keep = 3.0 * np.sqrt(high) <= np.sqrt(low + gap)
        drop = 3.0 * np.sqrt(low) > np.sqrt(high + gap)
        proven = settled & (keep | drop).all(axis=1)
    labels = np.where(keep, nearest, k)     # k: in no set
    for m in np.flatnonzero(~proven):
        labels[m] = _exact_sets(data[m], centers[m])
    kept = labels < k
    owner = np.arange(devices)[:, None] * k
    means, sizes = cluster_means(data[kept], (labels + owner)[kept], devices * k)
    theta = np.where(sizes[:, None] > 0, means,
                     centers.reshape(-1, width)).reshape(centers.shape)
    theta = np.ldexp(theta, exponent[:, None, None])
    return (labels, theta) if stacked else (labels[0], theta[0])


def _exact_sets(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``threshold_assign``'s set labels (n,) of one device by its exact
    rule on ``linalg._exact_sq``.

    ``threshold_assign`` passes rows and centers scaled by ``_stack``, so
    no distance overflows. With two or more centers, a row whose distance
    to the nearest other center underflows to 0 (distinct centers cannot
    both be at distance 0: they are closer than 2^-537) has no exact rule
    to follow and raises ``ValueError``.
    """
    dist = linalg._exact_sq(rows, centers)
    np.sqrt(dist, out=dist)
    nearest = dist.argmin(axis=1)
    at = (np.arange(rows.shape[0]), nearest)
    d_near = dist[at]
    dist[at] = np.inf
    others = dist.min(axis=1)
    k = centers.shape[0]
    if k > 1 and not (others > 0.0).all():
        raise ValueError("squared distances to the centers leave the float range")
    return np.where(3.0 * d_near <= others, nearest, k)


def local_cluster(data: np.ndarray, k, seed, tol: float = DEFAULT_TOL,
                  devices=None) -> LocalResult | list[LocalResult]:
    """Full device solve: project, seed, threshold, then Lloyd on raw rows.

    Seeding and thresholding run in the top-k subspace coordinates; the
    thresholded centers are lifted to d-space to start Lloyd.

    With ``devices``, a sequence of row-index arrays into ``data``, it
    solves every device ``data[devices[i]]`` with its own ``k[i]`` and
    ``seed[i]`` (``k`` and ``seed`` must be as long as ``devices``) and
    returns the list of their results, each bit for bit
    what the one-device call on those rows gives. Every device projects
    alone; the devices with equal (rows, projection rank, k) then seed and
    threshold as one stack, and each runs its raw-row Lloyd on rows it
    gathers again, so no stack of raw rows is ever held. Should any of
    that fail, every device is solved alone, in order, so the error raised
    is the one the first failing device raises alone.
    """
    if devices is None:
        return _solve(lambda i: data, [k], [seed], tol)[0]
    if not len(k) == len(seed) == len(devices):
        raise ValueError(f"{len(devices)} devices need as many k and seeds, "
                         f"got {len(k)} and {len(seed)}")
    try:
        return _solve(lambda i: data[devices[i]], k, seed, tol)
    except Exception:  # re-raised below by the first device that fails alone
        return [local_cluster(data[rows], k_z, s, tol=tol)
                for rows, k_z, s in zip(devices, k, seed)]


def _solve(rows_of, ks, seeds, tol: float) -> list[LocalResult]:
    """``local_cluster`` on every device i, whose rows ``rows_of(i)`` gathers.

    The projection checks that the rows are finite; the raw-row Lloyd is
    ``_scaled_lloyd``'s.
    """
    count = len(ks)
    coords, lifts, groups = [], [], {}
    for i in range(count):
        data = _as_matrix(rows_of(i), "device data")
        _check_k(ks[i])
        coord, lift = top_k_projection(data, min(ks[i], min(data.shape)))
        coords.append(coord)
        lifts.append(lift)
        groups.setdefault((coord.shape, ks[i]), []).append(i)
    unassigned, theta = [0] * count, [None] * count
    for members in groups.values():
        stack = np.stack([coords[i] for i in members])
        for i in members:
            coords[i] = None        # the stack holds them now
        seeded = approx_seed(stack, ks[members[0]], [seeds[i] for i in members],
                             tol=tol)
        for i, kept, device_theta in zip(members, *threshold_assign(stack, seeded)):
            unassigned[i] = int(np.count_nonzero(kept == ks[i]))   # k: in no set
            theta[i] = device_theta
    results = []
    for i in range(count):
        clusters, iterations = _scaled_lloyd(rows_of(i), theta[i] @ lifts[i], tol,
                                             DEFAULT_MAX_ITER)
        results.append(LocalResult(clusters=clusters, lloyd_iterations=iterations,
                                   unassigned_after_threshold=unassigned[i]))
    return results
