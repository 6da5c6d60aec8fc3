"""Dense matrix primitives: spectral norm, truncated projection, the one
exact squared-distance kernel and certified nearest-row labels.

Spectral quantities come from the smaller Gram matrix of the input, formed
after scaling the input by the power of two that brings its largest entry
into [0.5, 1), so that the Gram neither overflows nor underflows. The
operator norm is the root of the Gram's top eigenvalue from numpy's LAPACK
symmetric eigensolver. The top-k eigenpairs behind the projection come
from a certified block subspace iteration where the Gram is wide against
k, and from that full eigensolver wherever the certificate cannot be given
(see ``top_k_projection``). Results are deterministic on one machine and
one BLAS/LAPACK build: equal inputs give bit-identical outputs there,
while another build may differ in the last digits. Tests check both
primitives against independent full-decomposition oracles.

Every certified squared distance in the package is the product form
F = ‖a‖² − 2·a·bᵀ + ‖b‖² of ``_product_sq``, one matrix product per row
matrix, trusted only as far as ``_rounding_bound`` proves that the one
exact kernel, ``_exact_sq`` (scipy's ``cdist(a, b, "sqeuclidean")``),
would decide the same: the nearest-row labels here, the threshold sets,
the farthest-point init and the k-means++ sampler.
``_settle`` proves each row's nearest center from F laid out (D, R·k, n),
reducing along the k axis with the rows innermost, and both the
nearest-row labels (``_nearest_each``, for several center sets on each
of several row matrices at once) and ``local.threshold_assign`` build on
it; a center set with a row the bound cannot settle runs ``_exact_sq``
instead, so the labels, tie-breaks included, are that kernel's bit for
bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .rng import Stream

# Block subspace iteration for the top-k eigenpairs of a Gram matrix: the
# block has _OVERSAMPLE * k columns, starts from normals of the fixed
# stream _START_KEY (so equal inputs give equal bits) and takes
# _BLOCK_STEPS products.
_OVERSAMPLE = 2
_BLOCK_STEPS = 3
_START_KEY = 0x6B666564

# Unit roundoff and the smallest subnormal of float64, for _rounding_bound.
_UNIT = 2.0 ** -53
_TINY = 2.0 ** -1074


def _as_matrix(m, name: str) -> np.ndarray:
    """``m`` as a float array; raise unless it is 2-D and nonempty."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    return m


def validate_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array or raise."""
    m = _as_matrix(m, name)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite values")
    return m


def _finite_scaled(m) -> tuple[np.ndarray, int]:
    """``m`` as a 2-D float array scaled by the power of two that brings its
    largest entry into [0.5, 1), exactly bar entries 2^1022 times below it,
    and that power's exponent (0 for an all-zero ``m``); raise unless ``m``
    is 2-D, nonempty and finite.

    The largest magnitude, ``max(m.max(), -m.min())``, both gives the power
    and checks that every entry is finite (it is NaN or inf otherwise), in
    place of ``validate_matrix``'s ``np.isfinite`` pass.
    """
    m = _as_matrix(m, "matrix")
    largest = max(m.max(), -m.min())    # NaN if any entry is NaN
    if not math.isfinite(largest):
        raise ValueError("matrix contains non-finite values")
    exponent = int(np.frexp(largest)[1])
    return np.ldexp(m, -exponent), exponent


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (spectral norm) of ``m``.

    It is the square root of the top eigenvalue of the smaller Gram matrix
    (MᵀM when d <= n, else MMᵀ). ``m`` is first scaled by the power of two
    that brings its largest entry into [0.5, 1), and the root is scaled
    back by the same power. Both steps are exact (bar entries 2^1022 times
    below the largest, which cannot move the norm), and entries near 1e±300
    neither overflow nor underflow in the Gram (``_finite_scaled``, which
    also rejects a non-finite entry). Squaring the matrix costs
    accuracy only in the small singular values, so the largest agrees with
    ``np.linalg.norm(m, 2)``'s SVD to a few ulps (within 1e-15 relative on
    tall, wide, single-row and single-column matrices from 1e-300 to
    1e300), at a fraction of the SVD's time on tall matrices.
    """
    m, exponent = _finite_scaled(m)
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    top = max(0.0, float(np.linalg.eigvalsh(gram)[-1]))
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.ldexp(math.sqrt(top), exponent))


def _exact_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``,
    (len(a), len(b)): scipy's ``cdist(a, b, "sqeuclidean")``, which adds
    each pair's squared differences in column order, whatever the layout,
    and raises no floating-point warning (a square beyond the float range
    is inf). The one exact distance kernel behind every certificate, run
    only where ``_rounding_bound`` cannot prove a decision; scipy loads on
    the first such call, not on ``import kfed``.
    """
    from scipy.spatial.distance import cdist
    return cdist(a, b, "sqeuclidean")


def _rounding_bound(a_norm, b_norm, width: int):
    """Error bound e = 5·γ_{w+4}·(‖a‖ + ‖b‖)² + (4w+8)·2⁻¹⁰⁷⁴ between a
    squared distance from one matrix product and the exact kernel's, for
    rows of width w with norms ``a_norm`` and ``b_norm`` (broadcast).

    The product form is F = ‖a‖² − 2·a·b + ‖b‖². The exact kernel
    (``_exact_sq``) forms K as the sum of the w squared differences. With D
    the exact squared distance, R = (‖a‖ + ‖b‖)² >= D, γ_m = m·u/(1−m·u)
    and u = 2⁻⁵³: K is within γ_{w+2}·D of D in any summation order (one
    rounding per difference and per square, w−1 in the sum). F is within
    γ_{w+2}·R of D in any summation order, with or without FMA (the
    products ‖a‖², a·b and ‖b‖² each within γ_w of their absolute sums,
    two roundings to combine them). So |F − K| <= 2·γ_{w+2}·R, below
    2·γ_{w+4}·R. Underflow adds at most 2⁻¹⁰⁷⁵ to each product (a sum or
    difference that underflows is exact): 4w in F (‖a‖², the doubled a·b
    and ‖b‖²) and w in K, so 2.5w·2⁻¹⁰⁷⁴ in one |F − K|.

    Two uses follow. Where two entries of one row are compared, their
    ‖a‖² is one computed value, whose error cancels: a gap in F above e,
    taken at the larger ‖b‖, is above 4·γ_{w+4}·R + 4w·2⁻¹⁰⁷⁴ and so a gap
    of the same sign in K (``_nearest_each``). And each K lies in
    [F − e, F + e]: the farthest-point init brackets each upload's
    distance to the chosen set by it, and the k-means++ sampler
    (``local._dsq_sample``) sums e over the rows to bound its cumulative
    weights. In both the spare in γ_{w+4} covers rounding e, R, the gaps
    and the sums F ± e, and the 8 the roundings that scale the underflow
    terms.

    e is inf wherever 2·R overflows, so no test against e passes where
    the exact kernel's squares could overflow, and NaN wherever a norm is
    NaN. Compute it with floating-point warnings off.
    """
    reach = a_norm + b_norm
    return 2.5 * _gamma(width + 4) * (2.0 * (reach * reach)) + (4 * width + 8) * _TINY


def _gamma(m: int) -> float:
    """γ_m = m·u/(1 − m·u), u = 2⁻⁵³: the relative error bound of m
    roundings."""
    return m * _UNIT / (1.0 - m * _UNIT)


def _product_sq(a: np.ndarray, b: np.ndarray, a_sq: np.ndarray,
                b_sq: np.ndarray) -> np.ndarray:
    """F = ‖a_i‖² − 2·a_i·b_j + ‖b_j‖², (..., n, m), for the rows of ``a``
    (..., n, w) and ``b`` (..., m, w) with squared norms ``a_sq`` (..., n)
    and ``b_sq`` (..., m), from one product ``a @ bᵀ``: the product form
    that ``_rounding_bound`` bounds. Call it with floating-point warnings
    off where F may overflow.
    """
    f = a @ np.swapaxes(b, -1, -2)
    f *= -2.0
    f += a_sq[..., :, None]
    f += b_sq[..., None, :]
    return f


def _settle(f: np.ndarray, a_sq: np.ndarray, c_sq: np.ndarray, width: int):
    """Which rows of F = ``_product_sq`` (D, R, k, n) have a nearest center
    that the exact kernel (``_rounding_bound``) picks too, for R sets of k
    centers, with squared norms ``c_sq`` (D, R, k), against the n rows of
    each of D matrices, with squared norms ``a_sq`` (D, n).

    Returns labels (D, R, n), settled (D, R), best = min F (D, R, n) and
    τ (D, R, n), ``_rounding_bound`` at the row's norm and the set's
    largest center norm; ``f`` is left holding fl(F − best). Each
    reduction runs along the k axis with the rows innermost. An entry is
    near where fl(F − best) <= τ, and a set is settled where τ is finite
    and every row has exactly one near entry, its label. That is the
    rule that the two smallest F of every row differ by more than τ:
    the smallest is near (0 <= τ), and fl(F_j − best) is nondecreasing in
    F_j, so every other entry clears τ exactly when the second smallest
    does. A tie gives 0 <= τ, two near entries. τ is finite only where
    2·(‖a‖ + ‖c‖)² is, and every |F| stays below that, so a set with a
    non-finite F, a norm that overflows or a NaN never settles. A label
    outside a settled set means nothing. Call it with floating-point
    warnings off.
    """
    best = f.min(axis=2)
    tau = _rounding_bound(np.sqrt(a_sq)[:, None, :],
                          np.sqrt(c_sq.max(axis=2))[:, :, None], width)
    f -= best[:, :, None]
    near = f <= tau[:, :, None]
    labels = np.einsum("drkn,k->drn", near, np.arange(f.shape[2]))
    settled = ((near.sum(axis=2) == 1) & np.isfinite(tau)).all(axis=2)
    return labels, settled, best, tau


def _nearest_each(a: np.ndarray, centers: np.ndarray, a_sq: np.ndarray,
                  a_t: np.ndarray | None = None) -> np.ndarray:
    """Labels (D, R, n): entry [m, r] is bit for bit
    ``_exact_sq(a[m], centers[m, r]).argmin(axis=1)`` for each of D row
    matrices in ``a`` (D, n, w) and R center sets per matrix in ``centers``
    (D, R, k, w), ties to the lowest index.

    ``a_sq`` (D, n) holds the rows' squared norms, summed in any order. One
    product per matrix, (D, R·k, w) @ (D, w, n), gives F for every pair,
    and a set that ``_settle`` settles takes its labels from F; any other
    set runs ``_exact_sq`` alone. ``a_t`` is ``a`` laid out (D, w, n) for
    that product, by default a view; a caller that labels the same rows
    again passes a C-ordered copy, with which BLAS takes the product about
    twice as fast. The bound is computed with floating-point warnings off
    and ``_exact_sq`` raises none: squares beyond the float range, which
    never settle, give the exact kernel's labels without a word.
    """
    devices, runs, k, width = centers.shape
    flat = centers.reshape(devices, runs * k, width)
    rows = a if a_t is None else np.swapaxes(a_t, 1, 2)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        c_sq = np.einsum("mkd,mkd->mk", flat, flat)
        f = _product_sq(flat, rows, c_sq, a_sq).reshape(devices, runs, k, -1)
        labels, settled, _, _ = _settle(f, a_sq, c_sq.reshape(devices, runs, k),
                                        width)
    for m, r in zip(*np.nonzero(~settled)):
        labels[m, r] = _exact_sq(a[m], centers[m, r]).argmin(axis=1)
    return labels


@functools.lru_cache(maxsize=4)
def _start_block(n: int, width: int) -> np.ndarray:
    """The subspace iteration's read-only (n, width) start: normals of
    ``Stream(_START_KEY)``, drawn once per shape."""
    block = Stream(_START_KEY).normals((n, width))
    block.flags.writeable = False
    return block


def _top_eigenpairs(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the positive semidefinite ``gram``, in
    ascending order, and their eigenvectors: ``eigh(gram)``'s last k pairs.

    Where the Gram is wide against the block (n >= 4·b, with b = 2k
    columns), a block subspace iteration tries first: fixed normal start
    columns (``_start_block``, cached per shape), a bounded number of
    ``Q = qr(G Q)`` steps, then Rayleigh–Ritz on the b x b matrix QᵀGQ,
    keeping its top k Ritz pairs (θ, V = QY).
    Its result is taken only with a certificate that it is the exact
    subspace to working precision. G is positive semidefinite, so by Ky
    Fan λ_{k+1} <= τ = trace(G) − Σθ. When the gap δ = θ_k − τ is positive
    and the residual ‖GV − VΘ‖_F is at most ε·δ, with ε = 4·n·eps,
    Davis–Kahan bounds the sine of every angle between V's span and the
    exact top-k eigenspace by ε. The iteration costs O(n²b) flops against
    the full solve's O(n³). A narrow Gram, a tie or near-tie at the
    boundary, a rank below k, or any failed certificate takes the full
    ``np.linalg.eigh``.
    """
    n = gram.shape[0]
    width = _OVERSAMPLE * k
    if 4 * width <= n:
        block = _start_block(n, width)
        for _ in range(_BLOCK_STEPS):
            block = np.linalg.qr(gram @ block)[0]
        image = gram @ block
        ritz, small = np.linalg.eigh(block.T @ image)
        ritz, small = ritz[-k:], small[:, -k:]
        vectors = block @ small
        gap = ritz[0] - (np.trace(gram) - ritz.sum())
        residual = np.linalg.norm(image @ small - vectors * ritz)
        if gap > 0.0 and residual <= 4.0 * n * np.finfo(float).eps * gap:
            return ritz, vectors
    values, vectors = np.linalg.eigh(gram)
    return values[-k:], vectors[:, -k:]


def top_k_projection(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``m`` in the top-k singular subspace: (coords, lift).

    ``coords`` (n x k) holds each row's coordinates in an orthonormal basis
    of the span of the top-k right singular vectors, and ``lift`` (k x d)
    maps coordinates back to d-space, so ``coords @ lift`` is the rank-k
    projection of ``m``: the closest rank-k matrix to it in operator norm.
    Distances between rows of ``coords`` equal those between projected rows,
    so clustering can run in k dimensions instead of d.

    Both come from the top k eigenpairs of the smaller Gram matrix of ``m``
    scaled by the power of two that brings its largest entry into [0.5, 1)
    (``_finite_scaled``). With the right Gram MᵀM = VΛVᵀ, ``coords = M V``
    and ``lift = Vᵀ``. With the left Gram MMᵀ = UΛUᵀ, ``coords = U √Λ`` and
    ``lift = Λ^-½ Uᵀ M``. ``coords`` are scaled back by the same power,
    exactly, and ``lift`` does not depend on it, so data near 1e±300 neither
    overflows nor underflows in the Gram; a coordinate beyond the float
    range raises ``ValueError``. A direction whose singular value
    is at or below the rank tolerance (numpy's ``matrix_rank`` cutoff)
    carries no data: its coordinates and lift row are zero, so a
    rank-deficient ``m`` never divides by zero.

    The eigenpairs come from ``_top_eigenpairs``: a block subspace
    iteration, accepted only with a gap certificate that its subspace is
    the exact one to working precision, where the Gram is at least 8k wide;
    a full ``np.linalg.eigh`` otherwise. On the certified path the subspace,
    ``coords @ lift`` and the distances between rows of ``coords`` agree
    with the full-eigh path to working precision, not bit for bit, and a
    basis column may differ in sign. A boundary gap too small to certify
    (an exact tie σ_k = σ_{k+1}, or rank below k) always takes the full
    eigh, whose eigenvector ordering breaks exact ties; the subspace is
    unique whenever the boundary gap is.
    """
    m, exponent = _finite_scaled(m)
    n, d = m.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"projection rank k={k} outside [1, {min(n, d)}]")
    if d <= n:
        basis = _top_eigenpairs(m.T @ m, k)[1]
        coords, lift = m @ basis, basis.T
    else:
        values, basis = _top_eigenpairs(m @ m.T, k)
        sigma = np.sqrt(np.clip(values, 0.0, None))
        sigma[sigma <= sigma[-1] * max(n, d) * np.finfo(float).eps] = 0.0
        inverse = np.divide(1.0, sigma, out=np.zeros(k), where=sigma > 0.0)
        coords, lift = basis * sigma, inverse[:, None] * (basis.T @ m)
    with np.errstate(over="ignore"):    # checked below
        coords = np.ldexp(coords, exponent)
    if not np.isfinite(coords).all():
        raise ValueError("projected coordinates exceed the float range")
    return coords, lift
