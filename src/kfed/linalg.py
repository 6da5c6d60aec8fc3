"""Dense matrix primitives: spectral norm, truncated projection, and
row-to-row Euclidean distances.

Spectral quantities come from numpy's LAPACK symmetric eigensolver on
the smaller Gram matrix: its top eigenvalue gives the operator norm, and
its top-k eigenvectors the top-k subspace coordinates and projection.
Results are deterministic on one machine and one BLAS/LAPACK build:
equal inputs give bit-identical outputs there, while another build may
differ in the last digits. Tests check both primitives against
independent full-decomposition oracles.
"""

from __future__ import annotations

import math

import numpy as np


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


def _scaled_by(m: np.ndarray, top) -> tuple[np.ndarray, int]:
    """``m`` scaled by 2^-e, where ``top`` = f·2^e with f in [0.5, 1); and e."""
    exponent = int(np.frexp(top)[1])
    return np.ldexp(m, -exponent), exponent


def unit_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``m`` scaled by the power of two that brings its largest entry into
    [0.5, 1), and that power's exponent (0 for an all-zero ``m``).

    The largest magnitude is ``max(m.max(), -m.min())``; a NaN or infinite
    one gives exponent 0, and so ``m`` unchanged. Exact, bar entries 2^1022
    times below the largest, which underflow.
    """
    return _scaled_by(m, max(m.max(), -m.min()))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (spectral norm) of ``m``.

    It is the square root of the top eigenvalue of the smaller Gram matrix
    (MᵀM when d <= n, else MMᵀ). ``m`` is first scaled by the power of two
    that brings its largest entry into [0.5, 1), and the root is scaled
    back by the same power. Both steps are exact (bar entries 2^1022 times
    below the largest, which cannot move the norm), and entries near 1e±300
    neither overflow nor underflow in the Gram. The largest magnitude,
    ``max(m.max(), -m.min())``, both gives the power and checks that every
    entry is finite (it is NaN or inf otherwise), in place of
    ``validate_matrix``'s ``np.isfinite`` pass. Squaring the matrix costs
    accuracy only in the small singular values, so the largest agrees with
    ``np.linalg.norm(m, 2)``'s SVD to a few ulps (within 1e-15 relative on
    tall, wide, single-row and single-column matrices from 1e-300 to
    1e300), at a fraction of the SVD's time on tall matrices.
    """
    m = _as_matrix(m, "matrix")
    largest = max(m.max(), -m.min())    # NaN if any entry is NaN
    if not math.isfinite(largest):
        raise ValueError("matrix contains non-finite values")
    m, exponent = _scaled_by(m, largest)
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    top = max(0.0, float(np.linalg.eigvalsh(gram)[-1]))
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.ldexp(math.sqrt(top), exponent))


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``: (len(a), len(b)).

    Column j is ``np.linalg.norm(a - b[j], axis=1)`` to the bit, and so is
    the broadcast ``np.linalg.norm(a[:, None] - b[None], axis=2)``. It does
    the operations that norm does (square, ``np.add.reduce`` along the
    row, ``np.sqrt``) in one reused len(a) x d buffer laid out like ``a``,
    without norm's ``conj()`` copy and its per-column allocations, so the
    temporaries stay len(a) x d rather than len(a) x len(b) x d. The exact
    differences keep the last bits, and so the nearest-center tie-breaks,
    that the ‖a‖²+‖b‖²−2a·b expansion would change.
    """
    dist = np.empty((a.shape[0], b.shape[0]))
    diff = np.empty_like(a, dtype=float)
    sums = np.empty(a.shape[0])
    for j, row in enumerate(b):
        np.subtract(a, row, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=sums)
        np.sqrt(sums, out=dist[:, j])
    return dist


def top_k_projection(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``m`` in the top-k singular subspace: (coords, lift).

    ``coords`` (n x k) holds each row's coordinates in an orthonormal basis
    of the span of the top-k right singular vectors, and ``lift`` (k x d)
    maps coordinates back to d-space, so ``coords @ lift`` is the rank-k
    projection of ``m``: the closest rank-k matrix to it in operator norm.
    Distances between rows of ``coords`` equal those between projected rows,
    so clustering can run in k dimensions instead of d.

    One symmetric eigendecomposition of the smaller Gram matrix gives both.
    With the right Gram MᵀM = VΛVᵀ, ``coords = M V`` and ``lift = Vᵀ``. With
    the left Gram MMᵀ = UΛUᵀ, ``coords = U √Λ`` and ``lift = Λ^-½ Uᵀ M``.
    A direction whose singular value is at or below the rank tolerance
    (numpy's ``matrix_rank`` cutoff) carries no data: its coordinates and
    lift row are zero, so a rank-deficient ``m`` never divides by zero.
    Exact ties at the subspace boundary are broken by LAPACK's eigenvector
    ordering; the subspace is unique whenever the boundary gap is.
    """
    m = validate_matrix(m)
    n, d = m.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"projection rank k={k} outside [1, {min(n, d)}]")
    if d <= n:
        # eigh returns eigenvalues in ascending order.
        basis = np.linalg.eigh(m.T @ m)[1][:, -k:]
        return m @ basis, basis.T
    values, basis = np.linalg.eigh(m @ m.T)
    basis = basis[:, -k:]
    sigma = np.sqrt(np.clip(values[-k:], 0.0, None))
    sigma[sigma <= sigma[-1] * max(n, d) * np.finfo(float).eps] = 0.0
    inverse = np.divide(1.0, sigma, out=np.zeros(k), where=sigma > 0.0)
    return basis * sigma, inverse[:, None] * (basis.T @ m)
