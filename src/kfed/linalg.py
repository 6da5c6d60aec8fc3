"""Dense matrix primitives: spectral norm, truncated projection, Frobenius norm.

Spectral quantities come from numpy's LAPACK: ``np.linalg.norm(m, 2)``
for the operator norm and a symmetric eigendecomposition of the smaller
Gram matrix for the top-k projection. Results are deterministic on one
machine and one BLAS/LAPACK build: equal inputs give bit-identical
outputs there, while another build may differ in the last digits. Tests
check both primitives against independent full-decomposition oracles.
"""

from __future__ import annotations

import numpy as np


def validate_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array or raise."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite values")
    return m


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (spectral norm) of ``m``."""
    return float(np.linalg.norm(validate_matrix(m), 2))


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    m = validate_matrix(m)
    return float(np.linalg.norm(m, "fro"))


def top_k_projection(m: np.ndarray, k: int) -> np.ndarray:
    """Project each row of ``m`` onto the span of the top-k singular vectors.

    The result is the closest rank-k matrix to ``m`` in operator norm.
    Idempotent: re-projecting with the same k is a no-op up to round-off.
    Exact ties at the subspace boundary are broken by LAPACK's eigenvector
    ordering; the projection is unique whenever the boundary gap is.
    """
    m = validate_matrix(m)
    n, d = m.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"projection rank k={k} outside [1, {min(n, d)}]")
    # Work on the smaller Gram matrix; both sides give the same projection.
    gram = m.T @ m if d <= n else m @ m.T
    # eigh returns eigenvalues in ascending order.
    basis = np.linalg.eigh(gram)[1][:, -k:]
    if d <= n:
        return (m @ basis) @ basis.T
    return basis @ (basis.T @ m)
