import math
import warnings

import numpy as np
import pytest

from kfed.linalg import (operator_norm, pairwise_distances,
                         top_k_projection, unit_scaled, validate_matrix)
from helpers import projection
from oracles import jacobi_spectral_norm, svd_truncation


def _with_spectrum(rng, n, d, values):
    """Random n x d matrix with the given singular values."""
    u, _ = np.linalg.qr(rng.normal(size=(n, len(values))))
    v, _ = np.linalg.qr(rng.normal(size=(d, len(values))))
    return (u * np.asarray(values)) @ v.T


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, rel=1e-8)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((5, 3))) == 0.0


def test_operator_norm_empty_matrix_errors():
    with pytest.raises(ValueError, match="empty matrix"):
        operator_norm(np.empty((0, 3)))


def test_operator_norm_rejects_non_finite():
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(bad)


def _with_entry(value):
    m = np.arange(6.0).reshape(2, 3)
    m[1, 1] = value
    return m


# input -> (operator_norm's error, unit_scaled's error or None if it returns)
_BAD_INPUTS = {
    "nan": (_with_entry(np.nan), "matrix contains non-finite values", None),
    "pos_inf": (_with_entry(np.inf), "matrix contains non-finite values", None),
    "neg_inf": (_with_entry(-np.inf), "matrix contains non-finite values", None),
    "one_d": (np.array([1.0, -6.0, 2.0]), "matrix must be 2-D, got shape (3,)",
              None),
    "empty": (np.empty((0, 3)), "empty matrix",
              "zero-size array to reduction operation maximum which has no "
              "identity"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_operator_norm_and_unit_scaled_on_bad_input(case):
    m, norm_error, scaled_error = _BAD_INPUTS[case]
    with pytest.raises(ValueError) as err:
        operator_norm(m)
    assert type(err.value) is ValueError and str(err.value) == norm_error
    # validate_matrix names its input, bar in "empty matrix"
    named = norm_error.replace("matrix must", "data must").replace(
        "matrix contains", "data contains")
    with pytest.raises(ValueError) as err:
        validate_matrix(m, "data")
    assert str(err.value) == named
    if scaled_error is not None:
        with pytest.raises(ValueError) as err:
            unit_scaled(m)
        assert type(err.value) is ValueError and str(err.value) == scaled_error
        return
    # not validated: a NaN or infinite magnitude gives exponent 0 and m as is
    scaled, exponent = unit_scaled(m)
    expected = 3 if case == "one_d" else 0
    assert exponent == expected
    assert scaled.tobytes() == np.ldexp(m, -expected).tobytes()


def test_operator_norm_and_unit_scaled_on_zero_and_negative_extremes():
    zeros = np.zeros((3, 2))
    scaled, exponent = unit_scaled(zeros)
    assert (exponent, scaled.tobytes()) == (0, zeros.tobytes())
    assert operator_norm(zeros) == 0.0
    # the largest magnitude is a negative entry: it sets the power
    m = np.array([[-6.0, 0.0], [0.0, 1.0]])
    scaled, exponent = unit_scaled(m)
    assert exponent == 3 and scaled.tolist() == [[-0.75, 0.0], [0.0, 0.125]]
    assert operator_norm(m) == 6.0
    for big in (-1e300, -1e-300):
        m = np.array([[big, 3.0 * abs(big) / 8.0], [abs(big) / 4.0, 0.0]])
        scaled, exponent = unit_scaled(m)
        assert exponent == math.frexp(big)[1] and scaled[0, 0] == math.frexp(big)[0]
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m / abs(big), 2)
                                                 * abs(big), rel=1e-14)


def test_operator_norm_seeded_matches_jacobi_oracle():
    mat = np.random.default_rng(7).normal(size=(6, 4))
    assert operator_norm(mat) == pytest.approx(jacobi_spectral_norm(mat), rel=1e-8)


def test_operator_norm_matches_oracle_across_shapes():
    for seed, shape in enumerate([(3, 8), (8, 3), (5, 5), (12, 2)]):
        mat = np.random.default_rng(seed).normal(size=shape)
        assert operator_norm(mat) == pytest.approx(
            jacobi_spectral_norm(mat), rel=1e-8), f"shape {shape}"
    # two equal top singular values
    tied = _with_spectrum(np.random.default_rng(4), 7, 4, [5.0, 5.0, 1.0, 0.5])
    assert operator_norm(tied) == pytest.approx(
        jacobi_spectral_norm(tied), rel=1e-8)
    assert operator_norm(tied) == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300])
def test_operator_norm_matches_svd_at_extreme_scales(scale):
    # An unscaled Gram squares these entries past the float range: to inf
    # at 1e200, to 0 at 1e-200.
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    mixed = rng.normal(size=(30, 6))
    mixed[:, 2] *= 1e-200
    cases = [rng.normal(size=shape) for shape in [(40, 7), (7, 40), (1, 9), (9, 1)]]
    for mat in cases + [mixed]:
        mat = mat * scale
        assert operator_norm(mat) == pytest.approx(
            np.linalg.norm(mat, 2), rel=1e-13, abs=0.0), f"shape {mat.shape}"


def test_operator_norm_beyond_float_range_is_inf():
    mat = np.full((3, 3), 1.7e308)  # norm 5.1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operator_norm(mat) == np.linalg.norm(mat, 2) == np.inf


def test_projection_rank_one_is_identity():
    rng = np.random.default_rng(3)
    mat = np.outer(rng.normal(size=6), rng.normal(size=4))
    proj = projection(mat, 1)
    assert np.abs(proj - mat).max() < 1e-10


def test_projection_full_rank_is_identity():
    mat = np.random.default_rng(11).normal(size=(5, 3))
    proj = projection(mat, 3)
    assert np.abs(proj - mat).max() < 1e-10


def test_projection_matches_svd_oracle():
    rng = np.random.default_rng(22)
    cases = [
        (np.random.default_rng(21).normal(size=(4, 3)), 2),
        # wide (d > n): the left Gram branch
        (rng.normal(size=(20, 40)), 5),
        # a low-separation device shape whose leading singular values sit
        # within 2% of each other across the k boundary
        (_with_spectrum(rng, 125, 50, np.linspace(10.0, 9.0, 50)), 16),
    ]
    for mat, k in cases:
        proj = projection(mat, k)
        assert np.abs(proj - svd_truncation(mat, k)).max() < 1e-8, \
            f"shape {mat.shape}, k={k}"


def test_projection_idempotent():
    mat = np.random.default_rng(5).normal(size=(7, 5))
    once = projection(mat, 2)
    twice = projection(once, 2)
    assert np.abs(twice - once).max() < 1e-8


def test_projection_numerical_rank():
    mat = np.random.default_rng(9).normal(size=(10, 6))
    proj = projection(mat, 3)
    spectrum = np.linalg.svd(proj, compute_uv=False)
    assert proj.shape == mat.shape
    assert spectrum[3:].max() <= 1e-8 * spectrum[0]


@pytest.mark.parametrize("shape", [(30, 8), (8, 30)],
                         ids=["right_gram", "left_gram"])
def test_projection_coordinates_keep_distances(shape):
    mat = np.random.default_rng(13).normal(size=shape)
    coords, lift = top_k_projection(mat, 4)
    assert coords.shape == (shape[0], 4) and lift.shape == (4, shape[1])
    # the lift's rows are an orthonormal basis of the subspace
    assert np.abs(lift @ lift.T - np.eye(4)).max() < 1e-10
    truncated = svd_truncation(mat, 4)
    for i in range(shape[0]):
        assert np.allclose(np.linalg.norm(coords - coords[i], axis=1),
                           np.linalg.norm(truncated - truncated[i], axis=1),
                           rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
def test_projection_of_zero_matrix(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coords, lift = top_k_projection(np.zeros(shape), 2)
    assert not coords.any()
    assert np.isfinite(lift).all()


@pytest.mark.parametrize("k", [0, 4])
def test_projection_rank_out_of_range(k):
    mat = np.ones((5, 3))
    with pytest.raises(ValueError, match="rank"):
        top_k_projection(mat, k)


def test_pairwise_distances_match_broadcast_norm():
    rng = np.random.default_rng(7)
    grid = rng.integers(0, 3, size=(30, 2)).astype(float)  # exact ties
    repeated = np.repeat(rng.normal(size=(4, 6)), 3, axis=0)
    cases = [
        (rng.normal(size=(50, 9)), rng.normal(size=(12, 9))),
        (grid, grid[:7]),
        (repeated, repeated[::2]),
        (rng.normal(size=(1, 40)), rng.normal(size=(8, 40))),
        (rng.normal(size=(25, 40)), rng.normal(size=(1, 40))),
        (rng.normal(size=(17, 1)), rng.normal(size=(5, 1))),
        (np.asfortranarray(rng.normal(size=(40, 12))), rng.normal(size=(6, 12))),
        (rng.normal(size=(20, 5)) * 1e150, rng.normal(size=(4, 5)) * 1e150),
        (rng.normal(size=(20, 5)) * 1e-150, rng.normal(size=(4, 5)) * 1e-150),
    ]
    for a, b in cases:
        expected = np.linalg.norm(a[:, None] - b[None], axis=2)
        np.testing.assert_array_equal(pairwise_distances(a, b), expected)


def test_norm_ordering():
    for seed in range(30):
        mat = np.random.default_rng(seed).normal(size=(6, 4))
        op = operator_norm(mat)
        fro = np.linalg.norm(mat, "fro")
        rank = np.linalg.matrix_rank(mat)
        assert op <= fro + 1e-10
        assert fro <= np.sqrt(rank) * op + 1e-10


def test_row_subset_monotonicity():
    rng = np.random.default_rng(17)
    mat = rng.normal(size=(12, 5))
    full = operator_norm(mat)
    for _ in range(20):
        size = rng.integers(1, 12)
        rows = rng.choice(12, size=size, replace=False)
        assert operator_norm(mat[rows]) <= full + 1e-10


def test_eckart_young_spot_check():
    rng = np.random.default_rng(31)
    mat = rng.normal(size=(8, 6))
    k = 2
    best = operator_norm(mat - projection(mat, k))
    for _ in range(100):
        rival = rng.normal(size=(8, k)) @ rng.normal(size=(k, 6))
        assert best <= operator_norm(mat - rival) + 1e-8


def test_projection_cost_inequality_quick():
    # Full 100-pair sweep lives in the acceptance suite.
    rng = np.random.default_rng(41)
    for _ in range(20):
        n, d = int(rng.integers(5, 20)), int(rng.integers(3, 12))
        k = int(rng.integers(1, min(n, d) + 1))
        mat = rng.normal(size=(n, d))
        low_rank = rng.normal(size=(n, k)) @ rng.normal(size=(k, d))
        projected = projection(mat, k)
        lhs = np.linalg.norm(projected - low_rank, "fro") ** 2
        rhs = 8.0 * k * operator_norm(mat - low_rank) ** 2
        assert lhs <= rhs * (1 + 1e-9)


def test_validate_matrix_reshapes():
    with pytest.raises(ValueError, match="2-D"):
        validate_matrix(np.ones(4))
