import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kfed import datagen, linalg, local
from kfed.linalg import (_finite_scaled, operator_norm, top_k_projection,
                         validate_matrix)
from kfed.rng import Stream
from helpers import planted_instance, projection, spy_exact
from oracles import (eigh_projection, jacobi_spectral_norm, partition_nearest_each,
                     sequential_sq, svd_truncation)

SRC = Path(__file__).resolve().parent.parent / "src"


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


# input -> the error operator_norm and _finite_scaled raise
_BAD_INPUTS = {
    "nan": (_with_entry(np.nan), "matrix contains non-finite values"),
    "pos_inf": (_with_entry(np.inf), "matrix contains non-finite values"),
    "neg_inf": (_with_entry(-np.inf), "matrix contains non-finite values"),
    "one_d": (np.array([1.0, -6.0, 2.0]), "matrix must be 2-D, got shape (3,)"),
    "empty": (np.empty((0, 3)), "empty matrix"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_operator_norm_and_unit_scaled_on_bad_input(case):
    m, error = _BAD_INPUTS[case]
    for check in (operator_norm, _finite_scaled):
        with pytest.raises(ValueError) as err:
            check(m)
        assert type(err.value) is ValueError and str(err.value) == error
    # validate_matrix names its input, bar in "empty matrix"
    named = error.replace("matrix must", "data must").replace(
        "matrix contains", "data contains")
    with pytest.raises(ValueError) as err:
        validate_matrix(m, "data")
    assert str(err.value) == named


def test_operator_norm_and_unit_scaled_on_zero_and_negative_extremes():
    zeros = np.zeros((3, 2))
    scaled, exponent = _finite_scaled(zeros)
    assert (exponent, scaled.tobytes()) == (0, zeros.tobytes())
    assert operator_norm(zeros) == 0.0
    # the largest magnitude is a negative entry: it sets the power
    m = np.array([[-6.0, 0.0], [0.0, 1.0]])
    scaled, exponent = _finite_scaled(m)
    assert exponent == 3 and scaled.tolist() == [[-0.75, 0.0], [0.0, 0.125]]
    assert operator_norm(m) == 6.0
    for big in (-1e300, -1e-300):
        m = np.array([[big, 3.0 * abs(big) / 8.0], [abs(big) / 4.0, 0.0]])
        scaled, exponent = _finite_scaled(m)
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


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**600, 2.0**-600],
                         ids=["1e200", "1e-200", "2^600", "2^-600"])
@pytest.mark.parametrize("case", ["noise", "gapped"])
@pytest.mark.parametrize("shape", [(120, 40), (40, 120)],
                         ids=["right_gram", "left_gram"])
def test_projection_is_scale_free(shape, case, scale):
    # An unscaled Gram squares these entries past the float range: to inf
    # at 1e200 and 2^600, to 0 at 1e-200 and 2^-600. Normal rows take the
    # full eigh; a planted gap takes the certified iteration.
    rng = np.random.default_rng(60)
    if case == "noise":
        mat = rng.normal(size=shape)
    else:
        mat = _with_spectrum(rng, *shape, [10.0, 9.0, 8.0, 7.0] + [1e-4] * 36)
    coords, lift = top_k_projection(mat, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled_coords, scaled_lift = top_k_projection(mat * scale, 4)
    expected = (coords @ lift) * scale
    assert np.abs(scaled_coords @ scaled_lift - expected).max() <= \
        1e-14 * np.abs(expected).max()
    if math.frexp(scale)[0] == 0.5:         # a power of two: exact
        assert scaled_coords.tobytes() == (coords * scale).tobytes()
        assert scaled_lift.tobytes() == lift.tobytes()


# (planted_instance arguments, instances): the devices of table1_large
# (160 x 300, k=8) take the left Gram, those of acceptance 01 (160 x 100,
# k=4) the right; 40 devices each.
DEVICE_SHAPES = {
    "left_table1_large": (dict(k=64, d=300, per_cluster=100, m0=5,
                               group_size=8), 1),
    "right_acceptance_01": (dict(k=16, d=100, per_cluster=200, m0=5,
                                 group_size=4), 2),
}


def _devices(shape):
    kwargs, instances = DEVICE_SHAPES[shape]
    for seed in range(instances):
        _, data, _, partition = planted_instance(seed + 90, **kwargs)
        for z, rows in enumerate(partition.device_rows):
            yield z, data[rows], partition.k_per_device[z]


@pytest.fixture
def solver_calls(monkeypatch):
    """Input shapes of every ``np.linalg.eigh`` and ``np.linalg.qr`` call."""
    calls = {"eigh": [], "qr": []}
    for name, log in calls.items():
        def counted(a, *args, _real=getattr(np.linalg, name), _log=log,
                    **kwargs):
            _log.append(a.shape)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("shape", sorted(DEVICE_SHAPES))
def test_certified_projection_matches_eigh_oracle(shape, solver_calls):
    for _, rows, k in _devices(shape):
        size = min(rows.shape)
        solver_calls["eigh"].clear()
        coords, lift = top_k_projection(rows, k)
        assert (size, size) not in solver_calls["eigh"]     # certified
        ref_coords, ref_lift = eigh_projection(rows, k)
        # Sine of the largest principal angle between the two subspaces.
        sine = np.linalg.norm(lift.T - ref_lift.T @ (ref_lift @ lift.T), 2)
        assert sine <= 1e-12
        assert np.abs(coords @ lift - ref_coords @ ref_lift).max() <= \
            1e-12 * np.abs(rows).max()
        scaled = _finite_scaled(rows)[0]
        gram = scaled.T @ scaled if rows.shape[1] <= rows.shape[0] \
            else scaled @ scaled.T
        ritz = linalg._top_eigenpairs(gram, k)[0]
        exact = np.linalg.eigvalsh(gram)[-k:]
        assert np.abs(ritz - exact).max() <= 1e-13 * exact.max()


@pytest.mark.parametrize("shape", sorted(DEVICE_SHAPES))
def test_local_cluster_matches_eigh_reference_projection(shape, monkeypatch):
    # The certified coordinates move only in their last bits; seeding,
    # thresholding and the raw-row Lloyd give the same bits as with the
    # full-eigh projection.
    for z, rows, k in _devices(shape):
        result = local.local_cluster(rows, k, (5, z))
        with monkeypatch.context() as patch:
            patch.setattr(local, "top_k_projection", eigh_projection)
            reference = local.local_cluster(rows, k, (5, z))
        assert result.clusters.assignment.tobytes() == \
            reference.clusters.assignment.tobytes()
        assert result.centers.tobytes() == reference.centers.tobytes()
        assert result.lloyd_iterations == reference.lloyd_iterations
        assert result.unassigned_after_threshold == \
            reference.unassigned_after_threshold


def _exact_tie():
    # One nonzero per column: the right Gram is diagonal, with an exact tie
    # between its 4th and 5th largest entries.
    values = np.concatenate([[10.0, 9.0, 8.0, 7.0, 7.0],
                             np.linspace(3.0, 0.5, 55)])
    mat = np.zeros((200, 60))
    mat[np.random.default_rng(61).permutation(200)[:60], np.arange(60)] = values
    return mat


def _rank_deficient():
    # Rank 3 < k from three distinct rows, each repeated, and zero rows;
    # d > n, so the left Gram.
    distinct = np.random.default_rng(62).normal(size=(3, 200))
    return np.vstack([np.tile(distinct, (15, 1)), np.zeros((15, 200))])


def _slow_convergence():
    # λ_5..λ_9 sum to 44.4 < λ_4 = 49, so the Ky Fan gap is positive, but
    # with λ_9/λ_4 = 0.18 three steps leave the residual far above ε·δ.
    return _with_spectrum(np.random.default_rng(67), 200, 60,
                          [10.0, 9.0, 8.0, 7.0] + [2.98] * 5 + [1e-3] * 51)


# name -> (rows, k, whether the iteration is tried before the full eigh)
FALLBACKS = {
    "exact_tie": (_exact_tie(), 4, True),
    "slow_convergence": (_slow_convergence(), 4, True),
    "rank_deficient": (_rank_deficient(), 4, True),
    "k_full_right": (np.random.default_rng(63).normal(size=(30, 12)), 12,
                     False),
    "k_full_left": (np.random.default_rng(64).normal(size=(12, 30)), 12,
                    False),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_projection_falls_back_to_full_eigh(case, solver_calls):
    mat, k, tried = FALLBACKS[case]
    size = min(mat.shape)
    coords, lift = top_k_projection(mat, k)
    assert solver_calls["eigh"].count((size, size)) == 1
    assert len(solver_calls["qr"]) == (linalg._BLOCK_STEPS if tried else 0)
    ref_coords, ref_lift = eigh_projection(mat, k)
    assert coords.tobytes() == ref_coords.tobytes()
    assert lift.tobytes() == ref_lift.tobytes()


def test_top_eigenvector_hidden_from_start_block_takes_full_eigh(solver_calls):
    # The top eigenvector u is orthogonal to the fixed start block, so the
    # iteration converges, to working precision, onto the next four
    # eigenvectors. Their residual alone would pass; the Ky Fan bound
    # τ = trace − Σθ = 8 lies above θ_k = 1.5 and sends it to the full eigh.
    n, k = 40, 4
    start = Stream(linalg._START_KEY).normals(
        (n, linalg._OVERSAMPLE * k))
    span = np.linalg.qr(start)[0]
    rng = np.random.default_rng(66)
    u = rng.normal(size=n)
    u -= span @ (span.T @ u)
    u /= np.linalg.norm(u)
    basis = np.linalg.qr(np.column_stack([u, rng.normal(size=(n, 8))]))[0]
    basis[:, 0] = u
    gram = (basis * [4.0, 3.0, 2.5, 2.0, 1.5, 1.0, 1.0, 1.0, 1.0]) @ basis.T
    gram = (gram + gram.T) / 2.0
    solver_calls["qr"].clear()
    values, vectors = linalg._top_eigenpairs(gram, k)
    assert solver_calls["eigh"].count((n, n)) == 1
    assert len(solver_calls["qr"]) == linalg._BLOCK_STEPS
    assert np.allclose(values, [2.0, 2.5, 3.0, 4.0], rtol=0.0, atol=1e-13)
    assert abs(np.linalg.norm(vectors.T @ u) - 1.0) <= 1e-13


def test_projection_narrow_gram_makes_no_attempt(solver_calls):
    # A lowsep_iid device: 120 rows of d=50 and k=16, so a 50 x 50 right
    # Gram, narrower than four 32-column blocks.
    spec = datagen.MixtureSpec(k=16, d=50, n=2400, sigma_max=1.0, seed=65,
                               mean_mode="sigma", c=4.0, m0=5.0)
    data, _ = datagen.generate_mixture(spec)
    rows = data[datagen.iid_partition(2400, 20, 65).device_rows[0]]
    coords, lift = top_k_projection(rows, 16)
    assert solver_calls == {"eigh": [(50, 50)], "qr": []}
    ref_coords, ref_lift = eigh_projection(rows, 16)
    assert coords.tobytes() == ref_coords.tobytes()
    assert lift.tobytes() == ref_lift.tobytes()


@pytest.mark.parametrize("shape", sorted(DEVICE_SHAPES))
def test_certified_projection_is_deterministic(shape):
    _, rows, k = next(_devices(shape))
    first = top_k_projection(rows, k)
    again = top_k_projection(rows.copy(), k)
    assert [part.tobytes() for part in first] == \
        [part.tobytes() for part in again]


def test_pairwise_distances_match_broadcast_norm():
    # The one exact kernel gives each pair's squared distance as the
    # broadcast differences squared and added one column at a time, in
    # either layout: exact ties, one row, one column, scales 1e±150, and
    # squares beyond the float range, which are inf without a warning.
    rng = np.random.default_rng(7)
    grid = rng.integers(0, 3, size=(30, 2)).astype(float)  # exact ties
    repeated = np.repeat(rng.normal(size=(4, 6)), 3, axis=0)
    huge = rng.normal(size=(20, 5)) * 1e200
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
        (huge, -huge[:4]),
    ]
    for a, b in cases:
        want = sequential_sq(a, b)
        for layout in (a, np.asfortranarray(a)):
            assert linalg._exact_sq(layout, b).tobytes() == want.tobytes()
    assert np.isinf(sequential_sq(huge, -huge[:4])).all()


def test_exact_kernel_loads_scipy_only_when_a_certificate_fails():
    # After the import and a whole acceptance-01 run, every decision of
    # which is certified, no scipy module is loaded; a planted tie (row 1
    # midway between the centers) sends Lloyd to the exact kernel, which
    # loads scipy.spatial.distance.
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import kfed, kfed.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [scipy_modules()]\n"
        "spec = kfed.MixtureSpec(k=16, d=100, n=3200, sigma_max=1.0, seed=0,\n"
        "                        mean_mode='auto', c=100.0, m0=5.0)\n"
        "data, truth = kfed.generate_mixture(spec)\n"
        "partition = kfed.structured_partition(truth, kfed.PartitionSpec(\n"
        "    mode='structured', m0=5, group_size=4))\n"
        "kfed.run_kfed(partition, data, seed=0)\n"
        "seen.append(scipy_modules())\n"
        "kfed.lloyd_iterate(np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [2.0]]))\n"
        "seen.append('scipy.spatial.distance' in sys.modules)\n"
        "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    # after the import, after the certified run, after the planted tie
    assert json.loads(proc.stdout) == [[], [], True]


def test_nearest_matches_exact_argmin(monkeypatch):
    calls = spy_exact(monkeypatch)
    rng = np.random.default_rng(72)
    paths = {"certified": 0, "fallback": 0}
    for case in range(480):
        width = case % 40 + 1
        k = 1 if case % 10 == 0 else int(rng.integers(2, 10))
        n = int(rng.integers(1, 50))
        if case % 3 == 0:                   # integer grid: exact ties
            centers = rng.integers(-3, 4, size=(k, width)).astype(float)
        else:
            centers = rng.normal(size=(k, width))
        if k > 1 and case % 4 == 1:         # duplicate centers
            centers[-1] = centers[0]
        rows = rng.normal(size=(n, width)) * 2.0
        if k > 1 and case % 5 < 3:          # midpoints, exact or nudged
            pair = rng.integers(0, k, size=(n, 2))
            nudge = [0.0, 1e-12, -1e-12][case % 5]
            near = (centers[pair[:, 0]] + centers[pair[:, 1]]) / 2.0 \
                + nudge * (centers[pair[:, 0]] - centers[pair[:, 1]])
            planted = rng.random(n) < 0.5
            rows[planted] = near[planted]
        scale = [1.0, 1.0, 1e150, 1e-150][case // 3 % 4]
        rows, centers = rows * scale, centers * scale
        if case % 2:
            rows = np.asfortranarray(rows)
        calls.clear()
        got = linalg._nearest_each(rows[None], centers[None, None],
                                   np.einsum("nd,nd->n", rows, rows)[None])[0, 0]
        assert (got == sequential_sq(rows, centers).argmin(axis=1)).all()
        paths["fallback" if calls else "certified"] += 1
    assert paths["certified"] >= 150 and paths["fallback"] >= 50
    # Squares that overflow, or that all underflow to zero, always fall back.
    for scale in (2.0 ** 600, 2.0 ** -600, 1e200):
        rows = rng.normal(size=(30, 7)) * scale
        centers = rows[:4] * 0.5
        calls.clear()
        got = linalg._nearest_each(rows[None], centers[None, None],
                                   np.einsum("nd,nd->n", rows, rows)[None])[0, 0]
        assert (got == sequential_sq(rows, centers).argmin(axis=1)).all()
        assert calls == [rows.shape]


def _set_spy(monkeypatch):
    """Spy on ``linalg._exact_sq``: returns ``calls`` and ``watch``.
    ``watch(centers)`` empties ``calls``; each later call then records the
    (matrix, set) index of its center set, a view of one set of the
    C-ordered (D, R, k, w) ``centers``."""
    calls, watched = [], []
    exact = linalg._exact_sq

    def spy(a, b):
        centers = watched[-1]
        offset = (b.__array_interface__["data"][0]
                  - centers.__array_interface__["data"][0])
        calls.append(divmod(offset // b.nbytes, centers.shape[1]))
        return exact(a, b)

    def watch(centers):
        calls.clear()
        watched.append(centers)
    monkeypatch.setattr(linalg, "_exact_sq", spy)
    return calls, watch


def _nearest_stack(rng, devices, runs, k, case):
    """Rows (D, n, w) and centers (D, R, k, w) with planted exact ties,
    midpoints nudged by ±1e-12, duplicate centers and Fortran rows."""
    width, n = int(rng.integers(1, 20)), int(rng.integers(1, 40))
    if case % 3 == 0:                       # integer grid: exact ties
        centers = rng.integers(-3, 4, size=(devices, runs, k, width)).astype(float)
    else:
        centers = rng.normal(size=(devices, runs, k, width))
    if k > 1 and case % 4 == 1:             # duplicate centers
        centers[:, :, -1] = centers[:, :, 0]
    rows = rng.normal(size=(devices, n, width)) * 2.0
    if k > 1 and case % 5 < 3:              # midpoints of set 0, exact or nudged
        pair = rng.integers(0, k, size=(devices, n, 2))
        first = np.take_along_axis(centers[:, 0], pair[..., :1], axis=1)
        second = np.take_along_axis(centers[:, 0], pair[..., 1:], axis=1)
        nudge = [0.0, 1e-12, -1e-12][case % 5]
        planted = rng.random((devices, n, 1)) < 0.5
        rows = np.where(planted, (first + second) / 2.0 + nudge * (first - second),
                        rows)
    if case % 2:
        rows = np.stack([np.asfortranarray(m) for m in rows])
    return rows, centers


def test_nearest_decides_as_the_partition_kernel(monkeypatch):
    # The kernel that reduces along the k axis keeps the labels of the
    # partition-based kernel and falls back on the same (matrix, set)
    # pairs, on stacks, planted ties and scales that over- and underflow.
    calls, watch = _set_spy(monkeypatch)
    rng = np.random.default_rng(77)
    paths = {"certified": 0, "mixed": 0, "fallback": 0}
    for case in range(240):
        scale = [1.0, 1e150, 1e-150, 2.0 ** 600, 2.0 ** -600][case % 5]
        devices, runs = [1, 3, 40][case // 5 % 3], [1, 5][case // 15 % 2]
        k = 1 if case // 30 % 3 == 0 else int(rng.integers(2, 17))
        rows, centers = _nearest_stack(rng, devices, runs, k, case)
        rows, centers = rows * scale, np.ascontiguousarray(centers * scale)
        a_sq = np.einsum("mnd,mnd->mn", rows, rows)
        # the rows laid out for the product: a view, or a C-ordered copy
        a_t = np.ascontiguousarray(np.swapaxes(rows, 1, 2)) if case // 2 % 2 else None
        watch(centers)
        got = linalg._nearest_each(rows, centers, a_sq, a_t)
        want, want_calls = partition_nearest_each(rows, centers, a_sq)
        assert got.tobytes() == want.tobytes()
        assert calls == want_calls
        fell = len(calls)
        paths["certified" if not fell else
              "fallback" if fell == devices * runs else "mixed"] += 1
    assert min(paths.values()) >= 20
    # Norms near 2^511: the bound overflows while F does not, and a lone
    # center still falls back.
    rows = (1.0 + rng.normal(size=(2, 30, 3)) * 1e-3) * 2.0 ** 510
    centers = np.ascontiguousarray(rows[:, None, :1])
    a_sq = np.einsum("mnd,mnd->mn", rows, rows)
    watch(centers)
    got = linalg._nearest_each(rows, centers, a_sq)
    assert calls == [(0, 0), (1, 0)] and not got.any()


def test_start_block_is_cached_and_read_only():
    first = linalg._start_block(40, 8)
    assert first is linalg._start_block(40, 8)
    assert first.tobytes() == linalg._start_block.__wrapped__(40, 8).tobytes()
    assert first.tobytes() == Stream(linalg._START_KEY).normals((40, 8)).tobytes()
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0


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
