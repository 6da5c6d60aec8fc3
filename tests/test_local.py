import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from kfed import linalg, local
from kfed.datagen import DevicePartition, MixtureSpec, generate_mixture, iid_partition
from kfed.evaluation import kmeans_cost, matched_accuracy
from kfed.federation import run_kfed
from kfed.linalg import operator_norm
from kfed.local import (Clustering, approx_seed, cluster_means, lloyd_iterate,
                        local_cluster, threshold_assign)
from kfed.rng import Stream
import oracles
from helpers import planted_instance, projection, spy_exact
from oracles import (brute_force_kmeans, dspace_local_cluster, per_restart_seed,
                     scalar_dsq_sample, sequential_sq, single_lloyd)


def _as_center_set(centers):
    return {tuple(np.round(row, 9)) for row in centers}


# ---------------------------------------------------------------------------
# approx_seed

def test_approx_seed_recovers_exact_copies():
    base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    data = np.repeat(base, 3, axis=0)
    centers = approx_seed(projection(data, 2), 3, seed=1)
    assert _as_center_set(centers) == _as_center_set(base)


def test_approx_seed_within_ten_x_of_bruteforce():
    rng = np.random.default_rng(8)
    data = np.concatenate([rng.normal(size=(4, 2)),
                           rng.normal(size=(4, 2)) + [8.0, 0.0]])
    centers = approx_seed(projection(data, 2), 2, seed=3)
    # cost of assigning the rows to the returned centers, no refinement
    seed_cost = float(((data[:, None, :] - centers[None]) ** 2)
                      .sum(axis=2).min(axis=1).sum())
    optimal, _ = brute_force_kmeans(data, 2)
    assert seed_cost <= 10.0 * optimal + 1e-9


def test_approx_seed_single_repeated_point():
    data = np.tile([[2.0, -1.0]], (6, 1))
    centers = approx_seed(data, 1, seed=0)
    assert np.allclose(centers, [[2.0, -1.0]])


def test_approx_seed_insufficient_distinct_points():
    data = np.tile([[1.0, 1.0]], (5, 1))
    with pytest.raises(ValueError, match="insufficient distinct points"):
        approx_seed(data, 2, seed=0)


def test_approx_seed_deterministic():
    data = np.random.default_rng(12).normal(size=(15, 3))
    a = approx_seed(data, 3, seed=7)
    b = approx_seed(data, 3, seed=7)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# threshold_assign

def test_threshold_point_on_center_is_kept():
    data = np.array([[0.0, 0.0]])
    centers = np.array([[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]])
    labels, theta = threshold_assign(data, centers)
    assert labels.tolist() == [0]
    assert np.allclose(theta[0], [0.0, 0.0])


def test_threshold_equidistant_point_unassigned():
    data = np.array([[0.5, 0.0]])
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    labels, theta = threshold_assign(data, centers)
    assert labels.tolist() == [2]   # k: in no set
    # fallback: empty sets keep the input centers
    assert np.allclose(theta, centers)


def test_threshold_matches_scalar_oracle():
    rng = np.random.default_rng(20)
    data = rng.normal(size=(20, 3))
    centers = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    labels, _ = threshold_assign(data, centers)
    for i in range(20):
        expected = 2
        for r in range(2):
            d_r = np.linalg.norm(data[i] - centers[r])
            others = [np.linalg.norm(data[i] - centers[s]) for s in range(2) if s != r]
            if all(d_r <= d_s / 3.0 for d_s in others):
                expected = r
        assert labels[i] == expected


def test_threshold_sets_disjoint_fuzz():
    # Each row's label is the one set the three-times rule puts it in, or
    # k where it puts the row in none.
    rng = np.random.default_rng(33)
    for _ in range(25):
        data = rng.normal(size=(30, 4))
        centers = rng.normal(size=(4, 4)) * 3.0
        labels, _ = threshold_assign(data, centers)
        assert labels.shape == (30,)
        dist = np.linalg.norm(data[:, None] - centers[None], axis=2)
        for row, label in zip(dist, labels):
            decisive = [r for r in range(4)
                        if all(3.0 * row[r] <= row[s] for s in range(4) if s != r)]
            assert label == (decisive[0] if decisive else 4)


def test_stacked_threshold_gives_each_device_its_own_labels():
    rng = np.random.default_rng(34)
    for case in range(12):
        devices, n, k = 1 + case % 4, 5 + 7 * case, 2 + case % 3
        stack = rng.normal(size=(devices, n, k))
        centers = rng.normal(size=(devices, k, k)) * 3.0
        # rows on the midpoint of two centers land in no set
        stack[:, : n // 4] = (centers[:, :1] + centers[:, 1:2]) / 2.0
        if case % 2:
            stack = np.asfortranarray(stack)
        labels, theta = threshold_assign(stack, centers)
        assert labels.shape == (devices, n)
        for m in range(devices):
            alone, alone_theta = threshold_assign(stack[m], centers[m])
            assert labels[m].tobytes() == alone.tobytes()
            assert theta[m].tobytes() == alone_theta.tobytes()
        assert (labels[:, : n // 4] == k).all()


def test_threshold_duplicate_centers_error():
    data = np.zeros((3, 2))
    centers = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="distinct"):
        threshold_assign(data, centers)


def _threshold_stack(rng, devices, k):
    """Rows (D, n, w) near distinct centers (D, k, w), on an integer grid
    or not; in about half the devices a third of the rows sit at distance
    ratio 3 from a center and its nearest other center (exactly, or
    nudged by ±1e-12 or ±1e-13 relative) or on their midpoint."""
    width, n = int(rng.integers(1, 9)), int(rng.integers(6, 60))
    grid = rng.random() < 0.5
    centers = np.empty((devices, k, width))
    for m in range(devices):
        while True:                         # draw until the rows are distinct
            centers[m] = (4.0 * rng.integers(-4, 5, size=(k, width)) if grid
                          else rng.normal(size=(k, width)) * 3.0)
            if not local._has_equal_rows(centers[m]):
                break
    owner = rng.integers(0, k, size=(devices, n))
    first = np.take_along_axis(centers, owner[..., None], axis=1)
    rows = first + rng.normal(size=first.shape) * rng.choice([0.1, 1.0, 5.0])
    if k > 1:
        gaps = np.linalg.norm(centers[:, :, None] - centers[:, None], axis=3)
        gaps[:, np.arange(k), np.arange(k)] = np.inf
        other = np.take_along_axis(gaps.argmin(axis=2), owner, axis=1)
        second = np.take_along_axis(centers, other[..., None], axis=1)
        at = 0.25 * (1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-13, -1e-13, 1.0]))
        planted = ((rng.random((devices, 1, 1)) < 0.5)
                   & (rng.random((devices, n, 1)) < 1 / 3))
        rows = np.where(planted, first + (second - first) * at, rows)
    return rows, centers


def test_certified_threshold_matches_the_exact_threshold(monkeypatch):
    # Labels and set means are the exact rule's bit for bit: planted rows at
    # distance ratio 3 (exact, nudged), midpoints, stacks of 1 and 40, and
    # scales whose squares over- or underflow at the input's scale. At 2^±600
    # they are the scale-1 rule's labels, and its means times the scale.
    rng = np.random.default_rng(78)
    exact_calls = spy_exact(monkeypatch)
    certified = fell = 0
    for case in range(180):
        scale = [1.0, 1e150, 1e-150, 2.0 ** 600, 2.0 ** -600][case % 5]
        devices, k = [1, 40][case // 5 % 2], [1, 2, 8][case // 10 % 3]
        rows, centers = _threshold_stack(rng, devices, k)
        # the oracle's squares over- or underflow at 2^±600: it takes the
        # scale-1 rows there, and its means are scaled exactly
        base = 1.0 if scale in (2.0 ** 600, 2.0 ** -600) else scale
        want_labels, want_theta = oracles.exact_threshold(rows * base, centers * base)
        want_theta = want_theta * (scale / base)
        rows, centers = rows * scale, centers * scale
        if case % 4 == 3:
            rows = np.asfortranarray(rows)
        exact_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, theta = threshold_assign(rows, centers)
        fell += len(exact_calls)
        certified += devices - len(exact_calls)
        assert labels.tobytes() == want_labels.tobytes()
        assert theta.tobytes() == want_theta.tobytes()
    assert certified >= 1500 and fell >= 400


def test_threshold_at_extreme_scale_gives_the_scale_one_sets():
    # Rows near 0 sit about as far from both centers, so no row is in a
    # set, and each empty set keeps its center. The rows and centers are
    # scaled together, so squares that would over- or underflow at the
    # input's scale still tell that, instead of putting every row in set 0.
    rows = np.random.default_rng(79).normal(size=(6, 2)) * 1e-3
    for scale in (1.0, 1e200, 1e-200, 2.0 ** 600, 2.0 ** -600):
        centers = np.array([[1.0, 0.0], [-1.0, 1.0]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data, center_stack in [(rows * scale, centers),
                                       (np.stack([rows] * 3) * scale,
                                        np.stack([centers] * 3))]:
                labels, theta = threshold_assign(data, center_stack)
                assert (labels == 2).all()
                assert theta.tobytes() == center_stack.tobytes()


# ---------------------------------------------------------------------------
# lloyd_iterate

def test_lloyd_fixed_point():
    data = np.array([[0.0], [2.0]])
    result = lloyd_iterate(data, np.array([[0.0], [2.0]]))
    assert np.array_equal(result.assignment, [0, 1])
    assert np.allclose(result.centers, [[0.0], [2.0]])
    assert kmeans_cost(data, result) == 0.0


def test_lloyd_obvious_halves():
    data = np.array([[0.0], [1.0], [10.0], [11.0]])
    result = lloyd_iterate(data, np.array([[0.4], [10.6]]))
    assert np.allclose(result.centers, [[0.5], [10.5]])
    assert kmeans_cost(data, result) == pytest.approx(1.0)


def _hand_lloyd(data, centers, tol=1e-7, max_iter=500):
    """Step-by-step simulation with the documented tie and empty rules."""
    centers = [np.array(c, dtype=float) for c in centers]
    labels = None
    for _ in range(max_iter):
        labels = []
        for x in data:
            dists = [float(np.linalg.norm(x - c)) for c in centers]
            labels.append(int(np.argmin(dists)))
        moved = 0.0
        new_centers = []
        for r, c in enumerate(centers):
            members = [data[i] for i in range(len(data)) if labels[i] == r]
            nc = np.mean(members, axis=0) if members else c
            moved = max(moved, float(np.linalg.norm(nc - c)))
            new_centers.append(nc)
        centers = new_centers
        if moved < tol:
            break
    return np.array(labels), np.array(centers)


def test_lloyd_matches_hand_simulation_and_bruteforce():
    data = np.random.default_rng(44).normal(size=(10, 1)) * 3.0
    init = np.array([[-1.0], [1.0]])
    result = lloyd_iterate(data, init)
    hand_labels, hand_centers = _hand_lloyd(data, init)
    assert np.array_equal(result.assignment, hand_labels)
    assert np.allclose(result.centers, hand_centers, atol=1e-12)
    optimal, _ = brute_force_kmeans(data, 2)
    assert kmeans_cost(data, result) >= optimal - 1e-9


def test_lloyd_cost_monotone():
    rng = np.random.default_rng(55)
    for _ in range(10):
        data = rng.normal(size=(40, 3))
        init = data[rng.choice(40, size=3, replace=False)]
        costs = [kmeans_cost(data, lloyd_iterate(data, init, max_iter=t))
                 for t in range(1, 16)]
        assert all(costs[i + 1] <= costs[i] + 1e-9 for i in range(len(costs) - 1))


def test_lloyd_empty_cluster_keeps_center():
    data = np.array([[0.0], [0.1]])
    far = np.array([[0.05], [50.0]])
    result = lloyd_iterate(data, far)
    assert np.allclose(result.centers[1], [50.0])


# ---------------------------------------------------------------------------
# local_cluster

def test_local_cluster_two_far_clusters_exact():
    rng = np.random.default_rng(0)
    shift = np.zeros(20)
    shift[0] = 50.0
    data = np.concatenate([rng.normal(size=(100, 20)),
                           shift + rng.normal(size=(100, 20))])
    result = local_cluster(data, 2, seed=5)
    truth = np.repeat([0, 1], 100)
    assert matched_accuracy(result.clusters, truth).accuracy == 1.0
    # centers equal the assignment means on termination
    for r in range(2):
        members = result.clusters.members(r)
        assert np.allclose(result.centers[r], data[members].mean(axis=0),
                           atol=1e-8)


def test_local_cluster_k_one_returns_global_mean():
    data = np.random.default_rng(2).normal(size=(30, 4))
    result = local_cluster(data, 1, seed=9)
    assert np.allclose(result.centers[0], data.mean(axis=0), atol=1e-10)
    assert np.array_equal(result.clusters.assignment, np.zeros(30, dtype=int))


def test_local_cluster_device_subproblem_accuracy():
    # One device's share of a strongly separated mixture: 4 components.
    hits = []
    for seed in range(10):
        _, data, truth, _ = planted_instance(seed, k=4, d=100, per_cluster=40,
                                             m0=1, group_size=4)
        result = local_cluster(data, 4, seed=seed)
        hits.append(matched_accuracy(result.clusters, truth.assignment).accuracy)
    assert np.mean(hits) >= 0.99


def test_local_cluster_deterministic():
    data = np.random.default_rng(3).normal(size=(25, 5))
    a = local_cluster(data, 3, seed=11)
    b = local_cluster(data, 3, seed=11)
    assert np.array_equal(a.clusters.assignment, b.clusters.assignment)
    assert np.array_equal(a.centers, b.centers)
    assert a.lloyd_iterations == b.lloyd_iterations


def test_local_cluster_insufficient_points():
    data = np.tile([[1.0, 2.0]], (4, 1))
    with pytest.raises(ValueError, match="insufficient distinct points"):
        local_cluster(data, 2, seed=0)


def test_local_center_accuracy_bound():
    # On well-separated instances the final centers sit within
    # (25 / c) * op_norm / sqrt(cluster size) of the true subset means.
    c = 100.0
    for seed in range(50):
        _, data, truth, _ = planted_instance(seed, k=3, d=20, per_cluster=40,
                                             m0=1, group_size=3, c=c)
        result = local_cluster(data, 3, seed=seed)
        centered = data - truth.centers[truth.assignment]
        op = operator_norm(centered)
        for r in range(3):
            members = truth.members(r)
            true_mean = data[members].mean(axis=0)
            gap = np.linalg.norm(result.centers - true_mean, axis=1).min()
            assert gap <= (25.0 / c) * op / np.sqrt(members.size) + 1e-9


# (planted_instance arguments, devices per instance): each device's rows and
# its cluster count go to local_cluster; d > rows projects through the left
# Gram, d <= rows through the right.
SUBSPACE_SHAPES = {
    "right_separated": (dict(k=9, d=24, per_cluster=45, m0=3, group_size=3), 2),
    "right_lowsep": (dict(k=16, d=50, per_cluster=150, m0=5, group_size=4,
                          c=4.0, mean_mode="sigma"), 2),
    "left_separated": (dict(k=16, d=100, per_cluster=40, m0=2, group_size=4), 2),
    "left_lowsep": (dict(k=8, d=60, per_cluster=20, m0=2, group_size=4,
                         c=4.0, mean_mode="sigma"), 2),
}


@pytest.mark.parametrize("shape", sorted(SUBSPACE_SHAPES))
def test_local_cluster_matches_dspace_reference(shape):
    # Seeding and thresholding in subspace coordinates reproduce the d-space
    # path bit for bit: same assignment, same centers, same unassigned rows.
    kwargs, devices = SUBSPACE_SHAPES[shape]
    sides = set()
    for seed in range(2):
        _, data, _, partition = planted_instance(seed + 70, **kwargs)
        for z in range(devices):
            rows = data[partition.device_rows[z]]
            k = partition.k_per_device[z]
            sides.add("left" if rows.shape[1] > rows.shape[0] else "right")
            result = local_cluster(rows, k, (seed, z))
            reference, unassigned = dspace_local_cluster(rows, k, (seed, z))
            assert result.clusters.assignment.tobytes() == \
                reference.assignment.tobytes()
            assert result.centers.tobytes() == reference.centers.tobytes()
            assert result.unassigned_after_threshold == unassigned
    assert sides == {shape.split("_")[0]}


def _snap_small_eigenvalues(eigh):
    """``eigh`` whose round-off eigenvalues are exactly zero."""
    def snapped(gram):
        values, vectors = eigh(gram)
        return np.where(values <= 1e-9 * values.max(), 0.0, values), vectors
    return snapped


# (rows, k): rank 1 with d > rows (left Gram, two null directions among the
# top 3), and rank 2 with d <= rows (right Gram, one null direction).
RANK_DEFICIENT = {
    "collinear_left": (np.outer(np.arange(1.0, 7.0),
                                np.linspace(-1.0, 2.0, 10)), 3),
    "plane_right": (np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0],
                              [5.0, 5.0], [6.0, 4.0]])
                    @ np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 1.0]]), 3),
}


@pytest.mark.parametrize("snap", [False, True], ids=["lapack", "exact_zero"])
@pytest.mark.parametrize("case", sorted(RANK_DEFICIENT))
def test_local_cluster_rank_deficient_device(case, snap, monkeypatch):
    data, k = RANK_DEFICIENT[case]
    if snap:
        monkeypatch.setattr(np.linalg, "eigh",
                            _snap_small_eigenvalues(np.linalg.eigh))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = local_cluster(data, k, seed=4)
    assert np.isfinite(result.centers).all()
    labels = result.clusters.assignment
    assert labels.shape == (data.shape[0],)
    assert np.array_equal(np.unique(labels), np.arange(k))
    optimal, _ = brute_force_kmeans(data, k)
    assert kmeans_cost(data, result.clusters) <= 10.0 * optimal + 1e-9


def test_cluster_means_bit_identical_to_masked_mean():
    rng = np.random.default_rng(40)
    data = rng.normal(size=(300, 7)) * 1e3
    labels = rng.integers(0, 5, size=300)
    labels[labels == 3] = 4                     # label 3 absent
    means, sizes = cluster_means(data, labels, 6)
    assert sizes.tolist() == np.bincount(labels, minlength=6).tolist()
    for r in (0, 1, 2, 4):
        assert means[r].tobytes() == data[labels == r].mean(axis=0).tobytes()
    assert np.isnan(means[[3, 5]]).all()
    # Width 1 and widths above k take the masked loop, widths 2..k the
    # bincount; C- and Fortran-ordered rows, one label always absent.
    for width in (1, 2, 16, 32, 33, 64, 300):
        for k in sorted({2, max(width - 1, 2), max(width, 2), width + 3}):
            for n in (k, 3 * k + 5):
                data = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 4)
                labels = rng.integers(0, k, size=n)
                labels[labels == k - 1] = 0             # label k-1 absent
                for rows in (data, np.asfortranarray(data)):
                    means, sizes = cluster_means(rows, labels, k)
                    assert sizes.tolist() == np.bincount(labels, minlength=k).tolist()
                    for r in np.flatnonzero(sizes):
                        assert means[r].tobytes() == \
                            rows[labels == r].mean(axis=0).tobytes()
                    assert np.isnan(means[sizes == 0]).all()
                    assert sizes[k - 1] == 0


def test_clustering_from_labels_requires_members():
    data = np.ones((3, 2))
    with pytest.raises(ValueError, match="no members"):
        Clustering.from_labels(data, np.array([0, 0, 0]), 2)


def test_has_equal_rows_matches_unique():
    rng = np.random.default_rng(41)
    for _ in range(300):
        k, width = rng.integers(1, 9), rng.integers(1, 9)
        centers = rng.integers(-1, 2, size=(k, width)).astype(float)
        assert bool(local._has_equal_rows(centers)) == \
            (np.unique(centers, axis=0).shape[0] < k)
    signed = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 3.0]])
    assert np.unique(signed, axis=0).shape[0] == 2
    assert local._has_equal_rows(signed)
    stack = np.stack([signed, signed + [[0.0, 0.0], [0.0, 5.0], [0.0, 0.0]],
                      np.eye(3, 2)])
    assert local._has_equal_rows(stack).tolist() == [True, False, False]


def _fuzz_rows(rng, n, width):
    """Blobs at random scale, some rounded to integers (duplicate rows, ties)."""
    blobs = rng.integers(1, 6)
    centers = rng.normal(size=(blobs, width)) * rng.choice([1.0, 5.0, 50.0])
    data = centers[rng.integers(0, blobs, size=n)] + rng.normal(size=(n, width))
    return np.round(data) if rng.random() < 0.3 else data


def test_multi_start_lloyd_matches_per_start_oracle(monkeypatch):
    rng = np.random.default_rng(42)
    iteration_spreads = emptied = raised = 0
    # Each step labels all active starts from one certified product; a start
    # the bound cannot settle takes the exact kernel alone.
    exact_calls = spy_exact(monkeypatch, lambda a, b: b.copy())
    certified = {"narrow": 0, "wide": 0}
    fallbacks = mixed = 0
    for case in range(220):
        n, width = int(rng.integers(5, 401)), int(rng.integers(1, 34))
        k = int(rng.integers(1, min(16, n) + 1))
        data = _fuzz_rows(rng, n, width)
        if case % 2:
            data = np.asfortranarray(data)
        # Arbitrary starts: data rows (repeats allowed) or points beyond the
        # data's span, which can leave a cluster without members.
        runs = int(rng.integers(1, 6))
        lo, hi = data.min(axis=0), data.max(axis=0)
        starts = np.stack([
            data[rng.integers(0, n, size=k)] if rng.random() < 0.5
            else lo + (hi - lo + 1.0) * rng.uniform(-0.5, 1.5, size=(k, width))
            for _ in range(runs)])
        plant = np.random.default_rng([42, case])
        forced = None
        if case % 3 == 1 and k > 1:
            # Rows at midpoints of two centers of one start, exact or
            # nudged; and one start whose first center repeats as its last
            # and sits on a row, a tie at distance 0 that it cannot certify.
            rows = plant.choice(n, size=max(1, n // 4), replace=False)
            r = int(plant.integers(0, runs))
            a, b = plant.integers(0, k, size=(2, rows.size))
            nudge = plant.choice([0.0, 1e-12, -1e-12])
            data[rows] = ((starts[r, a] + starts[r, b]) / 2.0
                          + nudge * (starts[r, a] - starts[r, b]))
            forced = int(plant.integers(0, runs))
            starts[forced, -1] = starts[forced, 0]
            data[rows[0]] = starts[forced, 0]
        elif case % 3 == 2 and k > 2:
            # A collapsed start: two equal centers far from every row.
            starts[int(plant.integers(0, runs)), -2:] = np.abs(data).max() * 1e6 + 1.0
        max_iter = 2 if case % 7 == 0 else local.DEFAULT_MAX_ITER
        exact_calls.clear()
        labels, centers, iterations = (out[0] for out in local._lloyd(
            data[None], starts[None], local.DEFAULT_TOL, max_iter))
        # every start is labeled once per step it takes
        certified["narrow" if width <= k else "wide"] += (int(iterations.sum())
                                                         - len(exact_calls))
        fallbacks += len(exact_calls)
        if forced is not None:
            assert any(np.array_equal(c, starts[forced]) for c in exact_calls)
            mixed += len(exact_calls) < iterations.sum()
        assert labels.shape == (runs, n) and centers.shape == (runs, k, width)
        for r in range(runs):
            ref_labels, ref_centers, ref_iter, ref_emptied = single_lloyd(
                data, starts[r], max_iter=max_iter)
            assert labels[r].tobytes() == ref_labels.tobytes()
            assert centers[r].tobytes() == ref_centers.tobytes()
            assert iterations[r] == ref_iter
            emptied += ref_emptied
        iteration_spreads += len(set(iterations.tolist())) > 1
        seed = (case, 3)
        try:
            expected, _ = per_restart_seed(data, k, seed)
        except ValueError as err:
            raised += 1
            with pytest.raises(ValueError, match=str(err)):
                approx_seed(data, k, seed)
            continue
        assert approx_seed(data, k, seed).tobytes() == expected.tobytes()
    assert iteration_spreads >= 50 and emptied >= 20 and raised >= 1
    assert certified["narrow"] >= 600 and certified["wide"] >= 1500
    assert fallbacks >= 300 and mixed >= 40


@pytest.mark.parametrize("case", ["zero_tol", "overflowing_mean"])
def test_lloyd_repeated_labels_stop_only_where_the_shift_would(case):
    # Repeated labels give a zero shift, which stops a start only when
    # 0 < tol: with tol = 0 the start runs to max_iter, as the oracle does.
    # A mean whose sum overflows at the data's scale is taken on the rows
    # scaled by _stack, where it is finite: the labels, the centers and the
    # stopping step are the oracle's on the rows scaled by 2^-600 (whose
    # sums and squares stay finite), the centers scaled back.
    if case == "overflowing_mean":
        data = np.array([[1.5e308], [1.6e308], [-1.0], [1.0]])
        starts, tol, scale = np.array([[1e308], [0.0]]), local.DEFAULT_TOL, 2.0 ** -600
        ref_labels, ref_centers, ref_iter, _ = single_lloyd(
            data * scale, starts * scale, tol * scale, max_iter=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = local.lloyd_iterate(data, starts, max_iter=50)
            rows, scaled, exponent = local._stack(data, starts)
            iterations = local._lloyd(rows, scaled[:, None],
                                      np.ldexp(tol, -exponent), 50)[2]
        assert got.assignment.tolist() == ref_labels.tolist()
        assert got.centers.tobytes() == (ref_centers / scale).tobytes()
        assert iterations.tolist() == [[ref_iter]] and ref_iter < 50
        return
    data, tol = np.array([[0.0], [1.0], [10.0], [11.0]]), 0.0
    starts = np.array([[[0.0], [10.0]]])
    labels, centers, iterations = (out[0] for out in local._lloyd(
        data[None], starts[None], tol, 50))
    ref_labels, ref_centers, ref_iter, _ = single_lloyd(data, starts[0], tol,
                                                        max_iter=50)
    assert iterations.tolist() == [ref_iter] == [50]
    assert labels[0].tolist() == ref_labels.tolist()
    assert centers[0].tobytes() == ref_centers.tobytes()


def _collapse_restarts(monkeypatch, which):
    """Make restarts in ``which`` start with two equal rows far from the data.

    Both the package's sampler and the oracle's get the same overwrite.
    Neither far row ever gains a member, so that restart's refined centers
    keep the repeat and it collapses.
    """
    def collapsing(sample):
        def patched(data, k, seed):
            starts = sample(data, k, seed)
            # the restart axis is third from last in both samplers' starts
            starts[..., sorted(which), -2:, :] = np.abs(data).max() * 1e6 + 1.0
            return starts
        return patched
    monkeypatch.setattr(local, "_dsq_sample", collapsing(local._dsq_sample))
    monkeypatch.setattr(oracles, "dsq_starts", collapsing(oracles.dsq_starts))


def test_approx_seed_skips_collapsed_restart(monkeypatch):
    rng = np.random.default_rng(43)
    data = _fuzz_rows(rng, 120, 4)
    _collapse_restarts(monkeypatch, {0, 2})
    expected, collapsed = per_restart_seed(data, 5, (9,))
    assert collapsed == [0, 2]
    assert approx_seed(data, 5, 9).tobytes() == expected.tobytes()
    _, refined, _ = local._lloyd(data[None], local._dsq_sample(data[None], 5, [(9,)]),
                                 local.DEFAULT_TOL, local.DEFAULT_MAX_ITER)
    assert local._has_equal_rows(refined[0]).tolist() == [True, False, True,
                                                       False, False]


def test_approx_seed_every_restart_collapsed(monkeypatch):
    data = _fuzz_rows(np.random.default_rng(44), 60, 3)
    _collapse_restarts(monkeypatch, set(range(local._SEED_RESTARTS)))
    with pytest.raises(ValueError, match="seeding collapsed on every restart"):
        per_restart_seed(data, 4, (1,))
    with pytest.raises(ValueError, match="seeding collapsed on every restart"):
        approx_seed(data, 4, 1)


def test_approx_seed_memory_one_distance_block():
    # Five restarts at 2000 x 32, k=32: stacking the restarts' distance
    # blocks would hold five (n, k, w) blocks at once.
    rng = np.random.default_rng(45)
    means = np.eye(32) * 100.0
    data = means[rng.integers(0, 32, size=2000)] + rng.normal(size=(2000, 32))
    block = 2000 * 32 * 32 * 8
    tracemalloc.start()
    try:
        approx_seed(data, 32, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * block


def test_lockstep_sampler_matches_scalar_oracle():
    rng = np.random.default_rng(46)
    raised = 0
    for case in range(150):
        n, width = int(rng.integers(1, 120)), int(rng.integers(1, 12))
        k = int(rng.integers(1, min(12, n) + 1))
        if case % 5 == 0:
            k = n = min(n, 12)              # every row is a center
        data = _fuzz_rows(rng, n, width)
        if case % 4 == 1:                   # fewer distinct rows than k
            data = data[rng.integers(0, max(1, k // 2), size=n)]
        if case % 2:
            data = np.asfortranarray(data)
        seed = (case, 11)
        try:
            expected = [scalar_dsq_sample(data, k, Stream(*seed, r))
                        for r in range(local._SEED_RESTARTS)]
        except ValueError as err:
            raised += 1
            with pytest.raises(ValueError, match=str(err)):
                local._dsq_sample(data[None], k, [seed])
            continue
        starts = local._dsq_sample(data[None], k, [seed])[0]
        assert starts.shape == (local._SEED_RESTARTS, k, width)
        for r, start in enumerate(expected):
            assert starts[r].tobytes() == start.tobytes()
    assert raised >= 10


def _draws(k, seeds):
    """Every restart's uniforms, (D, R, k), as ``_dsq_sample`` draws them."""
    return np.array([[Stream(*seed, r).uniforms(k) for r in range(local._SEED_RESTARTS)]
                     for seed in seeds])


def _exact_spy(monkeypatch):
    """Record the restarts that ``_dsq_sample`` hands to the exact sampler,
    one call each, and give a stacked reference: picks (D, R, k) of the
    one-restart sampler for a stack (D, n, w) and its draws (D, R, k)."""
    calls = []
    exact = local._exact_dsq

    def spy(rows, draws):
        calls.append(draws.shape)
        return exact(rows, draws)

    def stacked(data, draws):
        return np.array([[exact(rows, run) for run in runs]
                         for rows, runs in zip(data, draws)])
    monkeypatch.setattr(local, "_exact_dsq", spy)
    return calls, stacked


def test_certified_sampler_matches_exact_sampler_and_scalar_oracle(monkeypatch):
    rng = np.random.default_rng(77)
    calls, exact = _exact_spy(monkeypatch)
    restarts = fallbacks = 0
    for case in range(160):
        devices = 1 if case % 2 else int(rng.integers(2, 6))
        n, width = int(rng.integers(1, 70)), int(rng.integers(1, 41))
        k = int(rng.integers(1, min(10, n) + 1))
        stack = np.stack([_fuzz_rows(rng, n, width) for _ in range(devices)])
        if case % 5 == 1:       # far from the origin: the product form cancels
            stack += rng.normal(size=width) * 1e7
        if case % 5 == 3:       # duplicate rows: zero weights once chosen
            stack = stack[:, rng.integers(0, n, size=n)]
        if case % 4 == 3:           # devices == 1: a Fortran-order matrix
            stack = np.asfortranarray(stack[0])[None]
        seeds = [(case, z) for z in range(devices)]
        before = len(calls)
        try:
            expected = exact(stack, _draws(k, seeds))
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                local._dsq_sample(stack, k, seeds)
            assert len(calls) > before
            continue
        starts = local._dsq_sample(stack, k, seeds)
        restarts += devices * local._SEED_RESTARTS
        fallbacks += len(calls) - before
        owner = np.arange(devices)[:, None, None]
        assert starts.tobytes() == stack[owner, expected].tobytes()
        for m, rows in enumerate(stack):
            for r in range(local._SEED_RESTARTS):
                oracle = scalar_dsq_sample(rows, k, Stream(*seeds[m], r))
                assert starts[m, r].tobytes() == oracle.tobytes()
    assert 20 <= fallbacks <= restarts // 2


class _Planted:
    """A stand-in for ``Stream`` that serves fixed uniforms, in the calls of
    either sampler: ``integers(1, n)`` takes one value, as ``Stream`` does."""

    values: list = []

    def __init__(self, *key):
        self._left = list(self.values)

    def uniforms(self, count):
        taken, self._left = self._left[:count], self._left[count:]
        return np.array(taken)

    def integers(self, count, bound):
        return np.minimum((self.uniforms(count) * bound).astype(np.int64), bound - 1)


def test_planted_boundary_draws_take_the_exact_sampler(monkeypatch):
    # u·total lands exactly on a cdf entry: the bracket's margin is 0, so
    # the restart cannot be proven and the exact sampler picks. On a grid,
    # rows repeat, and the draw lands where zero weights follow the entry.
    rng = np.random.default_rng(78)
    calls, exact = _exact_spy(monkeypatch)
    monkeypatch.setattr(local, "Stream", _Planted)
    planted = 0
    for case in range(40):
        n, width = int(rng.integers(4, 40)), int(rng.integers(1, 6))
        rows = rng.integers(-3, 4, size=(n, width)).astype(float)
        rows[rng.integers(0, n, size=n // 2)] = rows[0]     # zero weights
        d2 = ((rows - rows[0]) ** 2).sum(axis=1)
        cdf = np.cumsum(d2)
        if not cdf[-1]:
            continue
        entry = cdf[int(rng.integers(0, n - 1))]
        draw = entry / cdf[-1]
        for _ in range(4):          # the draw whose product is the entry
            if draw * cdf[-1] == entry:
                break
            draw = np.nextafter(draw, 1.0 if draw * cdf[-1] < entry else 0.0)
        if draw * cdf[-1] != entry or draw >= 1.0:
            continue
        planted += 1
        _Planted.values = [0.0, draw, float(rng.random())]
        calls.clear()
        starts = local._dsq_sample(rows[None], 3, [(case,)])
        assert len(calls) == local._SEED_RESTARTS
        picks = exact(rows[None], np.array([[_Planted.values] * local._SEED_RESTARTS]))
        assert starts.tobytes() == rows[picks].tobytes()
        assert starts[0, 0].tobytes() == scalar_dsq_sample(rows, 3, _Planted()).tobytes()
    assert planted >= 20


def test_exact_sampler_picks_alike_in_either_layout():
    # A draw planted on an entry of the cdf that column-order sums give,
    # where numpy's pairwise sum of the same squares along C-ordered rows
    # rounds the cdf apart: the exact sampler picks as the scalar oracle
    # does, from C- and Fortran-ordered rows alike.
    rng = np.random.default_rng(82)
    planted = 0
    for case in range(60):
        rows = rng.normal(size=(12, 24))
        cdf = np.cumsum(sequential_sq(rows, rows[:1])[:, 0])
        pairwise = np.cumsum(np.square(rows - rows[0]).sum(axis=1))
        entry = cdf[int(rng.integers(1, 11))]
        draw = entry / cdf[-1]
        for _ in range(4):          # the draw whose product is the entry
            if draw * cdf[-1] == entry:
                break
            draw = np.nextafter(draw, 1.0 if draw * cdf[-1] < entry else 0.0)
        pick = np.count_nonzero(cdf <= draw * cdf[-1])
        if (draw * cdf[-1] != entry
                or pick == np.count_nonzero(pairwise <= draw * pairwise[-1])):
            continue
        planted += 1
        _Planted.values = [0.0, draw]
        oracle = scalar_dsq_sample(rows, 2, _Planted())
        for layout in (rows, np.asfortranarray(rows)):
            picks = local._exact_dsq(layout, np.array([0.0, draw]))
            assert picks.tolist() == [0, pick]
            assert layout[picks].tobytes() == oracle.tobytes()
    assert planted >= 10


def test_certified_sampler_insufficient_distinct_points(monkeypatch):
    rng = np.random.default_rng(79)
    calls, exact = _exact_spy(monkeypatch)
    stack = np.stack([_fuzz_rows(rng, 50, 7) for _ in range(3)])
    stack[1] = stack[1, rng.integers(0, 3, size=50)]    # three distinct rows
    for rows, seeds in [(stack, [(0, z) for z in range(3)]), (stack[1:2], [(0, 1)])]:
        with pytest.raises(ValueError) as expected:
            exact(rows, _draws(4, seeds))
        calls.clear()
        with pytest.raises(ValueError) as got:
            local._dsq_sample(rows, 4, seeds)
        assert str(got.value) == str(expected.value) == "insufficient distinct points"
        assert calls


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 2.0 ** 600, 2.0 ** -600,
                                   1e154, 1e200])
def test_sampler_certifies_at_any_finite_scale_else_fails_as_the_exact_kernel(
        scale, monkeypatch):
    # approx_seed samples on rows scaled by _stack, where every square stays
    # finite and normal at any finite scale: every restart's picks are
    # proven, no restart takes the exact sampler, and the picks are the
    # scale-1 ones. Squares that would overflow at the input's scale (from
    # 1e154 on) or underflow to 0 (2^-600) no longer fail the sampler.
    rng = np.random.default_rng(80)
    calls, exact = _exact_spy(monkeypatch)
    stack = np.stack([rng.normal(size=(60, 6)) for _ in range(3)])
    seeds = [(4, z) for z in range(3)]
    expected = exact(stack, _draws(5, seeds))
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _, _ = local._stack(stack * scale)
        starts = local._dsq_sample(rows, 5, seeds)
    assert calls == []
    assert starts.tobytes() == rows[np.arange(3)[:, None, None], expected].tobytes()


def test_sampler_memory_linear_in_rows():
    # 20 devices of 400 rows, w = 32: today's exact sampler holds (D, R, n, w)
    # differences, 10 MiB; the certified one holds a few (D, R, n) tables.
    rng = np.random.default_rng(81)
    stack = rng.normal(size=(20, 400, 32)) + np.eye(32)[rng.integers(0, 32, (20, 400))] * 30
    seeds = [(5, z) for z in range(20)]
    table = 20 * local._SEED_RESTARTS * 400 * 8
    tracemalloc.start()
    try:
        local._dsq_sample(stack, 4, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * table


def test_wide_sq_distances_match_block_einsum():
    # Rows wider and narrower than the centers, integer grids with exact
    # ties, either layout: the exact kernel adds each pair's squares in
    # column order (a block einsum may pair them up, so the oracle is the
    # column loop).
    rng = np.random.default_rng(47)
    for case in range(120):
        n, k = int(rng.integers(1, 90)), int(rng.integers(2, 12))
        width = [k - 1, k, k + 1, 300][case % 4]
        data = rng.normal(size=(n, width)) * 10.0
        if case % 3 == 0:                   # integer grid: exact ties
            data = rng.integers(-2, 3, size=(n, width)).astype(float)
        centers = data[rng.integers(0, n, size=k)]
        if case % 2:
            data = np.asfortranarray(data)
        assert (linalg._exact_sq(data, centers).tobytes()
                == sequential_sq(data, centers).tobytes())


def test_wide_sq_distances_memory_under_one_block():
    rng = np.random.default_rng(48)
    data, centers = rng.normal(size=(160, 300)), rng.normal(size=(8, 300))
    block = 160 * 8 * 300 * 8
    linalg._exact_sq(data[:1], centers)     # scipy's import is not the kernel's
    tracemalloc.start()
    try:
        linalg._exact_sq(data, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block / 4


def test_wide_lloyd_at_extreme_scale_takes_the_scale_one_path(monkeypatch):
    # Squares near 1e400 would overflow at the data's scale (the exact
    # kernel gives inf), which once made every step take the exact kernel
    # and its means collapse to sizes [38, 1, 1]. The steps run on the rows
    # and centers scaled together, so every label is certified and is the
    # scale-1 one, and at a power of two the centers are the scale-1
    # centers times the scale, bit for bit.
    rng = np.random.default_rng(73)
    base = rng.normal(size=(40, 12))
    ref_labels, ref_centers, _, _ = single_lloyd(base, base[:3])
    exact_calls = spy_exact(monkeypatch)
    for scale in (1e200, 2.0 ** 664, 1e-200, 2.0 ** -664):
        data = base * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if scale > 1.0:
                assert np.isinf(linalg._exact_sq(data, data[:3])).any()
            exact_calls.clear()
            got = lloyd_iterate(data, data[:3], tol=local.DEFAULT_TOL * scale)
        assert exact_calls == []
        assert got.assignment.tobytes() == ref_labels.tobytes()
        if scale in (2.0 ** 664, 2.0 ** -664):
            assert got.centers.tobytes() == (ref_centers * scale).tobytes()


# ---------------------------------------------------------------------------
# many devices in one local_cluster call


def _network(rng, case):
    """One data matrix split into devices: several of one shape, which stack,
    and a few ragged ones; in every third case a third of each device's rows
    sit on midpoints of two of its other rows, which a start holding both
    as centers cannot certify."""
    d, k = int(rng.integers(2, 30)), int(rng.integers(1, 7))
    n = int(rng.integers(max(k, 6), 50))
    sizes = [n] * int(rng.integers(3, 7))
    sizes += [int(s) for s in rng.integers(k, 50, size=int(rng.integers(0, 3)))]
    order = rng.permutation(sum(sizes))
    devices = np.split(order, np.cumsum(sizes)[:-1])
    data = np.empty((order.size, d))
    for rows in devices:
        block = _fuzz_rows(rng, rows.size, d)
        if case % 3 == 0:
            a, b = rng.integers(0, rows.size, size=(2, rows.size // 3))
            block[rng.choice(rows.size, rows.size // 3, replace=False)] = \
                (block[a] + block[b]) / 2.0
        data[rows] = block
    return data, devices, [k] * len(devices)


def test_stacked_local_cluster_matches_one_device_calls(monkeypatch):
    rng = np.random.default_rng(74)
    # Spies: how each stage was called, and the exact fallbacks of every
    # _nearest_each call on a stack.
    stacks = []
    seed = local.approx_seed

    def seed_spy(projected, *args, **kwargs):
        stacks.append(np.shape(projected)[0])
        return seed(projected, *args, **kwargs)
    monkeypatch.setattr(local, "approx_seed", seed_spy)
    stacked_fallbacks = []
    count = spy_exact(monkeypatch)
    nearest = local._nearest_each

    def counting(a, centers, a_sq, a_t=None):
        count.clear()
        labels = nearest(a, centers, a_sq, a_t)
        if a.shape[0] > 1:
            stacked_fallbacks.append((len(count), centers.shape[0] * centers.shape[1]))
        return labels
    monkeypatch.setattr(local, "_nearest_each", counting)
    # Collapsed restarts: 0 and 2 start with two equal far rows.
    collapse = [False]
    sample = local._dsq_sample

    def sampler(data, k, seeds):
        starts = sample(data, k, seeds)
        if collapse[0] and k > 2:
            starts[:, [0, 2], -2:] = (np.abs(data).max(axis=(1, 2)) * 1e6
                                      + 1.0)[:, None, None, None]
        return starts
    monkeypatch.setattr(local, "_dsq_sample", sampler)
    # One device's projection comes back Fortran-ordered.
    fortran_row = [None]
    project = local.top_k_projection

    def projection_spy(m, k):
        coords, lift = project(m, k)
        if fortran_row[0] is not None and np.array_equal(m[0], fortran_row[0]):
            coords = np.asfortranarray(coords)
        return coords, lift
    monkeypatch.setattr(local, "top_k_projection", projection_spy)

    compared = raised = 0
    for case in range(60):
        data, devices, ks = _network(rng, case)
        if case % 7 == 3 and ks[1] > 1:
            data[devices[1]] = data[devices[1][0]]  # one distinct row
        if case % 2:
            data = np.asfortranarray(data)
        collapse[0] = case % 4 == 1
        fortran_row[0] = data[devices[0][0]] if case % 5 == 2 else None
        seeds = [(case, z) for z in range(len(devices))]
        try:
            expected = [local_cluster(data[rows], k, s)
                        for rows, k, s in zip(devices, ks, seeds)]
        except (ValueError, RuntimeWarning) as err:
            raised += 1
            with pytest.raises(type(err)) as got:
                local_cluster(data, ks, seeds, devices=devices)
            assert str(got.value) == str(err)
            continue
        stacks.clear()
        results = local_cluster(data, ks, seeds, devices=devices)
        # one seeding call per group of equal (rows, rank, k), none re-solved
        groups = Counter((rows.size, min(k, rows.size, data.shape[1]), k)
                         for rows, k in zip(devices, ks))
        assert sorted(stacks) == sorted(groups.values())
        for got, ref in zip(results, expected, strict=True):
            assert got.clusters.assignment.tobytes() == ref.clusters.assignment.tobytes()
            assert got.centers.tobytes() == ref.centers.tobytes()
            assert got.lloyd_iterations == ref.lloyd_iterations
            assert got.unassigned_after_threshold == ref.unassigned_after_threshold
            compared += 1
    mixed = sum(0 < fell < sets for fell, sets in stacked_fallbacks)
    assert compared >= 250 and raised >= 3 and mixed >= 20


# scale id -> a factor for the data, whose squared distances leave the
# float range
_SCALES = {"2p600": 2.0 ** 600, "1e200": 1e200, "2m600": 2.0 ** -600,
           "2m700": 2.0 ** -700, "1em200": 1e-200}


@pytest.mark.parametrize("scale", sorted(_SCALES))
def test_device_solve_is_scale_free(scale):
    # Every device stage decides on its inputs scaled by one power of two
    # per device, so data at any scale, with tol scaled alike, gives the
    # scale-1 labels, step counts, provenance and tau without a warning.
    # At a power of two every returned center is the scale-1 center times
    # the scale, bit for bit.
    factor = _SCALES[scale]
    _, data, _, partition = planted_instance(36)
    devices, ks = partition.device_rows, partition.k_per_device
    seeds, tol = [(36, z) for z in range(len(devices))], local.DEFAULT_TOL

    def solve(x, tol):
        coords = np.stack([linalg.top_k_projection(x[rows], ks[0])[0]
                           for rows in devices[:3]])
        seeded = approx_seed(coords, ks[0], seeds[:3], tol=tol)
        return (local_cluster(x[devices[0]], ks[0], seeds[0], tol=tol),
                local_cluster(x, ks, seeds, tol=tol, devices=devices),
                seeded, threshold_assign(coords[0], seeded[0]),
                lloyd_iterate(x[devices[1]], x[devices[1][:ks[1]]], tol=tol),
                run_kfed(partition, x, seed=36, tol=tol))

    one, many, seeded, (kept, theta), lloyd, run = solve(data, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve(data * factor, tol * factor)
    results = [one, *many, *run.local_results.values()]
    got_results = [got[0], *got[1], *got[5].local_results.values()]
    for a, b in zip(got_results, results, strict=True):
        assert a.clusters.assignment.tobytes() == b.clusters.assignment.tobytes()
        assert a.lloyd_iterations == b.lloyd_iterations
        assert a.unassigned_after_threshold == b.unassigned_after_threshold
    assert got[3][0].tobytes() == kept.tobytes()
    assert got[4].assignment.tobytes() == lloyd.assignment.tobytes()
    assert got[5].init.provenance == run.init.provenance
    assert got[5].induced.tau == run.induced.tau
    assert got[5].induced.assignment.tobytes() == run.induced.assignment.tobytes()
    if scale.startswith("2"):
        centers = [r.centers for r in results] + [seeded, theta, lloyd.centers]
        got_centers = [r.centers for r in got_results] + [got[2], got[3][1],
                                                         got[4].centers]
        for a, b in zip(got_centers, centers, strict=True):
            assert a.tobytes() == (b * factor).tobytes()


def test_stacked_failure_raises_the_first_failing_devices_error():
    # Device 1 has two distinct rows for k = 4, which the sampler finds at
    # its second pick; device 3's projected coordinates overflow, which the
    # stacked call meets first, in its projections. The call raises device
    # 1's error, as solving the devices one by one does.
    rng = np.random.default_rng(75)
    data = rng.normal(size=(120, 12)) + np.repeat(np.eye(4, 12) * 20.0, 30, axis=0)
    devices = np.split(np.arange(120), 4)
    data[devices[1]] = np.tile(data[devices[1][:2]], (15, 1))
    data[devices[3]] = 1.7e308
    partition = DevicePartition(device_rows=devices, k=4, k_per_device=[4] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^projected coordinates exceed the "
                           "float range$"):
            local_cluster(data[devices[3]], 4, (0, 3))
        with pytest.raises(ValueError) as err:
            run_kfed(partition, data, seed=0)
    assert type(err.value) is ValueError
    assert str(err.value) == "insufficient distinct points"


def test_acceptance_shape_runs_no_exact_kernel(monkeypatch):
    # On an acceptance-02 instance (d = 300, k = 64, 40 devices of 160 rows)
    # and a low-separation IID one (k = 16, d = 50, sigma means at c = 4,
    # 150 rows per cluster, 20 devices), every label of the seeding and
    # raw-row Lloyd, every threshold set, every k-means++ pick and every
    # server decision is certified: a lost certificate fails here instead
    # of showing only as lost time, and as scipy's import in a fresh process.
    exact_calls = spy_exact(monkeypatch)
    _, data, _, partition = planted_instance(0, k=64, d=300, per_cluster=100,
                                             m0=5, group_size=8)
    run_kfed(partition, data, seed=0)
    assert len(partition.device_rows) == 40 and exact_calls == []
    spec = MixtureSpec(k=16, d=50, n=16 * 150, sigma_max=1.0, seed=0,
                       mean_mode="sigma", c=4.0, m0=5.0)
    data, truth = generate_mixture(spec)
    partition = iid_partition(spec.n, 20, 0)
    partition.annotate_from_labels(truth.assignment, truth.k)
    run_kfed(partition, data, seed=0)
    assert exact_calls == []


def test_stacked_stages_hold_no_per_center_block():
    # 40 devices of 160 rows, k = w = 16: a (D, n, k, w) difference block
    # would take 12.5 MiB. The stacked seeding and threshold peak at about
    # 0.7 of that; their largest temporary is the seeding Lloyd's
    # (D, n, R·k) product, R = 5, a third of a block.
    rng = np.random.default_rng(76)
    stack = rng.normal(size=(40, 160, 16)) + np.eye(16)[rng.integers(0, 16, (40, 160))] * 30
    seeds = [(9, z) for z in range(40)]
    block = 40 * 160 * 16 * 16 * 8
    tracemalloc.start()
    try:
        seeded = approx_seed(stack, 16, seeds)
        threshold_assign(stack, seeded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block
