import warnings

import numpy as np
import pytest

from kfed.evaluation import kmeans_cost, matched_accuracy
from kfed.linalg import operator_norm
from kfed.local import (Clustering, approx_seed, cluster_means, lloyd_iterate,
                        local_cluster, threshold_assign)
from helpers import planted_instance, projection
from oracles import brute_force_kmeans, dspace_local_cluster


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
    sets, theta = threshold_assign(data, centers)
    assert list(sets[0]) == [0]
    assert all(s.size == 0 for s in sets[1:])
    assert np.allclose(theta[0], [0.0, 0.0])


def test_threshold_equidistant_point_unassigned():
    data = np.array([[0.5, 0.0]])
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    sets, theta = threshold_assign(data, centers)
    assert all(s.size == 0 for s in sets)
    # fallback: empty sets keep the input centers
    assert np.allclose(theta, centers)


def test_threshold_matches_scalar_oracle():
    rng = np.random.default_rng(20)
    data = rng.normal(size=(20, 3))
    centers = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    sets, _ = threshold_assign(data, centers)
    member_of = {}
    for r, members in enumerate(sets):
        for i in members:
            member_of[int(i)] = r
    for i in range(20):
        expected = None
        for r in range(2):
            d_r = np.linalg.norm(data[i] - centers[r])
            others = [np.linalg.norm(data[i] - centers[s]) for s in range(2) if s != r]
            if all(d_r <= d_s / 3.0 for d_s in others):
                expected = r
        assert member_of.get(i) == expected


def test_threshold_sets_disjoint_fuzz():
    rng = np.random.default_rng(33)
    for _ in range(25):
        data = rng.normal(size=(30, 4))
        centers = rng.normal(size=(4, 4)) * 3.0
        sets, _ = threshold_assign(data, centers)
        flat = np.concatenate([s for s in sets]) if sets else np.empty(0)
        assert np.unique(flat).size == flat.size


def test_threshold_duplicate_centers_error():
    data = np.zeros((3, 2))
    centers = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="distinct"):
        threshold_assign(data, centers)


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


def test_clustering_from_labels_requires_members():
    data = np.ones((3, 2))
    with pytest.raises(ValueError, match="no members"):
        Clustering.from_labels(data, np.array([0, 0, 0]), 2)
