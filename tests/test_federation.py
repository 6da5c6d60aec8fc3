import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kfed import federation, linalg
from kfed.datagen import (DevicePartition, MixtureSpec, generate_mixture,
                          iid_partition)
from kfed.evaluation import matched_accuracy
from kfed.federation import (DeviceCenters, FarthestInit, OpsAccounting,
                             assign_new_device, farthest_point_init,
                             one_round_lloyd, record_run, replay_run, run_kfed)
from kfed.local import local_cluster
from kfed.separation import separation_quantities
from helpers import init_planted_clusters, planted_instance, spy_exact
from oracles import greedy_max_min, sequential_sq


def _dc(device_id, centers, assignment=None):
    centers = np.asarray(centers, dtype=float)
    if assignment is None:
        assignment = np.empty(0, dtype=int)
    return DeviceCenters(device_id=device_id, centers=centers,
                         local_assignment=np.asarray(assignment, dtype=int))


def _start_at(uploads, start):
    """The uploads with device ids 0..Z-1 turned so that ``start`` is 0, the
    lowest id and so the start device; the others keep their cyclic order."""
    return [_dc((dc.device_id - start) % len(uploads), dc.centers)
            for dc in uploads]


# ---------------------------------------------------------------------------
# farthest_point_init

def test_init_duplicated_points_pick_each_once():
    base = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    uploads = [_dc(z, base) for z in range(5)]
    init = farthest_point_init(uploads, 3, accounting=OpsAccounting())
    rounded = {tuple(np.round(p, 9)) for p in init.points}
    assert rounded == {tuple(row) for row in base}


def test_init_single_device_loop_skipped():
    centers = np.array([[1.0], [5.0], [9.0]])
    acc = OpsAccounting()
    init = farthest_point_init([_dc(0, centers)], 3, accounting=acc)
    assert np.array_equal(init.points, centers)
    assert init.provenance == [(0, 0), (0, 1), (0, 2)]
    assert acc.pairwise_distance_count == 0


def test_init_start_device_with_k_centers_never_takes_the_exact_path(monkeypatch):
    # The certified path proves the empty pick list of a start device that
    # already uploads k centers; only None sends the init to the exact path.
    calls = []
    exact = federation._exact_max_min
    monkeypatch.setattr(federation, "_exact_max_min",
                        lambda *args: calls.append(args) or exact(*args))
    rng = np.random.default_rng(34)
    uploads = _start_at([_dc(z, rng.normal(size=(3, 4))) for z in range(4)], 2)
    acc = OpsAccounting()
    init = farthest_point_init(uploads, 3, accounting=acc)
    assert init.provenance == [(0, 0), (0, 1), (0, 2)]
    assert calls == [] and acc.pairwise_distance_count == 0


def test_init_collinear_picks_farthest():
    uploads = [_dc(0, [[0.0]]), _dc(1, [[1.0]]), _dc(2, [[10.0]])]
    init = farthest_point_init(uploads, 2, accounting=OpsAccounting())
    assert sorted(float(p[0]) for p in init.points) == [0.0, 10.0]
    # one distance per open upload per step: 2 from (0, 0), then 1 from (2, 0)
    acc = OpsAccounting()
    init = farthest_point_init(uploads, 3, accounting=acc)
    assert init.provenance == [(0, 0), (2, 0), (1, 0)]
    assert acc.pairwise_distance_count == 3


def test_init_tie_breaks_lexicographically():
    uploads = [_dc(0, [[0.0]]), _dc(1, [[4.0]]), _dc(2, [[-4.0]])]
    init = farthest_point_init(uploads, 2, accounting=OpsAccounting())
    assert init.provenance == [(0, 0), (1, 0)]


def test_init_matches_max_min_oracle():
    rng = np.random.default_rng(31)
    for trial in range(60):
        z_count = int(rng.integers(2, 7))
        if trial % 3 == 0:    # small integer grid: many exact distance ties
            uploads = [_dc(z, rng.integers(0, 3, size=(int(rng.integers(1, 4)), 2)))
                       for z in range(z_count)]
        elif trial % 3 == 1:  # every device uploads copies of one center set
            base = rng.normal(size=(3, 4))
            uploads = [_dc(z, base[rng.permutation(3)[:int(rng.integers(1, 4))]])
                       for z in range(z_count)]
        else:
            uploads = [_dc(z, rng.normal(size=(int(rng.integers(1, 5)), 3)))
                       for z in range(z_count)]
        start = int(rng.integers(0, z_count))
        s = uploads[start].k_z
        uploads = _start_at(uploads, start)
        total = sum(dc.k_z for dc in uploads)
        for k in range(s, total + 1):
            acc = OpsAccounting()
            init = farthest_point_init(uploads, k, accounting=acc)
            expected = greedy_max_min([(dc.device_id, dc.centers) for dc in uploads],
                                      k, 0)
            assert init.provenance == expected, (trial, k)
            # the first step measures from all s start centers, later steps
            # only from the newest seed
            open_uploads = range(total - s, total - k, -1)
            assert acc.pairwise_distance_count == sum(
                n * (s if step == 0 else 1) for step, n in enumerate(open_uploads))


def _check_init(uploads, calls, expected=None):
    """Every k's provenance and distance count against the exact path on the
    scaled uploads and, where given, the oracle's full max-min order;
    returns the paths taken. The lowest device id, the first of
    ``_flatten``'s order, starts."""
    stacked, provenance = federation._flatten(uploads)
    scaled, _ = linalg._finite_scaled(stacked)
    chosen = [i for i, (z, _) in enumerate(provenance) if z == provenance[0][0]]
    total, s = len(provenance), len(chosen)
    taken = []
    for k in range(s, total + 1):
        calls.clear()
        acc = OpsAccounting()
        init = farthest_point_init(uploads, k, accounting=acc)
        if k > s:
            taken.append("exact" if calls else "certified")
        picks = federation._exact_max_min(scaled, chosen, k)
        assert init.provenance == [provenance[i] for i in chosen + picks]
        if expected is not None:
            assert init.provenance == expected[:k]
        assert acc.pairwise_distance_count == sum(
            n * (s if step == 0 else 1)
            for step, n in enumerate(range(total - s, total - k, -1)))
    return taken


def test_init_certified_and_exact_paths_match_max_min_oracle(monkeypatch):
    # One product per step settles the pick only where a rounding bound
    # proves it; ties and duplicates take the exact path. Both agree with
    # the oracle, whatever the width and scale.
    calls = spy_exact(monkeypatch)
    rng = np.random.default_rng(32)
    paths = {"certified": 0, "exact": 0}
    for trial in range(160):
        width = trial % 40 + 1
        kind = trial % 4
        z_count = int(rng.integers(2, 5))
        sizes = rng.integers(1, 4, size=z_count)
        start = int(rng.integers(0, z_count))
        sizes[start] = rng.integers(2, 4)          # several start centers
        if kind == 0:                              # fuzzed, at a range of scales
            scale = [1.0, 1e150, 1e-150][trial // 4 % 3]
            uploads = [_dc(z, rng.normal(size=(m, width)) * scale)
                       for z, m in enumerate(sizes)]
        elif kind == 1:                            # integer grid: exact ties
            uploads = [_dc(z, rng.integers(0, 3, size=(m, width)))
                       for z, m in enumerate(sizes)]
        elif kind == 2:                            # duplicate uploads
            base = rng.normal(size=(3, width))
            uploads = [_dc(z, base[rng.permutation(3)[:m]])
                       for z, m in enumerate(sizes)]
        else:
            # Exact ties far from the origin: unit steps along a few axes
            # from one point near 1024, so every exact distance to it is 1
            # while the product's squared norms near 1e6 round apart.
            origin = 1024.0 + rng.integers(0, 512, size=width) / 1024.0
            axes = rng.permutation(width)[:3]
            steps = [origin + sign * np.eye(width)[j]
                     for j in axes for sign in (1.0, -1.0)]
            uploads = [_dc(0, [origin, origin + 0.5]),
                       _dc(1, steps[:len(steps) // 2]),
                       _dc(2, steps[len(steps) // 2:])]
            start = 0
        uploads = _start_at(uploads, start)
        expected = greedy_max_min([(dc.device_id, dc.centers) for dc in uploads],
                                  sum(dc.k_z for dc in uploads), 0)
        for path in _check_init(uploads, calls, expected):
            paths[path] += 1
    assert paths["certified"] >= 200 and paths["exact"] >= 300
    # The picks are taken on the uploads scaled by one power of two, so
    # uploads whose squares would overflow or all underflow to zero take
    # the scale-1 paths and picks.
    base = [rng.normal(size=(3, 5)) for _ in range(3)]
    expected = greedy_max_min(list(enumerate(base)), 9, 0)
    for scale in (1.0, 2.0 ** 600, 2.0 ** -600, 1e200, 1e-200):
        uploads = [_dc(z, c * scale) for z, c in enumerate(base)]
        assert _check_init(uploads, calls, expected) == ["certified"] * 6


# scale id -> a factor for every upload, whose squares leave the float range
_SCALES = {"2p600": 2.0 ** 600, "1e200": 1e200, "2m600": 2.0 ** -600,
           "2m664": 2.0 ** -664, "2m700": 2.0 ** -700, "1em200": 1e-200}


@pytest.mark.parametrize("scale", sorted(_SCALES))
def test_server_is_scale_free(tmp_path, scale):
    # Every distance decision of the server is taken on inputs scaled by
    # one power of two, so uploads at any scale give the scale-1 seeds,
    # groups, row labels and late-join labels, and replay, without a
    # warning. At a power of two the group means are the scale-1 means
    # times the scale, bit for bit.
    factor = _SCALES[scale]
    _, data, _, partition = planted_instance(35)
    run = run_kfed(partition, data, seed=35)
    late = run.device_centers[1].centers
    labels = assign_new_device(run.induced.cluster_means, late,
                               accounting=OpsAccounting())
    uploads = {z: dataclasses.replace(dc, centers=dc.centers * factor)
               for z, dc in run.device_centers.items()}
    log = tmp_path / "messages.jsonl"
    record_run(log, dataclasses.replace(run, device_centers=uploads))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        init = farthest_point_init(list(uploads.values()), len(run.induced.tau),
                                   accounting=OpsAccounting())
        induced = one_round_lloyd(list(uploads.values()), init, n_total=len(data),
                                  accounting=OpsAccounting())
        scaled_labels = assign_new_device(induced.cluster_means, late * factor,
                                          accounting=OpsAccounting())
        replayed = replay_run(log)    # the scale-1 trailer, or it raises
    assert init.provenance == run.init.provenance
    assert induced.tau == run.induced.tau
    assert np.array_equal(induced.assignment, run.induced.assignment)
    assert np.array_equal(scaled_labels, labels)
    assert replayed["tau"] == [[list(pair) for pair in group]
                               for group in run.induced.tau]
    mantissa, exponent = math.frexp(factor)
    if mantissa == 0.5:
        assert np.array_equal(induced.cluster_means,
                              np.ldexp(run.induced.cluster_means, exponent - 1))


def test_init_non_float64_uploads_take_the_exact_path(monkeypatch):
    # Integer and float32 uploads are scaled to float64, so their picks
    # are the exact path's and the oracle's, and the seed points keep the
    # uploads' dtype. In float32 the squares near 2^28 round to 32, so a
    # float32 product would rank the 2.875 step above the 3.875 one.
    calls = spy_exact(monkeypatch)
    rng = np.random.default_rng(33)
    cases = [[np.array([[16384.0]]), np.array([[16387.875]]),
              np.array([[16381.125]])]]
    cases += [[rng.integers(-5, 6, size=(int(m), 3)) for m in sizes]
              for sizes in rng.integers(1, 4, size=(5, 3))]
    for centers in cases:
        expected = greedy_max_min(list(enumerate(centers)),
                                  sum(len(c) for c in centers), 0)
        for dtype in (np.int64, np.float32):
            uploads = [DeviceCenters(device_id=z, centers=c.astype(dtype),
                                     local_assignment=np.empty(0, dtype=int))
                       for z, c in enumerate(centers)]
            _check_init(uploads, calls, expected)
            init = farthest_point_init(uploads, len(expected),
                                       accounting=OpsAccounting())
            assert init.points.dtype == dtype


def test_init_too_few_centers():
    with pytest.raises(ValueError, match="fewer than k device centers"):
        farthest_point_init([_dc(0, [[0.0], [1.0]])], 3, accounting=OpsAccounting())


# ---------------------------------------------------------------------------
# one_round_lloyd

def test_round_groups_duplicates_with_seeds():
    base = np.array([[0.0, 0.0], [20.0, 0.0]])
    uploads = [_dc(0, base), _dc(1, base)]
    init = farthest_point_init(uploads, 2, accounting=OpsAccounting())
    induced = one_round_lloyd(uploads, init, accounting=OpsAccounting())
    for r in range(2):
        # each group holds the seed point's provenance plus the other
        # device's copy of it (distance zero)
        assert init.provenance[r] in induced.tau[r]
        assert sorted(induced.tau[r]) == [(0, r), (1, r)]
        assert np.allclose(induced.cluster_means[r], base[r])


def test_round_tie_goes_to_lower_group():
    uploads = [_dc(0, [[0.0], [10.0]]), _dc(1, [[5.0]])]
    init = farthest_point_init(uploads, 2, accounting=OpsAccounting())
    induced = one_round_lloyd(uploads, init, accounting=OpsAccounting())
    assert (1, 0) in induced.tau[0]


def test_round_takes_seeds_whose_squares_overflow():
    # Uploads and seeds are scaled together, so seeds at 1e300 label the
    # uploads as at scale 1; the tie at 0 goes to the lower group.
    uploads = [_dc(0, [[0.0], [9e299]]), _dc(1, [[-9e299]])]
    init = FarthestInit(points=np.array([[1e300], [-1e300]]), provenance=[])
    induced = one_round_lloyd(uploads, init, accounting=OpsAccounting())
    assert induced.tau == [[(0, 0), (0, 1)], [(1, 0)]]
    assert induced.cluster_means.tolist() == [[4.5e299], [-9e299]]


def test_round_builds_induced_rows():
    rng = np.random.default_rng(0)
    low = rng.normal(size=(20, 3))
    high = rng.normal(size=(20, 3)) + [40.0, 0.0, 0.0]
    data = np.concatenate([low, high])
    rows = [np.arange(0, 10), np.arange(10, 20),
            np.arange(20, 30), np.arange(30, 40)]
    uploads = []
    for z, r in enumerate(rows):
        uploads.append(DeviceCenters(device_id=z,
                                     centers=data[r].mean(axis=0, keepdims=True),
                                     local_assignment=np.zeros(10, dtype=int),
                                     rows=r))
    init = farthest_point_init(uploads, 2, accounting=OpsAccounting())
    induced = one_round_lloyd(uploads, init, n_total=40, accounting=OpsAccounting())
    truth = np.repeat([0, 1], 20)
    assert matched_accuracy(induced.assignment, truth).accuracy == 1.0
    assert induced.covered().all()


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes of Python and numpy allocations while ``fn(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aggregator_memory_linear_in_uploads():
    # 40 devices x 8 centers at d=300 against k=64 seeds: an (uploads, k, d)
    # difference block would be 64 times the size of the uploads.
    rng = np.random.default_rng(5)
    uploads = [_dc(z, rng.normal(size=(8, 300))) for z in range(40)]
    stacked = np.concatenate([dc.centers for dc in uploads])
    init = farthest_point_init(uploads, 64, accounting=OpsAccounting())
    assert _traced_peak(farthest_point_init, uploads, 64,
                        accounting=OpsAccounting()) < 8 * stacked.nbytes
    assert _traced_peak(one_round_lloyd, uploads, init,
                        accounting=OpsAccounting()) < 8 * stacked.nbytes


def test_round_and_late_join_match_pairwise_argmin_oracle():
    rng = np.random.default_rng(74)
    for case in range(90):
        d, k = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        scale = [1.0, 1e150, 1e-150][case % 3]
        uploads = []
        for z in range(int(rng.integers(1, 6))):
            centers = rng.normal(size=(int(rng.integers(1, 5)), d)) * 2.0
            if case % 2:                    # integer grid: exact ties
                centers = np.round(centers)
            uploads.append(_dc(z, centers * scale))
        stacked = np.concatenate([dc.centers for dc in uploads])
        picks = rng.integers(0, stacked.shape[0], size=k)  # may repeat
        init = FarthestInit(points=stacked[picks], provenance=[])
        acc = OpsAccounting()
        induced = one_round_lloyd(uploads, init, accounting=acc)
        expected = sequential_sq(stacked, init.points).argmin(axis=1)
        offsets = np.cumsum([0] + [dc.k_z for dc in uploads])
        labels = np.full(stacked.shape[0], -1)
        for group, members in enumerate(induced.tau):
            for z, i in members:
                labels[offsets[z] + i] = group
        assert labels.tolist() == expected.tolist()
        assert acc.pairwise_distance_count == stacked.shape[0] * k

        late = rng.normal(size=(int(rng.integers(1, 6)), d)) * 2.0
        late = (np.round(late) if case % 2 else late) * scale
        acc = OpsAccounting()
        got = assign_new_device(induced.cluster_means, late, accounting=acc)
        oracle = sequential_sq(late, induced.cluster_means).argmin(axis=1)
        assert got.tolist() == oracle.tolist()
        assert acc.pairwise_distance_count == late.shape[0] * k


# ---------------------------------------------------------------------------
# assign_new_device

def test_assign_duplicate_device_matches():
    labels = assign_new_device(np.array([[0.0], [10.0]]), np.array([[0.2], [9.5]]),
                               accounting=OpsAccounting())
    assert labels.tolist() == [0, 1]


def test_assign_counts_distances():
    means = np.random.default_rng(1).normal(size=(5, 3))
    acc = OpsAccounting()
    assign_new_device(means, np.zeros((1, 3)), accounting=acc)
    assert acc.pairwise_distance_count == 5


def test_assign_requires_state():
    with pytest.raises(ValueError, match="group means must be 2-D"):
        assign_new_device(None, np.zeros((1, 1)), accounting=OpsAccounting())


# ---------------------------------------------------------------------------
# run_kfed

def test_single_device_reduces_to_local_solve():
    _, data, truth, _ = planted_instance(3, k=4, d=16, per_cluster=30, m0=1,
                                         group_size=4)
    partition = DevicePartition(device_rows=[np.arange(data.shape[0])], k=4,
                                k_per_device=[4])
    run = run_kfed(partition, data, seed=3)
    local = local_cluster(data, 4, (3, 0))
    agree = matched_accuracy(run.induced.assignment, local.clusters.assignment)
    assert agree.accuracy == 1.0
    assert all(len(group) == 1 for group in run.induced.tau)


def _lowsep_iid_instance(seed):
    """c=4 sigma means, k=16, d=50, 150 rows per cluster, IID over 20 devices."""
    spec = MixtureSpec(k=16, d=50, n=16 * 150, sigma_max=1.0, seed=seed,
                       mean_mode="sigma", c=4.0, m0=5.0)
    data, truth = generate_mixture(spec)
    partition = iid_partition(spec.n, 20, seed)
    partition.annotate_from_labels(truth.assignment, truth.k)
    return data, partition


@pytest.mark.parametrize("shape", ["table1_large", "lowsep_iid"])
def test_benchmark_shapes_take_no_exact_fallback(monkeypatch, shape):
    # Every certificate holds on the benchmark's pipeline shapes, device
    # solves and server alike: a lost one fails here, not only in time.
    if shape == "table1_large":
        _, data, _, partition = planted_instance(0, k=64, d=300, per_cluster=100,
                                                 m0=5, group_size=8)
    else:
        data, partition = _lowsep_iid_instance(0)
    calls = spy_exact(monkeypatch)
    run_kfed(partition, data, seed=0)
    assert calls == []


def test_one_shot_message_log():
    _, data, truth, partition = planted_instance(5)
    run = run_kfed(partition, data, seed=5)
    ups = [m for m in run.accounting.messages if m.direction == "up"]
    downs = [m for m in run.accounting.messages if m.direction == "down"]
    assert len(ups) == partition.num_devices
    assert len(downs) == partition.num_devices
    assert {m.device_id for m in ups} == set(range(partition.num_devices))
    assert run.accounting.messages_sent == 2 * partition.num_devices
    d = data.shape[1]
    for m in ups:
        assert m.n_bytes == 8 * d * 3


def test_distance_budget_and_recovery():
    _, data, truth, partition = planted_instance(6)
    run = run_kfed(partition, data, seed=6)
    k = truth.k
    k_prime = max(partition.k_per_device)
    budget = 2 * partition.num_devices * k_prime * k * k
    assert run.accounting.pairwise_distance_count <= budget
    result = matched_accuracy(run.induced.assignment, truth.assignment)
    assert result.accuracy == 1.0
    # misclassified fraction far below the 64 / c**2 allowance at c=100
    assert result.misclassified <= 64 / 100.0 ** 2 * data.shape[0]


def test_init_covers_every_planted_cluster():
    _, data, truth, partition = planted_instance(7)
    run = run_kfed(partition, data, seed=7)
    planted = init_planted_clusters(run, partition, truth)
    assert len(set(planted)) == truth.k


def test_center_spread_bounds():
    # centers of the same cluster cluster tightly; different clusters stay
    # 6 sqrt(m0) lambda apart while same-cluster spread stays within
    # 4 sqrt(m0) lambda
    _, data, truth, partition = planted_instance(8)
    run = run_kfed(partition, data, seed=8)
    report = separation_quantities(data, truth, partition, c=100.0)
    bound = np.sqrt(report.m0) * report.lambda_
    by_cluster: dict[int, list[np.ndarray]] = {}
    for z, dc in run.device_centers.items():
        rows = partition.device_rows[z]
        for i in range(dc.k_z):
            members = rows[dc.local_assignment == i]
            values, counts = np.unique(truth.assignment[members],
                                       return_counts=True)
            by_cluster.setdefault(int(values[counts.argmax()]), []).append(
                dc.centers[i])
    inter = np.inf
    intra = 0.0
    clusters = sorted(by_cluster)
    for r in clusters:
        arr = np.array(by_cluster[r])
        if arr.shape[0] > 1:
            diffs = np.linalg.norm(arr[:, None] - arr[None, :], axis=2)
            intra = max(intra, float(diffs.max()))
        for s in clusters:
            if s <= r:
                continue
            other = np.array(by_cluster[s])
            gap = np.linalg.norm(arr[:, None] - other[None, :], axis=2).min()
            inter = min(inter, float(gap))
    assert inter >= 6.0 * bound
    assert intra <= 4.0 * bound


def test_dropout_excluded_devices_silent():
    _, data, truth, partition = planted_instance(9)
    run = run_kfed(partition, data, seed=9, exclude_devices=(0, 1))
    talking = {m.device_id for m in run.accounting.messages}
    assert 0 not in talking and 1 not in talking
    silent_rows = np.concatenate([partition.device_rows[0],
                                  partition.device_rows[1]])
    assert (run.induced.assignment[silent_rows] == -1).all()
    covered = run.induced.covered()
    assert matched_accuracy(run.induced.assignment[covered],
                            truth.assignment[covered]).accuracy == 1.0


def test_dropout_below_k_centers_errors():
    _, data, truth, partition = planted_instance(10, k=4, d=16, per_cluster=20,
                                                 m0=1, group_size=2)
    # both devices hold 2 clusters each; dropping one leaves 2 < 4 centers
    with pytest.raises(ValueError, match="fewer than k device centers"):
        run_kfed(partition, data, seed=1, exclude_devices=(1,))
    # dropping both leaves no uploads at all
    with pytest.raises(ValueError, match="fewer than k device centers"):
        run_kfed(partition, data, seed=1, exclude_devices=(0, 1))


def test_dropout_unknown_device_errors():
    _, data, _, partition = planted_instance(10, k=4, d=16, per_cluster=20,
                                             m0=1, group_size=2)
    # two devices, 0 and 1
    with pytest.raises(ValueError, match="cannot exclude device 2"):
        run_kfed(partition, data, seed=1, exclude_devices=(1, 2))


def test_induced_clustering_partitions_regardless_of_separation():
    # no planted structure at all: the induced clustering must still be a
    # disjoint cover of every participating row
    rng = np.random.default_rng(200)
    data = rng.normal(size=(60, 5))
    rows = [np.arange(0, 20), np.arange(20, 40), np.arange(40, 60)]
    partition = DevicePartition(device_rows=rows, k=3, k_per_device=[3, 3, 3])
    run = run_kfed(partition, data, seed=17)
    assert run.induced.covered().all()
    assert set(np.unique(run.induced.assignment)) <= set(range(3))
    total = sum(len(group) for group in run.induced.tau)
    assert total == 9  # every submitted center lands in exactly one group


def test_run_deterministic():
    _, data, truth, partition = planted_instance(11, k=4, d=12, per_cluster=24,
                                                 m0=2, group_size=2)
    a = run_kfed(partition, data, seed=11)
    b = run_kfed(partition, data, seed=11)
    assert np.array_equal(a.induced.assignment, b.induced.assignment)
    assert np.array_equal(a.induced.cluster_means, b.induced.cluster_means)


def test_late_join_matches_full_rerun():
    _, data, truth, partition = planted_instance(12)
    last = partition.num_devices - 1
    full = run_kfed(partition, data, seed=12)
    reduced = run_kfed(partition, data, seed=12, exclude_devices=(last,))
    held = local_cluster(data[partition.device_rows[last]],
                         partition.k_per_device[last], (12, last))
    acc = OpsAccounting()
    center_labels = assign_new_device(reduced.induced.cluster_means, held.centers,
                                      accounting=acc)
    assert acc.pairwise_distance_count == partition.k_per_device[last] * truth.k
    shared = reduced.induced.covered()
    mapping = matched_accuracy(reduced.induced.assignment[shared],
                               full.induced.assignment[shared])
    assert mapping.accuracy == 1.0
    joined = np.array([mapping.permutation[int(x)]
                       for x in center_labels[held.clusters.assignment]])
    assert np.array_equal(joined,
                          full.induced.assignment[partition.device_rows[last]])


# ---------------------------------------------------------------------------
# record / replay

def test_record_replay_round_trip(tmp_path):
    _, data, truth, partition = planted_instance(13, k=4, d=12, per_cluster=24,
                                                 m0=2, group_size=2)
    log = tmp_path / "messages.jsonl"
    record_run(log, run_kfed(partition, data, seed=13))
    audit = replay_run(log)
    assert audit["devices"] == partition.num_devices
    assert audit["k"] == 4
    # recording the same run again is byte-identical
    second = tmp_path / "again.jsonl"
    record_run(second, run_kfed(partition, data, seed=13))
    assert log.read_bytes() == second.read_bytes()


def test_replay_round_trip_on_certified_and_exact_init(tmp_path, monkeypatch):
    # The log and the replayed distance count are the same whether the
    # init is certified or, with its rounding bound made to fail, exact.
    _, data, truth, partition = planted_instance(15, k=6, d=20, per_cluster=24,
                                                 m0=2, group_size=3)
    calls = spy_exact(monkeypatch)
    logs, audits = {}, {}
    for path in ("certified", "exact"):
        if path == "exact":
            monkeypatch.setattr(federation, "_rounding_bound",
                                lambda a, b, width: np.full(np.broadcast(a, b).shape,
                                                            np.inf))
        calls.clear()
        run = run_kfed(partition, data, seed=15)
        logs[path] = tmp_path / f"{path}.jsonl"
        record_run(logs[path], run)
        audits[path] = replay_run(logs[path])
        assert bool(calls) == (path == "exact")
        assert audits[path]["distance_count"] == run.accounting.pairwise_distance_count
    assert logs["certified"].read_bytes() == logs["exact"].read_bytes()
    assert audits["certified"] == audits["exact"]


def test_replay_detects_tampering(tmp_path):
    _, data, truth, partition = planted_instance(14, k=4, d=12, per_cluster=24,
                                                 m0=2, group_size=2)
    log = tmp_path / "messages.jsonl"
    record_run(log, run_kfed(partition, data, seed=14))
    lines = log.read_text().splitlines()

    # reformatted bytes are rejected even when the JSON content is equal
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n".join([lines[0], lines[1].replace(",", ", ", 1)]
                                + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="canonical"):
        replay_run(spaced)

    # a falsified outcome trailer is caught by re-aggregation
    import json
    trailer = json.loads(lines[-1])
    trailer["tau"][0], trailer["tau"][1] = trailer["tau"][1], trailer["tau"][0]
    from kfed.federation import canonical_json
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join(lines[:-1] + [canonical_json(trailer)]) + "\n")
    with pytest.raises(ValueError, match="diverges"):
        replay_run(forged)

    # so is a falsified seed provenance that leaves the groups as recorded
    trailer = json.loads(lines[-1])
    trailer["init_provenance"].reverse()
    forged.write_text("\n".join(lines[:-1] + [canonical_json(trailer)]) + "\n")
    with pytest.raises(ValueError, match="diverges"):
        replay_run(forged)
