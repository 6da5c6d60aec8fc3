import tracemalloc

import numpy as np
import pytest

from kfed.datagen import DevicePartition
from kfed.evaluation import matched_accuracy
from kfed.federation import (DeviceCenters, OpsAccounting, assign_new_device,
                             farthest_point_init, one_round_lloyd, replay_run,
                             run_kfed)
from kfed.local import local_cluster
from kfed.separation import separation_quantities
from helpers import init_planted_clusters, planted_instance
from oracles import greedy_max_min


def _dc(device_id, centers, assignment=None):
    centers = np.asarray(centers, dtype=float)
    if assignment is None:
        assignment = np.empty(0, dtype=int)
    return DeviceCenters(device_id=device_id, centers=centers,
                         local_assignment=np.asarray(assignment, dtype=int))


# ---------------------------------------------------------------------------
# farthest_point_init

def test_init_duplicated_points_pick_each_once():
    base = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    uploads = [_dc(z, base) for z in range(5)]
    init = farthest_point_init(uploads, 3)
    rounded = {tuple(np.round(p, 9)) for p in init.points}
    assert rounded == {tuple(row) for row in base}


def test_init_single_device_loop_skipped():
    centers = np.array([[1.0], [5.0], [9.0]])
    acc = OpsAccounting()
    init = farthest_point_init([_dc(0, centers)], 3, accounting=acc)
    assert np.array_equal(init.points, centers)
    assert init.provenance == [(0, 0), (0, 1), (0, 2)]
    assert acc.pairwise_distance_count == 0


def test_init_collinear_picks_farthest():
    uploads = [_dc(0, [[0.0]]), _dc(1, [[1.0]]), _dc(2, [[10.0]])]
    init = farthest_point_init(uploads, 2, start_device=0)
    assert sorted(float(p[0]) for p in init.points) == [0.0, 10.0]
    # one distance per open upload per step: 2 from (0, 0), then 1 from (2, 0)
    acc = OpsAccounting()
    init = farthest_point_init(uploads, 3, start_device=0, accounting=acc)
    assert init.provenance == [(0, 0), (2, 0), (1, 0)]
    assert acc.pairwise_distance_count == 3


def test_init_tie_breaks_lexicographically():
    uploads = [_dc(0, [[0.0]]), _dc(1, [[4.0]]), _dc(2, [[-4.0]])]
    init = farthest_point_init(uploads, 2, start_device=0)
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
        total = sum(dc.k_z for dc in uploads)
        for k in range(s, total + 1):
            acc = OpsAccounting()
            init = farthest_point_init(uploads, k, start_device=start,
                                       accounting=acc)
            expected = greedy_max_min([(dc.device_id, dc.centers) for dc in uploads],
                                      k, start)
            assert init.provenance == expected, (trial, k)
            # the first step measures from all s start centers, later steps
            # only from the newest seed
            open_uploads = range(total - s, total - k, -1)
            assert acc.pairwise_distance_count == sum(
                n * (s if step == 0 else 1) for step, n in enumerate(open_uploads))


def test_init_too_few_centers():
    with pytest.raises(ValueError, match="fewer than k device centers"):
        farthest_point_init([_dc(0, [[0.0], [1.0]])], 3)


# ---------------------------------------------------------------------------
# one_round_lloyd

def test_round_groups_duplicates_with_seeds():
    base = np.array([[0.0, 0.0], [20.0, 0.0]])
    uploads = [_dc(0, base), _dc(1, base)]
    init = farthest_point_init(uploads, 2)
    induced = one_round_lloyd(uploads, init)
    for r in range(2):
        # each group holds the seed point's provenance plus the other
        # device's copy of it (distance zero)
        assert init.provenance[r] in induced.tau[r]
        assert sorted(induced.tau[r]) == [(0, r), (1, r)]
        assert np.allclose(induced.cluster_means[r], base[r])


def test_round_tie_goes_to_lower_group():
    uploads = [_dc(0, [[0.0], [10.0]]), _dc(1, [[5.0]])]
    init = farthest_point_init(uploads, 2, start_device=0)
    induced = one_round_lloyd(uploads, init)
    assert (1, 0) in induced.tau[0]


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
    init = farthest_point_init(uploads, 2)
    induced = one_round_lloyd(uploads, init, n_total=40)
    truth = np.repeat([0, 1], 20)
    assert matched_accuracy(induced.assignment, truth).accuracy == 1.0
    assert induced.covered().all()


def _traced_peak(fn, *args) -> int:
    """Peak bytes of Python and numpy allocations while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aggregator_memory_linear_in_uploads():
    # 40 devices x 8 centers at d=300 against k=64 seeds: an (uploads, k, d)
    # difference block would be 64 times the size of the uploads.
    rng = np.random.default_rng(5)
    uploads = [_dc(z, rng.normal(size=(8, 300))) for z in range(40)]
    stacked = np.concatenate([dc.centers for dc in uploads])
    init = farthest_point_init(uploads, 64)
    assert _traced_peak(farthest_point_init, uploads, 64) < 8 * stacked.nbytes
    assert _traced_peak(one_round_lloyd, uploads, init) < 8 * stacked.nbytes


# ---------------------------------------------------------------------------
# assign_new_device

def test_assign_duplicate_device_matches():
    labels = assign_new_device(np.array([[0.0], [10.0]]), _dc(7, [[0.2], [9.5]]))
    assert labels.tolist() == [0, 1]


def test_assign_counts_distances():
    means = np.random.default_rng(1).normal(size=(5, 3))
    acc = OpsAccounting()
    assign_new_device(means, _dc(9, np.zeros((1, 3))), acc)
    assert acc.pairwise_distance_count == 5


def test_assign_requires_state():
    with pytest.raises(ValueError, match="group means must be 2-D"):
        assign_new_device(None, _dc(0, [[0.0]]))


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


def test_one_shot_message_log():
    _, data, truth, partition = planted_instance(5)
    run = run_kfed(partition, data, seed=5)
    ups = [m for m in run.accounting.messages if m.direction == "up"]
    downs = [m for m in run.accounting.messages if m.direction == "down"]
    assert len(ups) == partition.num_devices
    assert len(downs) == partition.num_devices
    assert {m.device_id for m in ups} == set(range(partition.num_devices))
    assert all(m.kind == "centers" for m in ups)
    assert all(m.kind == "labels" for m in downs)
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


def test_threads_env_variable(monkeypatch):
    _, data, truth, partition = planted_instance(15, k=4, d=12, per_cluster=24,
                                                 m0=2, group_size=2)
    base = run_kfed(partition, data, seed=15)
    for threads in ("3", "4"):
        monkeypatch.setenv("KFED_THREADS", threads)
        threaded = run_kfed(partition, data, seed=15)
        assert np.array_equal(base.induced.assignment, threaded.induced.assignment)
        assert np.array_equal(base.induced.cluster_means,
                              threaded.induced.cluster_means)


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
    center_labels = assign_new_device(
        reduced.induced.cluster_means,
        DeviceCenters(last, held.centers, held.clusters.assignment), acc)
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
    run_kfed(partition, data, seed=13, record_path=log)
    audit = replay_run(log)
    assert audit["devices"] == partition.num_devices
    assert audit["k"] == 4
    # recording the same run again is byte-identical
    second = tmp_path / "again.jsonl"
    run_kfed(partition, data, seed=13, record_path=second)
    assert log.read_bytes() == second.read_bytes()


def test_replay_detects_tampering(tmp_path):
    _, data, truth, partition = planted_instance(14, k=4, d=12, per_cluster=24,
                                                 m0=2, group_size=2)
    log = tmp_path / "messages.jsonl"
    run_kfed(partition, data, seed=14, record_path=log)
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
