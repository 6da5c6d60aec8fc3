import json

import numpy as np
import pytest
from scipy import stats

from kfed import datagen
from kfed.datagen import (DevicePartition, MixtureSpec, PartitionSpec,
                          auto_separation_distance, estimate_m0,
                          generate_mixture, iid_partition,
                          load_data_csv, load_labels_csv, load_partition_json,
                          resolve_means, save_instance, structured_partition)
from kfed.evaluation import kmeans_cost
from kfed.separation import separation_quantities


def _spec(**overrides):
    base = dict(k=4, d=8, n=80, sigma_max=1.0, seed=0, mean_mode="auto",
                c=10.0, m0=2.0)
    base.update(overrides)
    return MixtureSpec(**base)


def test_zero_sigma_points_equal_means(monkeypatch):
    # both placements scale with sigma_max and would put every mean at 0
    means = np.arange(32, dtype=float).reshape(4, 8)
    monkeypatch.setattr(datagen, "resolve_means", lambda spec: means)
    data, truth = generate_mixture(_spec(sigma_max=0.0))
    assert np.array_equal(data, means[truth.assignment])
    assert np.allclose(data, truth.centers[truth.assignment])
    assert kmeans_cost(data, truth) == 0.0


def test_single_component_mean_converges():
    n = 10_000
    spec = _spec(k=1, n=n, d=6)
    data, truth = generate_mixture(spec)
    assert np.array_equal(truth.assignment, np.zeros(n, dtype=int))
    tolerance = 5.0 / np.sqrt(n)
    assert np.all(np.abs(data.mean(axis=0) - resolve_means(spec)[0]) < tolerance)


def test_auto_means_meet_requested_distance():
    spec = _spec(k=16, d=100, n=3200, c=100.0, m0=5.0)
    requested = 100.0 * np.sqrt(16 * 5.0) * 1.0 / np.sqrt(1.0 / 16)
    means = generate_mixture(spec)[1].centers
    # empirical means wobble by the sample noise, so audit the placement
    placed = resolve_means(spec)
    for r in range(16):
        for s in range(r + 1, 16):
            assert np.linalg.norm(placed[r] - placed[s]) >= requested
    assert means.shape == (16, 100)


def test_auto_distance_covers_requested_formula():
    spec = _spec(k=9, d=20, n=270, c=50.0, m0=3.0)
    floor = 50.0 * np.sqrt(9 * 3.0) / np.sqrt(1.0 / 9)
    assert auto_separation_distance(spec) >= floor


def test_mixture_bound_holds_data_and_means_else_generation_refuses():
    # Stream.normals' largest radius comes from the largest 53-bit uniform.
    assert np.sqrt(-2.0 * np.log1p(-(1.0 - 2.0 ** -53))) < datagen._NORMAL_BOUND
    generated = 0
    for mode in ("auto", "sigma"):
        for c, sigma in [(10.0, 1.0), (1e300, 1.0), (4.0, 1e306), (1e308, 1.0)]:
            spec = _spec(mean_mode=mode, c=c, sigma_max=sigma)
            bound = datagen.mixture_bound(spec)
            if np.isfinite(bound):
                generated += 1
                data, truth = generate_mixture(spec)   # no overflow warning
                assert 2 * spec.n * np.abs(data).max() <= bound
                assert np.isfinite(truth.centers).all()
            else:
                with pytest.raises(ValueError, match="^mixture or its cluster sums "
                                                     "would not be finite$"):
                    generate_mixture(spec)
    assert generated == 4


def test_auto_mode_needs_enough_dimensions():
    with pytest.raises(ValueError, match="k <= d"):
        generate_mixture(_spec(k=10, d=4, n=100))


def test_balanced_counts_exact():
    data, truth = generate_mixture(_spec(n=82))
    sizes = truth.sizes()
    assert sizes.sum() == 82
    assert sizes.max() - sizes.min() <= 1


def test_weighted_counts_exact():
    spec = _spec(n=4000, weights=np.array([0.7, 0.1, 0.1, 0.1]))
    _, truth = generate_mixture(spec)
    assert truth.sizes().tolist() == [2800, 400, 400, 400]


def test_weight_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        generate_mixture(_spec(weights=np.array([0.5, 0.2, 0.1, 0.1])))
    with pytest.raises(ValueError, match="positive"):
        generate_mixture(_spec(weights=np.array([1.0, 0.2, -0.1, -0.1])))


def test_too_few_samples():
    for n in (0, 3):  # k = 4 components
        with pytest.raises(ValueError, match="too few samples"):
            generate_mixture(_spec(n=n))


def test_generation_reproducible():
    a_data, a_truth = generate_mixture(_spec(seed=42))
    b_data, b_truth = generate_mixture(_spec(seed=42))
    assert np.array_equal(a_data, b_data)
    assert np.array_equal(a_truth.assignment, b_truth.assignment)


# ---------------------------------------------------------------------------
# structured partitions

def test_structured_partition_small_case():
    data, truth = generate_mixture(_spec(k=4, n=80))
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=2,
                                                     group_size=2))
    assert part.num_devices == 4
    assert part.k_per_device == [2, 2, 2, 2]
    counts = part.counts_by_cluster(truth.assignment, 4)
    co_resident = lambda r, s: bool(((counts[:, r] > 0) & (counts[:, s] > 0)).any())
    assert co_resident(0, 1)
    assert not co_resident(0, 2)


def test_structured_partition_active_pair_counts():
    data, truth = generate_mixture(_spec(k=16, d=20, n=16 * 40, c=5.0))
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=5,
                                                     group_size=4))
    counts = part.counts_by_cluster(truth.assignment, 16)
    active = 0
    for r in range(16):
        for s in range(r + 1, 16):
            if ((counts[:, r] > 0) & (counts[:, s] > 0)).any():
                active += 1
    assert active == 24           # sqrt(k) groups, C(sqrt(k), 2) pairs each
    assert 16 * 15 // 2 - active == 96


def test_structured_partition_one_group_all_active():
    data, truth = generate_mixture(_spec(k=4, n=80))
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=2,
                                                     group_size=4))
    counts = part.counts_by_cluster(truth.assignment, 4)
    for r in range(4):
        for s in range(r + 1, 4):
            assert ((counts[:, r] > 0) & (counts[:, s] > 0)).any()


def test_structured_partition_share_floor_and_k_prime():
    data, truth = generate_mixture(_spec(k=4, n=83))
    m0 = 3
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=m0,
                                                     group_size=2))
    counts = part.counts_by_cluster(truth.assignment, 4)
    sizes = truth.sizes()
    for z in range(part.num_devices):
        for r in range(4):
            if counts[z, r]:
                assert counts[z, r] >= sizes[r] // m0
    assert max(part.k_per_device) == 2


def test_structured_partition_m0_too_large():
    data, truth = generate_mixture(_spec(k=4, n=80))
    with pytest.raises(ValueError, match="m0"):
        structured_partition(truth, PartitionSpec(mode="structured", m0=21,
                                                  group_size=2))


def test_partition_is_disjoint_cover():
    data, truth = generate_mixture(_spec(k=4, n=80))
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=2,
                                                     group_size=2))
    part.validate(80)


@pytest.mark.parametrize("rows, covers", [
    ([[0, 1], [2, 3]], True),
    ([[3, 0], [], [2, 1]], True),
    ([[0, 1, 2], [2, 3]], False),
    ([[0, 1, 1], [3]], False),
    ([[0, 1], [3]], False),
    ([[0, 1, 2], [-1]], False),
    ([[0, 1, 2], [4]], False),
    ([], False)])
def test_check_cover_takes_each_row_id_exactly_once(rows, covers):
    part = DevicePartition(device_rows=[np.array(r, dtype=int) for r in rows])
    if covers:
        part.check_cover(4)
    else:
        with pytest.raises(ValueError,
                           match="^device rows must disjointly cover all rows$"):
            part.check_cover(4)
        with pytest.raises(ValueError,
                           match="^device rows must disjointly cover all rows$"):
            part.validate(4)


def test_auto_means_satisfy_active_requirement():
    # ties the generator's placement to the separation thresholds
    data, truth = generate_mixture(_spec(k=9, d=24, n=9 * 45, c=100.0, m0=3.0))
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=3,
                                                     group_size=3))
    report = separation_quantities(data, truth, part, c=100.0, m0=3.0)
    assert report.active_ok[report.pair_active].all()


# ---------------------------------------------------------------------------
# iid partitions

def test_iid_single_device():
    part = iid_partition(10, 1, seed=0)
    assert part.num_devices == 1
    assert part.device_rows[0].size == 10


def test_iid_partition_deterministic_cover():
    # n = Z = 20 leaves some device empty on almost every uniform draw
    for n, z, seed in [(100, 4, 7), (20, 20, 0), (20, 20, 1), (20, 20, 2)]:
        a = iid_partition(n, z, seed=seed)
        b = iid_partition(n, z, seed=seed)
        for rows_a, rows_b in zip(a.device_rows, b.device_rows):
            assert np.array_equal(rows_a, rows_b)
        a.validate(n)
        assert a.num_devices == z
        assert all(rows.size > 0 for rows in a.device_rows)


def test_iid_partition_sizes_chi_square():
    z = 4
    counts = np.zeros(z)
    for seed in range(100):
        part = iid_partition(100, z, seed=seed)
        counts += [rows.size for rows in part.device_rows]
    expected = counts.sum() / z
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = stats.chi2.sf(statistic, df=z - 1)
    assert p_value > 0.001


def test_annotate_from_labels():
    part = iid_partition(60, 3, seed=2)
    labels = np.repeat([0, 1, 2], 20)
    part.annotate_from_labels(labels, 3)
    assert part.k == 3
    assert all(1 <= kz <= 3 for kz in part.k_per_device)
    assert estimate_m0(part.counts_by_cluster(labels, 3)) >= 1.0


# ---------------------------------------------------------------------------
# instance files

def test_save_and_load_round_trip(tmp_path):
    data, truth = generate_mixture(_spec())
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=2,
                                                     group_size=2))
    paths = save_instance(tmp_path, data, truth, part, {"idtag": 1})
    loaded = load_data_csv(paths["data"])
    assert np.allclose(loaded, data, atol=0)        # %.17g round-trips exactly
    labels = load_labels_csv(paths["labels"])
    assert np.array_equal(labels, truth.assignment)
    reloaded = load_partition_json(paths["partition"], data.shape[0])
    for rows_a, rows_b in zip(reloaded.device_rows, part.device_rows):
        assert np.array_equal(rows_a, rows_b)
    assert json.loads(paths["spec"].read_text())["idtag"] == 1


def test_load_partition_keys_are_device_ids(tmp_path):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps({"1": [2, 0], "0": [1]}))   # file order is free
    loaded = load_partition_json(path, 3)
    assert [rows.tolist() for rows in loaded.device_rows] == [[1], [2, 0]]
    for keys, bad in ((["1", "2"], "2"), (["0", "01"], "01"), (["0", "-1"], "-1"),
                      (["0", " 1"], " 1"), (["0", "x"], "x")):
        path.write_text(json.dumps(dict(zip(keys, [[1], [2, 0]]))))
        with pytest.raises(ValueError, match=f'^device key "{bad}" is not one of '
                                             f'the ids "0".."1"$'):
            load_partition_json(path, 3)
    path.write_text(json.dumps({"0": [0, 1, 2], "1": []}))
    with pytest.raises(ValueError, match="device 1 holds no rows"):
        load_partition_json(path, 3)


def test_load_labels_rejects_unseen_cluster(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\n1\n5\n")
    with pytest.raises(ValueError, match="row 2.*cluster 5"):
        load_labels_csv(path, k=3)


def test_instance_files_byte_identical(tmp_path):
    data, truth = generate_mixture(_spec(seed=9))
    part = structured_partition(truth, PartitionSpec(mode="structured", m0=2,
                                                     group_size=2))
    first = save_instance(tmp_path / "a", data, truth, part, {"seed": 9})
    second = save_instance(tmp_path / "b", data, truth, part, {"seed": 9})
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()
