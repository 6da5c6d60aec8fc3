"""Input errors of public entry points that no other test reaches, by exact
type and message."""

import numpy as np
import pytest

from kfed import datagen, evaluation, federation, linalg, local, separation
from kfed.datagen import DevicePartition, MixtureSpec, PartitionSpec
from kfed.local import Clustering
from kfed.rng import Stream

_ROWS = np.arange(12.0).reshape(4, 3) ** 2
_NAN_ROWS = np.where(_ROWS == 25.0, np.nan, _ROWS)
_HUGE = np.full((3, 4), 1.7e308)    # finite rows, coordinates beyond the float range


def _truth() -> Clustering:
    return Clustering.from_labels(_ROWS, np.array([0, 0, 1, 1]), 2)


def _uploads(rows=None) -> list[federation.DeviceCenters]:
    """Device 0 uploads three centers, device 1 one; ``rows`` per device."""
    return [federation.DeviceCenters(
        device_id=z, centers=_ROWS[first:last],
        local_assignment=np.zeros(1, int),
        rows=None if rows is None else np.array([z]))
        for z, (first, last) in enumerate([(0, 3), (3, 4)])]


def _clashing(second: np.ndarray) -> list[federation.DeviceCenters]:
    """Device 0 uploads three centers, then device 0 or 1 uploads ``second``:
    device 0 again when it is as wide, device 1 otherwise."""
    return [federation.DeviceCenters(
        device_id=z, centers=centers, local_assignment=np.zeros(1, int))
        for z, centers in [(0, _ROWS[:3]), (int(second.shape[1] != 3), second)]]


def _init(uploads, k):
    return federation.farthest_point_init(
        uploads, k, accounting=federation.OpsAccounting())


def _second_upload(centers: np.ndarray) -> list[federation.DeviceCenters]:
    """Device 0 uploads three centers, then device 1 uploads ``centers``."""
    return [federation.DeviceCenters(
        device_id=z, centers=c, local_assignment=np.zeros(1, int))
        for z, c in enumerate([_ROWS[:3], centers])]


def _lloyd(uploads, init) -> federation.InducedClustering:
    return federation.one_round_lloyd(uploads, init,
                                      accounting=federation.OpsAccounting())


def _spec(**fields) -> MixtureSpec:
    return MixtureSpec(**{"k": 2, "d": 3, "n": 8, "sigma_max": 1.0, "seed": 0,
                          **fields})


# case -> (the call, its exact message)
PUBLIC_ERRORS = {
    "from_labels_label_outside_k": (
        lambda: Clustering.from_labels(_ROWS, np.array([0, 1, 2, 1]), 2),
        "label 2 outside [0, 2)"),
    "lloyd_iterate_center_width": (
        lambda: local.lloyd_iterate(_ROWS, np.zeros((2, 4))),
        "centers have width 4, data rows have width 3"),
    "lloyd_iterate_no_center": (
        lambda: local.lloyd_iterate(_ROWS, np.empty((0, 3))),
        "need at least one initial center"),
    "approx_seed_rows_below_k": (
        lambda: local.approx_seed(_ROWS, 5, 0), "insufficient distinct points"),
    "approx_seed_k_zero": (
        lambda: local.approx_seed(_ROWS, 0, 0), "k must be at least 1"),
    "approx_seed_k_float": (
        lambda: local.approx_seed(_ROWS, 2.0, 0), "k must be an integer, got 2.0"),
    "approx_seed_matrix_list_seed": (
        lambda: local.approx_seed(_ROWS, 3, [1, 2]),
        "seed must be an integer or a tuple of integers, got [1, 2]"),
    "approx_seed_float_seed": (
        lambda: local.approx_seed(_ROWS, 3, 1.5),
        "seed must be an integer or a tuple of integers, got 1.5"),
    "lloyd_iterate_no_step": (
        lambda: local.lloyd_iterate(_ROWS, _ROWS[:2], max_iter=0),
        "max_iter must be at least 1"),
    "local_cluster_list_k_without_devices": (
        lambda: local.local_cluster(_ROWS, [2], [1]), "k must be an integer, got [2]"),
    "approx_seed_stack_seed_count": (
        lambda: local.approx_seed(np.stack([_ROWS, _ROWS]), 2, [0]),
        "need one seed per device"),
    "approx_seed_stack_tuple_seed": (
        lambda: local.approx_seed(np.stack([_ROWS, _ROWS]), 2, (1, 2)),
        "a stack needs a list of per-device seeds"),
    "threshold_assign_stack_flat_centers": (
        lambda: local.threshold_assign(np.stack([_ROWS, _ROWS]), _ROWS[:2]),
        "centers of shape (2, 3) do not fit rows of shape (2, 4, 3)"),
    "local_cluster_devices_outnumber_seeds": (
        lambda: local.local_cluster(_ROWS, [1, 1, 1], [0, 1],
                                    devices=[[0, 1], [2], [3]]),
        "3 devices need as many k and seeds, got 3 and 2"),
    "local_cluster_rows_below_k": (
        lambda: local.local_cluster(_ROWS, 5, 0), "insufficient distinct points"),
    "top_k_projection_left_gram_coords_overflow": (
        lambda: linalg.top_k_projection(_HUGE, 2),
        "projected coordinates exceed the float range"),
    "top_k_projection_right_gram_coords_overflow": (
        lambda: linalg.top_k_projection(_HUGE.T, 2),
        "projected coordinates exceed the float range"),
    "local_cluster_coords_overflow_k1": (
        lambda: local.local_cluster(_HUGE, 1, 0),
        "projected coordinates exceed the float range"),
    "local_cluster_coords_overflow_k4": (
        lambda: local.local_cluster(_HUGE, 4, 0),
        "projected coordinates exceed the float range"),
    "local_cluster_k_zero": (
        lambda: local.local_cluster(_ROWS, 0, 0), "k must be at least 1"),
    "threshold_assign_no_center": (
        lambda: local.threshold_assign(_ROWS, np.empty((0, 3))),
        "centers of shape (0, 3) do not fit rows of shape (4, 3)"),
    "threshold_assign_nan_center": (
        lambda: local.threshold_assign(_ROWS, np.array([[0.0, 0, 0], [np.nan, 1, 1]])),
        "centers contain non-finite values"),
    "threshold_assign_inf_center": (
        lambda: local.threshold_assign(_ROWS, np.array([[0.0, 0, 0], [np.inf, 1, 1]])),
        "centers contain non-finite values"),
    # distinct centers 2^-600 apart: the squared distance between them, and
    # so the row's to the other center, underflows to 0 even when scaled
    "threshold_assign_distances_underflow": (
        lambda: local.threshold_assign(np.array([[0.5, 0.0]]),
                                       np.array([[0.5, 0.0], [0.5, 2.0 ** -600]])),
        "squared distances to the centers leave the float range"),
    "lloyd_iterate_nan_center": (
        lambda: local.lloyd_iterate(_ROWS, np.array([[0.0, 0, 0], [np.nan, 1, 1]])),
        "centers contain non-finite values"),
    "lloyd_iterate_inf_center": (
        lambda: local.lloyd_iterate(_ROWS, np.array([[0.0, 0, 0], [np.inf, 1, 1]])),
        "centers contain non-finite values"),
    "from_labels_fewer_labels_than_rows": (
        lambda: Clustering.from_labels(_ROWS, np.array([0, 1, 1]), 2),
        "labels of shape (3,) do not fit rows of shape (4, 3)"),
    "init_repeated_device": (
        lambda: _init(_clashing(_ROWS[3:]), 4), "device 0 uploaded twice"),
    "init_mixed_widths": (
        lambda: _init(_clashing(np.zeros((1, 4))), 3),
        "device 1 uploaded centers of another width"),
    "one_round_lloyd_repeated_device": (
        lambda: _lloyd(_clashing(_ROWS[3:]), _init(_uploads(), 4)),
        "device 0 uploaded twice"),
    "one_round_lloyd_mixed_widths": (
        lambda: _lloyd(_clashing(np.zeros((1, 4))), _init(_uploads(), 4)),
        "device 1 uploaded centers of another width"),
    "init_start_device_too_many": (
        lambda: _init(_uploads(), 2),
        "start device has more centers than requested groups"),
    "init_upload_without_centers": (
        lambda: _init(_second_upload(np.empty((0, 3))), 3),
        "device 1 uploaded no centers"),
    "init_non_finite_upload": (
        lambda: _init(_second_upload(_NAN_ROWS[1:2]), 3),
        "device 1 uploaded non-finite centers"),
    "init_k_fraction": (
        lambda: _init(_uploads(), 2.5), "k must be an integer, got 2.5"),
    "init_k_zero": (lambda: _init(_uploads(), 0), "k must be at least 1"),
    "one_round_lloyd_non_finite_upload": (
        lambda: _lloyd(_second_upload(_NAN_ROWS[1:2]), _init(_uploads(), 4)),
        "device 1 uploaded non-finite centers"),
    "one_round_lloyd_init_width": (
        lambda: _lloyd(_uploads(), federation.FarthestInit(
            points=np.zeros((2, 4)), provenance=[(0, 0), (1, 0)])),
        "init points of shape (2, 4) do not fit uploads of width 3"),
    "one_round_lloyd_flat_init": (
        lambda: _lloyd(_uploads(), federation.FarthestInit(
            points=np.zeros(3), provenance=[(0, 0)])),
        "init points of shape (3,) do not fit uploads of width 3"),
    "one_round_lloyd_nan_init": (
        lambda: _lloyd(_uploads(), federation.FarthestInit(
            points=np.array([[0.0, 0, 0], [np.nan, 1, 1]]), provenance=[])),
        "init points contain non-finite values"),
    "one_round_lloyd_inf_init": (
        lambda: _lloyd(_uploads(), federation.FarthestInit(
            points=np.array([[0.0, 0, 0], [np.inf, 1, 1]]), provenance=[])),
        "init points contain non-finite values"),
    "one_round_lloyd_no_init_point": (
        lambda: _lloyd(_uploads(), federation.FarthestInit(
            points=np.empty((0, 3)), provenance=[])),
        "init points of shape (0, 3) do not fit uploads of width 3"),
    "one_round_lloyd_no_rows": (
        lambda: federation.one_round_lloyd(
            _uploads(), _init(_uploads(), 4), n_total=2,
            accounting=federation.OpsAccounting()),
        "no row indices known for device 0"),
    "assign_new_device_width": (
        lambda: federation.assign_new_device(
            _ROWS[:2], np.zeros((1, 4)), accounting=federation.OpsAccounting()),
        "device data has dimension 4, aggregation state has 3"),
    "assign_new_device_flat_centers": (
        lambda: federation.assign_new_device(
            _ROWS[:2], np.zeros(3), accounting=federation.OpsAccounting()),
        "device centers must be 2-D, got shape (3,)"),
    "run_kfed_unannotated": (
        lambda: federation.run_kfed(
            DevicePartition(device_rows=[np.arange(4)]), _ROWS, 0),
        "partition needs k and per-device cluster counts"),
    "validate_fractional_row_id": (
        lambda: DevicePartition(device_rows=[np.array([0.5, 1]), np.arange(2, 4)]
                                ).validate(4),
        "device rows must disjointly cover all rows"),
    "validate_bool_row_ids": (
        lambda: DevicePartition(device_rows=[np.array([False, True]), np.arange(2, 4)]
                                ).validate(4),
        "device rows must disjointly cover all rows"),
    "run_kfed_fractional_row_id": (
        lambda: federation.run_kfed(
            DevicePartition(device_rows=[np.array([0.5, 1]), np.arange(2, 4)],
                            k=2, k_per_device=[1, 1]), _ROWS, 0),
        "device rows must disjointly cover all rows"),
    "run_kfed_bool_row_ids": (
        lambda: federation.run_kfed(
            DevicePartition(device_rows=[np.array([False, True]), np.arange(2, 4)],
                            k=2, k_per_device=[1, 1]), _ROWS, 0),
        "device rows must disjointly cover all rows"),
    "estimate_m0_no_rows": (
        lambda: datagen.estimate_m0(np.zeros((2, 3), dtype=int)),
        "partition holds no rows"),
    "validate_k_per_device_above_k": (
        lambda: DevicePartition(device_rows=[np.arange(4)], k=2,
                                k_per_device=[3]).validate(4),
        "a device requests more clusters than exist globally"),
    "resolve_means_k_above_d": (
        lambda: datagen.resolve_means(_spec(k=4)),
        "automatic mean placement needs k <= d"),
    "resolve_means_unknown_mode": (
        lambda: datagen.resolve_means(_spec(mean_mode="grid")),
        "unknown mean mode 'grid'"),
    "generate_mixture_entries_overflow": (
        lambda: datagen.generate_mixture(_spec(c=1e308)),
        "mixture or its cluster sums would not be finite"),
    "generate_mixture_negative_sigma": (
        lambda: datagen.generate_mixture(_spec(sigma_max=-1.0)),
        "sigma_max must be nonnegative"),
    "structured_partition_not_structured": (
        lambda: datagen.structured_partition(_truth(), PartitionSpec(mode="iid")),
        "partition spec is not structured"),
    "structured_partition_no_m0": (
        lambda: datagen.structured_partition(
            _truth(), PartitionSpec(mode="structured")),
        "structured partitions need m0 >= 1"),
    "structured_partition_m0_above_share": (
        lambda: datagen.structured_partition(
            _truth(), PartitionSpec(mode="structured", m0=3)),
        "m0=3 exceeds the smallest per-device share for clusters [0, 1]"),
    "iid_partition_rows_below_devices": (
        lambda: datagen.iid_partition(2, 3, 0), "need at least one row per device"),
    "iid_partition_no_device": (
        lambda: datagen.iid_partition(2, 0, 0), "need at least one device"),
    "kmeans_cost_short_labels": (
        lambda: evaluation.kmeans_cost(_ROWS, [0, 1]),
        "labels do not cover the data rows"),
    "matched_accuracy_lengths_differ": (
        lambda: evaluation.matched_accuracy([0, 1], [0, 1, 1]),
        "clusterings cover different row sets"),
    "matched_accuracy_empty": (
        lambda: evaluation.matched_accuracy([], []), "clusterings are empty"),
    "matched_accuracy_negative_label": (
        lambda: evaluation.matched_accuracy([0, -1], [0, 1]),
        "labels must be nonnegative; restrict to covered rows"),
    "stream_integers_zero_bound": (
        lambda: Stream(0).integers(3, 0), "bound must be positive"),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_ERRORS))
def test_public_entry_rejects_bad_input(case):
    call, message = PUBLIC_ERRORS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize("check", ["separation_quantities", "proximity_check",
                                   "lemma_audit"])
@pytest.mark.parametrize("labels, message", [
    ([0, 1, 2, 1], "label 2 outside [0, 2)"),
    ([0, -1, 1, 1], "label -1 outside [0, 2)"),
    ([0, 1, 1], "labels of shape (3,) do not fit rows of shape (4, 3)")])
def test_separation_check_rejects_a_directly_built_target(check, labels, message):
    # A Clustering built without from_labels gets from_labels' checks.
    clustering = Clustering(assignment=np.array(labels), centers=np.zeros((2, 3)),
                            k=2)
    partition = DevicePartition(device_rows=[np.arange(4)])
    args = (_ROWS, clustering) + (() if check == "proximity_check" else (partition,))
    with pytest.raises(ValueError) as err:
        getattr(separation, check)(*args)
    assert type(err.value) is ValueError and str(err.value) == message


# case -> (a bad 3-D stack, a 2-D matrix bad in the same way)
BAD_STACKS = {
    "no_device": (np.empty((0, 4, 3)), np.empty((0, 3))),
    "no_row": (np.empty((2, 0, 3)), np.empty((0, 3))),
    "no_column": (np.empty((2, 4, 0)), np.empty((4, 0))),
    "nan": (np.stack([_ROWS, _NAN_ROWS]), _NAN_ROWS),
}


@pytest.mark.parametrize("call", ["approx_seed", "threshold_assign"])
@pytest.mark.parametrize("case", sorted(BAD_STACKS))
def test_bad_stack_raises_the_matrix_message(call, case):
    def run(rows, seed):
        if call == "approx_seed":
            return local.approx_seed(rows, 2, seed)
        return local.threshold_assign(rows, np.zeros(rows.shape[:-2] + (2, 3)))

    stack, matrix = BAD_STACKS[case]
    messages = []
    for rows, seed in [(matrix, 0), (stack, [0] * len(stack))]:
        with pytest.raises(ValueError) as err:
            run(rows, seed)
        messages.append(str(err.value))
    assert messages == 2 * ["matrix contains non-finite values" if case == "nan"
                            else "empty matrix"]


# case -> device rows over _ROWS' four rows that are not a cover of them
BAD_COVERS = {
    "overlap": [[0, 1, 2], [2, 3]],
    "repeat_in_place_of_a_row": [[0, 1, 1], [3]],
    "missing": [[0, 1], [3]],
    "negative": [[0, 1, 2], [-1]],
    "beyond_n": [[0, 1, 2], [4]],
    "fractional_id": [[0.5, 1, 2], [3]],
    "bool_mask": [[False, True], [2, 3]],
}


@pytest.mark.parametrize("check", ["separation_quantities", "lemma_audit"])
@pytest.mark.parametrize("case", sorted(BAD_COVERS))
def test_separation_check_rejects_a_partition_that_is_no_cover(check, case):
    # The rule DevicePartition.validate applies, less its ban on empty devices.
    partition = DevicePartition(device_rows=[np.array(r) for r in BAD_COVERS[case]])
    with pytest.raises(ValueError) as err:
        getattr(separation, check)(_ROWS, _truth(), partition)
    assert type(err.value) is ValueError
    assert str(err.value) == "device rows must disjointly cover all rows"
