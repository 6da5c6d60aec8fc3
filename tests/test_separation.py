import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kfed import separation
from kfed.datagen import DevicePartition, iid_partition
from kfed.linalg import operator_norm
from kfed.local import Clustering
from kfed.separation import (estimate_m0, lemma_audit, proximity_check,
                             separation_quantities)
from helpers import planted_instance
from kfed.rng import Stream
from oracles import exact_lemma_audit


def _partition_from_lists(lists):
    return DevicePartition(device_rows=[np.asarray(r, dtype=int) for r in lists])


# ---------------------------------------------------------------------------
# separation_quantities

def _two_cluster_instance(coincident=False):
    rng = np.random.default_rng(7)
    offset = np.zeros(4) if coincident else np.array([30.0, 0.0, 0.0, 0.0])
    data = np.concatenate([rng.normal(size=(20, 4)),
                           offset + rng.normal(size=(20, 4))])
    labels = np.repeat([0, 1], 20)
    return data, Clustering.from_labels(data, labels, 2)


def test_duplicate_means_fail_both_requirements():
    data, clustering = _two_cluster_instance(coincident=True)
    part = _partition_from_lists([range(0, 20), range(20, 40)])
    report = separation_quantities(data, clustering, part, c=2.0)
    assert report.pair_ratio[0, 1] < 0.05
    assert not report.active_ok[0, 1]
    assert not report.inactive_ok[0, 1]


def test_pair_status_depends_only_on_partition():
    data, clustering = _two_cluster_instance()
    together = _partition_from_lists([range(0, 40)])
    apart = _partition_from_lists([range(0, 20), range(20, 40)])
    rep_a = separation_quantities(data, clustering, together, c=1.0)
    rep_b = separation_quantities(data, clustering, apart, c=1.0)
    assert rep_a.pair_active[0, 1]
    assert not rep_b.pair_active[0, 1]


def test_empty_device_is_skipped_as_in_the_audit():
    data, clustering = _two_cluster_instance()
    alone = separation_quantities(data, clustering,
                                  _partition_from_lists([range(40)]))
    part = _partition_from_lists([[], range(40)])
    report = separation_quantities(data, clustering, part)
    assert report.n_min_device == 40
    assert report.to_json_dict() == alone.to_json_dict()
    assert lemma_audit(data, clustering, part).passed
    for m0 in (None, 2.0):
        with pytest.raises(ValueError, match="^partition holds no rows$"):
            separation_quantities(data, clustering,
                                  _partition_from_lists([[], []]), m0=m0)


def test_planted_instance_meets_requirements():
    _, data, truth, part = planted_instance(4)
    report = separation_quantities(data, truth, part, c=100.0)
    off_diag = ~np.eye(truth.k, dtype=bool)
    active = report.pair_active
    assert report.k_prime == 3
    assert report.active_ok[active].all()
    assert report.inactive_ok[off_diag & ~active].all()
    # constructed to exceed the threshold, with margin
    assert report.pair_ratio[active].min() >= 1.5


def test_scale_covariance_and_translation_invariance():
    _, data, truth, part = planted_instance(6, k=4, d=10, per_cluster=20,
                                            m0=2, group_size=2)
    base = separation_quantities(data, truth, part, c=5.0, m0=2.0)

    scaled = separation_quantities(data * 3.0, truth, part, c=5.0, m0=2.0)
    assert scaled.op_norm == pytest.approx(3.0 * base.op_norm, rel=1e-9)
    assert np.allclose(scaled.delta, 3.0 * base.delta, rtol=1e-9)
    assert scaled.lambda_ == pytest.approx(3.0 * base.lambda_, rel=1e-9)
    assert np.allclose(scaled.pair_ratio, base.pair_ratio, rtol=1e-7)
    assert np.array_equal(scaled.active_ok, base.active_ok)
    assert np.array_equal(scaled.inactive_ok, base.inactive_ok)
    assert np.array_equal(scaled.pair_active, base.pair_active)

    moved = separation_quantities(data + 7.5, truth, part, c=5.0, m0=2.0)
    assert moved.op_norm == pytest.approx(base.op_norm, abs=1e-9)
    assert np.allclose(moved.pair_ratio, base.pair_ratio, atol=1e-9)
    assert np.array_equal(moved.active_ok, base.active_ok)


def test_m0_estimation_tightest_constant():
    counts = np.array([[6, 2], [2, 2]])  # cluster sizes 8 and 4
    assert estimate_m0(counts) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# proximity_check

def test_proximity_point_at_own_mean_passes():
    data, clustering = _two_cluster_instance()
    report = proximity_check(data, clustering)
    # margin for a point at its own mean is the full separation minus the
    # threshold; on this instance everything passes
    assert report.bad_count == 0


def test_proximity_midpoint_is_bad():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(15, 3))
    b = rng.normal(size=(15, 3)) + [12.0, 0.0, 0.0]
    mid = (a.mean(axis=0) + b.mean(axis=0)) / 2.0
    data = np.vstack([a, b, mid])
    labels = np.array([0] * 15 + [1] * 16)
    clustering = Clustering.from_labels(data, labels, 2)
    report = proximity_check(data, clustering)
    assert 30 in report.bad_indices.tolist()


def _proximity_oracle(data, labels, k):
    """Per-point worst margins, one cluster pair at a time, and the rows the
    geometric form (projected distance to each mean) calls bad."""
    centers = np.array([data[labels == r].mean(axis=0) for r in range(k)])
    sizes = np.bincount(labels, minlength=k)
    op = operator_norm(data - centers[labels])
    margins = np.full(len(data), np.inf)
    bad = set()
    for s, r in itertools.permutations(range(k), 2):
        gap = np.linalg.norm(centers[r] - centers[s])
        if gap == 0.0:
            continue
        unit = (centers[r] - centers[s]) / gap
        threshold = (1 / np.sqrt(sizes[r]) + 1 / np.sqrt(sizes[s])) * op
        rows = np.flatnonzero(labels == s)
        coords = (data[rows] - centers[s]) @ unit
        for i, coord in zip(rows, coords):
            margins[i] = min(margins[i], abs(coord - gap) - abs(coord) - threshold)
            projected = centers[s] + coord * unit
            if (np.linalg.norm(projected - centers[r])
                    - np.linalg.norm(projected - centers[s])) < threshold:
                bad.add(int(i))
    return margins, sorted(bad)


def _proximity_instance(k):
    """Rows for ``k`` clusters of 25 (or, at k=16, the diagnostics' width
    d=100 with 50 rows each), with the coincident pairs (s, r) expected.

    Coincident means come from a cluster that repeats another's rows.
    """
    rng = np.random.default_rng(15)
    if k == 16:
        labels = np.repeat(np.arange(k), 50)
        data = rng.normal(size=(800, 100)) + 1.1 * rng.normal(size=(k, 100))[labels]
        for copy, source in ((14, 2), (7, 6)):
            data[labels == copy] = data[labels == source]
        return data, labels, [(2, 14), (6, 7)]
    data = np.concatenate([rng.normal(size=(25, 4)) + [6.0 * r, 0, 0, 0]
                           for r in range(min(k, 3))])
    if k == 4:  # cluster 3 repeats cluster 2's rows: coincident means
        data = np.concatenate([data, data[50:75]])
    return data, np.repeat(np.arange(k), 25), [(2, 3)] if k == 4 else []


@pytest.mark.parametrize("k", [2, 4, 16])
def test_proximity_matches_scalar_oracle(k):
    data, labels, coincident = _proximity_instance(k)
    clustering = Clustering.from_labels(data, labels, k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = proximity_check(data, clustering)
    # one warning per skipped pair, in (s, r) row-major order
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, f"clusters {r} and {s} have coincident means; "
                         "proximity pair skipped") for s, r in coincident]
    assert report.skipped_pairs == coincident

    margins, bad = _proximity_oracle(data, labels, k)
    assert report.margins.tobytes() == margins.tobytes()
    assert report.bad_indices.tolist() == bad
    assert 0 < report.bad_count == len(bad) < len(data)


def test_proximity_coincident_means_warns_and_skips():
    data = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    clustering = Clustering.from_labels(data, labels, 2)
    with pytest.warns(RuntimeWarning, match="coincident"):
        report = proximity_check(data, clustering)
    assert report.skipped_pairs == [(0, 1)]


def test_proximity_requires_two_clusters():
    data = np.ones((3, 2))
    clustering = Clustering.from_labels(data, np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError, match="two clusters"):
        proximity_check(data, clustering)


@pytest.mark.parametrize("check", ["separation_quantities", "proximity_check",
                                   "lemma_audit"])
def test_empty_cluster_in_target_errors(check):
    data = np.ones((3, 2))
    clustering = Clustering(assignment=np.array([0, 0, 0]),
                            centers=np.zeros((2, 2)), k=2)
    args = (data, clustering) if check == "proximity_check" else \
        (data, clustering, _partition_from_lists([range(3)]))
    with pytest.raises(ValueError, match="cluster 1 has no members"):
        getattr(separation, check)(*args)


# ---------------------------------------------------------------------------
# lemma_audit

def test_audit_single_device_zero_lhs():
    data, clustering = _two_cluster_instance()
    part = _partition_from_lists([range(0, 40)])
    audit = lemma_audit(data, clustering, part)
    assert audit.passed
    # one device holding everything: one mean-shift check per cluster, one norm check
    assert (audit.mean_shift_checks, audit.norm_change_checks) == (2, 1)


def test_audit_random_instance_no_violations():
    stream = Stream(202)
    data = stream.normals((50, 6))
    labels = stream.integers(50, 3)
    labels[:3] = [0, 1, 2]
    clustering = Clustering.from_labels(data, labels, 3)
    part = iid_partition(50, 4, seed=9)
    audit = lemma_audit(data, clustering, part)
    assert audit.passed
    assert audit.mean_shift_checks > 0
    assert audit.norm_change_checks == 4


def test_audit_adversarial_single_point_share():
    rng = np.random.default_rng(121)
    data = rng.normal(size=(30, 4))
    labels = np.array([0] * 10 + [1] * 10 + [2] * 10)
    clustering = Clustering.from_labels(data, labels, 3)
    # one device gets exactly one point of cluster 0
    part = _partition_from_lists([[0], list(range(1, 30))])
    audit = lemma_audit(data, clustering, part)
    assert audit.passed


def test_audit_point_mass_clusters_pass():
    # Every bound is 0, yet the means of 0.1 round: the shifts and the
    # residual norm are rounding at the centers' scale, not violations.
    data = np.array([[0.1]] * 4 + [[5.0]] * 2)
    clustering = Clustering.from_labels(data, np.array([0, 0, 0, 0, 1, 1]), 2)
    part = _partition_from_lists([[0, 1, 2], [3, 4, 5]])
    audit = lemma_audit(data, clustering, part)
    assert audit.passed, audit.violations
    assert audit == exact_lemma_audit(data, clustering, part)
    assert (audit.mean_shift_checks, audit.norm_change_checks) == (3, 2)


def test_audit_fuzz_unconditional():
    # 200-instance sweep lives in the acceptance suite.
    for seed in range(50):
        stream = Stream(11, seed)
        n = 20 + int(stream.uniforms(1)[0] * 60)
        k = 2 + int(stream.uniforms(1)[0] * 3)
        data = stream.normals((n, 5))
        labels = stream.integers(n, k)
        labels[:k] = np.arange(k)
        clustering = Clustering.from_labels(data, labels, k)
        part = iid_partition(n, 1 + seed % 4, seed=seed)
        audit = lemma_audit(data, clustering, part)
        assert audit.passed, audit.violations


# ---------------------------------------------------------------------------
# the diagnostics against the SVD spectral norm

def _diagnostics(data, truth, partition):
    report = separation_quantities(data, truth, partition)
    proximity = proximity_check(data, truth)
    audit = lemma_audit(data, truth, partition)
    return report, proximity, audit


@pytest.mark.parametrize("seed", [0, 1])
def test_diagnostics_match_svd_operator_norm(monkeypatch, seed):
    # the acceptance-01 shape: 3200 x 100 global residual, 20 devices
    _, data, truth, partition = planted_instance(
        seed, k=16, d=100, per_cluster=200, m0=5, group_size=4)
    report, proximity, audit = _diagnostics(data, truth, partition)
    svd_calls = []

    def svd_norm(m):
        svd_calls.append(m.shape)
        return float(np.linalg.norm(m, 2))
    monkeypatch.setattr(separation, "operator_norm", svd_norm)
    svd_report, svd_proximity, svd_audit = _diagnostics(data, truth, partition)
    # the SVD norm ran on the global residual: no kept fit stood in for it
    assert svd_calls.count(data.shape) == 1 and svd_calls[0] == data.shape
    assert report.op_norm == pytest.approx(svd_report.op_norm, rel=1e-13)
    for name in ("pair_active", "active_ok", "inactive_ok"):
        np.testing.assert_array_equal(getattr(report, name),
                                      getattr(svd_report, name), err_msg=name)
    np.testing.assert_array_equal(proximity.bad_indices, svd_proximity.bad_indices)
    assert (audit.mean_shift_checks, audit.norm_change_checks, audit.violations) == \
        (svd_audit.mean_shift_checks, svd_audit.norm_change_checks,
         svd_audit.violations)


# ---------------------------------------------------------------------------
# lemma_audit's Frobenius certificate against the exact path

def _acceptance_01_instance(seed):
    _, data, truth, partition = planted_instance(
        seed, k=16, d=100, per_cluster=200, m0=5, group_size=4)
    return data, truth, partition


def _wide_device_instance(devices=20, rows=20, d=500, k=4):
    """d >> device rows, one cluster per device: every device's Frobenius
    norm exceeds its bound, so every device takes the exact eigensolve."""
    data = np.random.default_rng(14).normal(size=(devices * rows, d))
    labels = np.repeat(np.arange(devices) % k, rows)
    part = _partition_from_lists([range(z * rows, (z + 1) * rows)
                                  for z in range(devices)])
    return data, Clustering.from_labels(data, labels, k), part


def _reordered_instance(seed, empty_at=None):
    """The acceptance-01 instance with every device's rows listed in a
    random order, and an empty device inserted at ``empty_at``."""
    data, truth, partition = _acceptance_01_instance(seed)
    rng = np.random.default_rng(seed)
    rows = [rng.permutation(r) for r in partition.device_rows]
    if empty_at is not None:
        rows.insert(empty_at, np.empty(0, dtype=int))
    return data, truth, _partition_from_lists(rows)


_SHAPES = {"acceptance_01_seed0": lambda: _acceptance_01_instance(0),
           "acceptance_01_seed1": lambda: _acceptance_01_instance(1),
           "wide_devices": _wide_device_instance,
           "unsorted_rows": lambda: _reordered_instance(0),
           "empty_device": lambda: _reordered_instance(1, empty_at=7),
           # audited with the global norm 100x too small (``_planted_norm_bug``)
           "planted_violation": lambda: _reordered_instance(2, empty_at=3)}


def _count_operator_norm(monkeypatch):
    calls = []
    real = separation.operator_norm

    def counted(m):
        calls.append(m.shape)
        return real(m)
    monkeypatch.setattr(separation, "operator_norm", counted)
    return calls


def _planted_norm_bug(monkeypatch, n_rows):
    """``operator_norm`` that returns the global residual's norm 100x too small."""
    real = separation.operator_norm
    monkeypatch.setattr(separation, "operator_norm",
                        lambda m: real(m) / (100.0 if len(m) == n_rows else 1.0))


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_audit_matches_exact_path_oracle(monkeypatch, shape):
    data, truth, partition = _SHAPES[shape]()
    planted = shape == "planted_violation"
    if planted:
        _planted_norm_bug(monkeypatch, len(data))
    audit = lemma_audit(data, truth, partition)
    # counts, and every violation's kind, device, cluster and float bounds,
    # in order
    assert audit == exact_lemma_audit(data, truth, partition)
    assert audit.passed != planted
    if planted:
        assert {v["kind"] for v in audit.violations} == {"mean_shift",
                                                         "norm_change"}


@pytest.mark.parametrize("shape,per_device", [("acceptance_01_seed0", 0),
                                              ("wide_devices", 1)])
def test_audit_eigensolves_only_uncertified_devices(monkeypatch, shape,
                                                    per_device):
    data, truth, partition = _SHAPES[shape]()
    calls = _count_operator_norm(monkeypatch)
    lemma_audit(data, truth, partition)
    # the global fit, then one per device the certificate does not settle
    assert len(calls) == 1 + per_device * len(partition.device_rows)
    assert calls[0] == data.shape


@pytest.mark.parametrize("scale", [1e-12, 1e-200, 1e200])
def test_audit_certificate_is_scale_free(monkeypatch, scale):
    data, truth, partition = _acceptance_01_instance(0)
    calls = _count_operator_norm(monkeypatch)
    assert lemma_audit(data * scale, truth, partition).passed
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-200, 1e200])
def test_audit_flags_planted_violation_at_any_scale(monkeypatch, scale):
    rng = np.random.default_rng(21)
    data = rng.normal(size=(200, 6)) * scale
    clustering = Clustering.from_labels(data, np.arange(200) % 3, 3)
    partition = iid_partition(200, 4, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow warning
        assert lemma_audit(data, clustering, partition).passed
    _planted_norm_bug(monkeypatch, len(data))
    audit = lemma_audit(data, clustering, partition)
    assert audit == exact_lemma_audit(data, clustering, partition)
    kinds = [v["kind"] for v in audit.violations]
    assert kinds.count("norm_change") == 4    # every device, by the exact path
    assert kinds.count("mean_shift") > 0


def test_row_norms_match_plain_norm_and_survive_extremes():
    rng = np.random.default_rng(22)
    for _ in range(200):
        m = rng.normal(size=tuple(rng.integers(1, 40, size=2)))
        m *= 10.0 ** rng.uniform(-100, 100, size=(m.shape[0], 1))
        assert separation._row_norms(m).tolist() == [
            float(np.linalg.norm(row)) for row in m]
    m = np.stack([rng.normal(size=6) * scale for scale in (1e200, 1e-200, 1e-310)])
    plain = np.linalg.norm(m / np.array([[1e200], [1e-200], [1e-310]]), axis=1)
    assert np.allclose(separation._row_norms(m) / [1e200, 1e-200, 1e-310], plain,
                       rtol=1e-13, atol=0)
    assert separation._row_norms(np.zeros((2, 3))).tolist() == [0.0, 0.0]
    assert separation._row_norms(np.full((1, 4), 1e308)).tolist() == [math.inf]


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0 ** 600, 2.0 ** -600])
def test_center_differences_are_scale_free(scale):
    rng = np.random.default_rng(21)
    data = rng.normal(size=(200, 6))
    clustering = Clustering.from_labels(data, np.arange(200) % 3, 3)
    partition = iid_partition(200, 4, seed=3)
    base = separation_quantities(data, clustering, partition, c=5.0)
    base_proximity = proximity_check(data, clustering)
    assert base_proximity.bad_count == 200
    report = separation_quantities(data * scale, clustering, partition, c=5.0)
    proximity = proximity_check(data * scale, clustering)
    assert proximity.bad_indices.tolist() == base_proximity.bad_indices.tolist()
    assert not proximity.skipped_pairs
    assert np.array_equal(report.active_ok, base.active_ok)
    assert np.array_equal(report.inactive_ok, base.inactive_ok)
    if math.frexp(scale)[0] == 0.5:     # a power of two scales exactly
        assert report.pair_ratio.tobytes() == base.pair_ratio.tobytes()
        assert proximity.margins.tobytes() == (base_proximity.margins
                                               * scale).tobytes()
    else:
        np.testing.assert_allclose(report.pair_ratio, base.pair_ratio,
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# the one-slot memo of the target fit

def _outputs(data, truth, partition):
    report, proximity, audit = _diagnostics(data, truth, partition)
    return (report.to_json_dict(), report.pair_ratio.tobytes(),
            report.delta.tobytes(), proximity.margins.tobytes(),
            proximity.bad_indices.tolist(), audit)


def test_three_checks_share_one_fit(monkeypatch):
    data, truth, partition = _acceptance_01_instance(0)
    expected = _outputs(data, truth, partition)
    # a fit made under another operator_norm is not reused
    calls = _count_operator_norm(monkeypatch)
    assert _outputs(data, truth, partition) == expected
    assert calls == [data.shape]
    # nor is a bit-equal copy refitted
    assert _outputs(data.copy(), truth, partition) == expected
    assert calls == [data.shape]


@pytest.mark.parametrize("edit", ["entry", "negative_zero", "label_swap"])
def test_in_place_edit_refits(monkeypatch, edit):
    data, truth, partition = _acceptance_01_instance(1)
    data[3, 7] = 0.0
    calls = _count_operator_norm(monkeypatch)
    _diagnostics(data, truth, partition)
    if edit == "entry":
        data[3, 7] = 1.0
    elif edit == "negative_zero":
        data[3, 7] = -0.0
    else:
        labels = truth.assignment
        other = int(np.flatnonzero(labels != labels[3])[0])
        labels[[3, other]] = labels[[other, 3]]
    edited = _outputs(data, truth, partition)
    assert calls == [data.shape] * 2
    separation._last_fit[0] = None
    assert _outputs(data, truth, partition) == edited


def test_fit_is_kept_only_while_its_data_array_lives():
    data, truth, partition = _acceptance_01_instance(0)
    older = data.copy()
    older[0, 0] += 1.0
    separation.separation_quantities(older, truth, partition)
    older_ref = separation._last_fit[0][0]
    separation.separation_quantities(data, truth, partition)
    del older                   # fires older_ref's callback
    assert older_ref() is None
    assert separation._last_fit[0][0]() is data
    del data
    assert separation._last_fit[0] is None


def test_nan_data_are_never_kept():
    data, truth, partition = _acceptance_01_instance(0)
    separation._last_fit[0] = None
    data[0, 0] = np.nan
    for check in (separation_quantities, lemma_audit):
        with pytest.raises(ValueError, match="non-finite"):
            check(data, truth, partition)
        assert separation._last_fit[0] is None


def test_returned_arrays_are_not_the_kept_fit():
    data, truth, partition = _acceptance_01_instance(0)
    expected = separation_quantities(data, truth, partition)
    expected_json = expected.to_json_dict()
    expected.cluster_sizes[:] = 1           # the fitted arrays themselves
    separation_quantities(data, truth, partition).cluster_sizes[:] = 1  # a hit
    assert separation_quantities(data, truth, partition).to_json_dict() \
        == expected_json


def test_kept_fit_holds_one_copy_of_the_data():
    data, truth, partition = _acceptance_01_instance(0)
    separation._last_fit[0] = None
    tracemalloc.start()
    try:
        _diagnostics(data, truth, partition)
        data[0, 0] += 1.0       # refit while the slot holds the old copy
        _diagnostics(data, truth, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A fit holds its residual and operator_norm's scaled copy of it; the
    # kept copy is made after both are freed, and dropped before a refit.
    assert peak < 2.2 * data.nbytes
