import itertools

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


@pytest.mark.parametrize("k", [2, 4])
def test_proximity_matches_scalar_oracle(k):
    rng = np.random.default_rng(15)
    data = np.concatenate([rng.normal(size=(25, 4)) + [6.0 * r, 0, 0, 0]
                           for r in range(min(k, 3))])
    if k == 4:  # cluster 3 repeats cluster 2's rows: coincident means
        data = np.concatenate([data, data[50:75]])
    labels = np.repeat(np.arange(k), 25)
    clustering = Clustering.from_labels(data, labels, k)
    if k == 4:
        with pytest.warns(RuntimeWarning, match="clusters 3 and 2"):
            report = proximity_check(data, clustering)
        assert report.skipped_pairs == [(2, 3)]
    else:
        report = proximity_check(data, clustering)

    margins, bad = _proximity_oracle(data, labels, k)
    assert np.array_equal(report.margins, margins)
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
    with pytest.raises(ValueError, match="empty cluster in target"):
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
    monkeypatch.setattr(separation, "operator_norm",
                        lambda m: float(np.linalg.norm(m, 2)))
    svd_report, svd_proximity, svd_audit = _diagnostics(data, truth, partition)
    assert report.op_norm == pytest.approx(svd_report.op_norm, rel=1e-13)
    for name in ("pair_active", "active_ok", "inactive_ok"):
        np.testing.assert_array_equal(getattr(report, name),
                                      getattr(svd_report, name), err_msg=name)
    np.testing.assert_array_equal(proximity.bad_indices, svd_proximity.bad_indices)
    assert (audit.mean_shift_checks, audit.norm_change_checks, audit.violations) == \
        (svd_audit.mean_shift_checks, svd_audit.norm_change_checks,
         svd_audit.violations)
