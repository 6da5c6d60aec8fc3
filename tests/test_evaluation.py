import numpy as np
import pytest

from kfed.evaluation import cost_ratio_report, kmeans_cost, matched_accuracy
from kfed.local import Clustering
from oracles import brute_force_accuracy, naive_kmeans_cost


def test_cost_singletons_zero():
    data = np.random.default_rng(1).normal(size=(5, 3))
    assert kmeans_cost(data, np.arange(5)) == 0.0


def test_cost_two_points_one_cluster():
    data = np.array([[0.0], [2.0]])
    assert kmeans_cost(data, np.array([0, 0])) == pytest.approx(2.0)


def test_cost_matches_naive_oracle():
    rng = np.random.default_rng(10)
    data = rng.normal(size=(20, 4))
    labels = rng.integers(0, 3, size=20)
    assert kmeans_cost(data, labels) == pytest.approx(
        naive_kmeans_cost(data, labels), abs=1e-10)


def test_cost_accepts_clustering_objects():
    data = np.array([[0.0], [2.0], [9.0]])
    clustering = Clustering.from_labels(data, np.array([0, 0, 1]), 2)
    assert kmeans_cost(data, clustering) == pytest.approx(2.0)


def test_accuracy_identity():
    labels = np.array([0, 1, 2, 1, 0])
    assert matched_accuracy(labels, labels).accuracy == 1.0


def test_accuracy_cyclic_shift():
    truth = np.array([0, 1, 2, 0, 1, 2])
    pred = (truth + 1) % 3
    result = matched_accuracy(pred, truth)
    assert result.accuracy == 1.0
    assert result.misclassified == 0
    assert result.permutation[1] == 0


def test_accuracy_contingency_matches_bruteforce():
    truth = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    pred = np.array([1, 1, 0, 0, 0, 2, 2, 2, 1])
    mine = matched_accuracy(pred, truth).accuracy
    assert mine == pytest.approx(brute_force_accuracy(pred, truth))


def test_accuracy_fuzz_matches_bruteforce():
    rng = np.random.default_rng(77)
    for _ in range(30):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 40))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        assert matched_accuracy(pred, truth).accuracy == pytest.approx(
            brute_force_accuracy(pred, truth))


def test_accuracy_symmetric_under_relabeling():
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 4, size=50)
    truth = rng.integers(0, 4, size=50)
    base = matched_accuracy(pred, truth).accuracy
    perm = np.array([2, 3, 1, 0])
    assert matched_accuracy(perm[pred], truth).accuracy == pytest.approx(base)
    assert matched_accuracy(pred, perm[truth]).accuracy == pytest.approx(base)


def test_accuracy_pads_unequal_cluster_counts():
    pred = np.array([0, 1, 2, 3])
    truth = np.array([0, 1, 1, 1])
    result = matched_accuracy(pred, truth)
    assert result.accuracy == pytest.approx(0.5)
    # permutation is a bijection on the padded label range
    assert sorted(result.permutation) == sorted(set(result.permutation.values()))


def test_accuracy_rejects_negative_labels():
    with pytest.raises(ValueError, match="nonnegative"):
        matched_accuracy(np.array([-1, 0]), np.array([0, 0]))


def test_cost_ratio_edges():
    assert cost_ratio_report(5.0, 5.0, 9.0).ratio == pytest.approx(0.0)
    assert cost_ratio_report(5.0, 9.0, 9.0).ratio == pytest.approx(1.0)
    degen = cost_ratio_report(5.0, 5.0, 5.0)
    assert degen.degenerate and degen.ratio is None
    assert "random matches oracle" in degen.note
