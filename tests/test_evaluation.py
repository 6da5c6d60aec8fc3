import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from kfed.evaluation import cost_ratio_report, kmeans_cost, matched_accuracy
from kfed.local import Clustering
from oracles import (brute_force_accuracy, masked_kmeans_cost,
                     naive_kmeans_cost, two_pass_kmeans_cost)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_cost_bit_identical_to_two_pass_form():
    # widths 1, 2..k and above k cover every branch of cluster_means
    rng = np.random.default_rng(2021)
    for case in range(300):
        n = int(rng.integers(1, 80))
        d = int(rng.integers(1, 12))
        k = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-5, 4)
        data = rng.normal(size=(n, d)) * scale + rng.normal(size=d) * scale
        labels = rng.choice(3 * k, size=k, replace=False)[
            rng.integers(0, k, size=n)]
        assert kmeans_cost(data, labels) == two_pass_kmeans_cost(
            data, labels), case


def test_cost_bit_identical_to_masked_per_cluster_form():
    # Sorted gathers list each cluster's rows in row order, as a mask does:
    # sparse and negative labels, Fortran-ordered rows, a single cluster,
    # and the benchmark's 6400 x 300 shape at k = 64.
    rng = np.random.default_rng(2022)
    for case in range(200):
        n, d, k = int(rng.integers(1, 300)), int(rng.integers(1, 40)), \
            int(rng.integers(1, 20))
        if case == 0:
            n, d, k = 6400, 300, 64
        data = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        labels = rng.choice(np.arange(-3, 4 * k), size=k, replace=False)[
            rng.integers(0, k, size=n)]
        if case % 2:
            data = np.asfortranarray(data)
        assert kmeans_cost(data, labels) == masked_kmeans_cost(data, labels), case


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


def _fuzzed_label_pair(rng, case: int):
    """One label pair from a family chosen by ``case``."""
    n = int(rng.integers(1, 50))
    k = int(rng.integers(1, 8))
    family = case % 5
    truth = rng.integers(0, k, size=n)
    if family == 0:  # independent labels: ties and clashes are common
        return rng.integers(0, k, size=n), truth
    if family == 1:  # near-permutation: a relabeling with a few rows moved
        pred = rng.permutation(k)[truth]
        moved = rng.random(n) < rng.choice([0.0, 0.05, 0.2])
        pred[moved] = rng.integers(0, k, size=int(moved.sum()))
        return pred, truth
    if family == 2:  # padded: the two label ranges have different maxima
        k_pred = k + int(rng.integers(1, 4))
        pred = rng.permutation(k_pred)[:k][truth]
        moved = rng.random(n) < 0.1
        pred[moved] = rng.integers(0, k_pred, size=int(moved.sum()))
        return (pred, truth) if case % 2 else (truth, pred)
    if family == 3:  # all-zero rows: predicted labels skip values
        return rng.choice(2 * k, size=k, replace=False)[truth], truth
    # a single cluster on one side or both
    return np.zeros(n, dtype=int), (truth if case % 2 else np.zeros_like(truth))


def _oracle_matching(pred, truth):
    size = int(max(pred.max(), truth.max())) + 1
    table = np.zeros((size, size), dtype=np.int64)
    for a, b in zip(pred, truth):
        table[a, b] += 1
    rows, cols = linear_sum_assignment(table, maximize=True)
    agreement = int(table[rows, cols].sum())
    ranked = np.sort(table, axis=1)
    tied = size > 1 and bool((ranked[:, -1] == ranked[:, -2]).any())
    clashing = len(set(table.argmax(axis=1).tolist())) < size
    return ({int(a): int(b) for a, b in zip(rows, cols)}, agreement,
            tied or clashing)


def test_accuracy_matches_assignment_solver_oracle(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linear_sum_assignment(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    rng = np.random.default_rng(17)
    settled = sent = 0
    for case in range(3000):
        pred, truth = _fuzzed_label_pair(rng, case)
        permutation, agreement, ambiguous = _oracle_matching(pred, truth)
        before = len(calls)
        result = matched_accuracy(pred, truth)
        assert (len(calls) > before) == ambiguous, case
        settled += not ambiguous
        sent += ambiguous
        assert result.permutation == permutation, case
        assert result.misclassified == pred.size - agreement, case
        assert result.accuracy == agreement / pred.size, case
    assert settled > 500 and sent > 500, (settled, sent)


def test_import_leaves_assignment_solver_unloaded():
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import kfed, kfed.cli\n"
        "seen = ['scipy.optimize' in sys.modules]\n"
        "truth = np.array([0, 1, 2, 0, 1, 2])\n"
        "kfed.matched_accuracy((truth + 1) % 3, truth)\n"
        "seen.append('scipy.optimize' in sys.modules)\n"
        "kfed.matched_accuracy(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))\n"
        "seen.append('scipy.optimize' in sys.modules)\n"
        "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    # after the import, after a settled matching, after a tied one
    assert json.loads(proc.stdout) == [False, False, True]


def test_accuracy_rejects_negative_labels():
    with pytest.raises(ValueError, match="nonnegative"):
        matched_accuracy(np.array([-1, 0]), np.array([0, 0]))


def test_cost_ratio_edges():
    assert cost_ratio_report(5.0, 5.0, 9.0).ratio == pytest.approx(0.0)
    assert cost_ratio_report(5.0, 9.0, 9.0).ratio == pytest.approx(1.0)
    degen = cost_ratio_report(5.0, 5.0, 5.0)
    assert degen.degenerate and degen.ratio is None
    assert "random matches oracle" in degen.note
