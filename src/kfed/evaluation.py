"""Scoring: k-means cost, permutation-matched accuracy, cost-ratio summary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local import Clustering

_DEGENERATE_EPS = 1e-12   # random cost within this of the oracle's has no ratio


@dataclass
class EvalResult:
    accuracy: float
    misclassified: int
    permutation: dict[int, int]  # predicted label -> matched true label
    kmeans_cost: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "misclassified": self.misclassified,
            "permutation": {str(a): b for a, b in self.permutation.items()},
            "kmeans_cost": self.kmeans_cost,
        }


@dataclass
class CostRatio:
    """Relative cost ratio (structured excess over random excess)."""

    ratio: float | None
    degenerate: bool = False
    note: str = ""


def _labels_of(clustering) -> np.ndarray:
    if isinstance(clustering, Clustering):
        return np.asarray(clustering.assignment, dtype=int)
    return np.asarray(clustering, dtype=int)


def kmeans_cost(data: np.ndarray, clustering) -> float:
    """Sum of squared distances of each row to its cluster's mean."""
    data = np.asarray(data, dtype=float)
    labels = _labels_of(clustering)
    if labels.shape[0] != data.shape[0]:
        raise ValueError("labels do not cover the data rows")
    _, labels, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    # One stable sort lists each cluster's rows in row order, as a mask would.
    order = np.argsort(labels, kind="stable")
    total, start = 0.0, 0
    for stop in np.cumsum(sizes):  # cluster by cluster keeps the sum's bits
        block = data[order[start:stop]]
        block -= block.mean(axis=0)  # the mean cluster_means returns
        total += float(np.einsum("nd,nd->", block, block))
        start = stop
    return total


def matched_accuracy(pred, truth) -> EvalResult:
    """Best label-bijection agreement between two clusterings.

    Maximizes agreement over the contingency matrix, padding with empty
    pseudo-clusters when the label ranges differ. When every row's maximum
    is strict and the maxima fall in distinct columns (each column holds
    exactly one row maximum), taking each row's maximum is the unique
    optimum, the bijection the assignment solver would return. Any other
    table goes to that solver.
    """
    pred_labels = _labels_of(pred)
    true_labels = _labels_of(truth)
    if pred_labels.shape != true_labels.shape:
        raise ValueError("clusterings cover different row sets")
    if not pred_labels.size:
        raise ValueError("clusterings are empty")
    if pred_labels.min(initial=0) < 0 or true_labels.min(initial=0) < 0:
        raise ValueError("labels must be nonnegative; restrict to covered rows")
    n = pred_labels.shape[0]
    size = int(max(pred_labels.max(), true_labels.max())) + 1
    table = np.bincount(pred_labels * size + true_labels,
                        minlength=size * size).reshape(size, size)
    peaks = table == table.max(axis=1, keepdims=True)
    rows, cols = np.arange(size), peaks.argmax(axis=1)
    if not (peaks.sum(axis=0) == 1).all():  # a tie, or two rows' maxima clash
        # scipy.optimize takes ~0.6 s to import; only such a table needs it
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(table, maximize=True)
    agreement = int(table[rows, cols].sum())
    permutation = {int(a): int(b) for a, b in zip(rows, cols)}
    return EvalResult(accuracy=agreement / n,
                      misclassified=n - agreement,
                      permutation=permutation)


def cost_ratio_report(oracle_cost: float, structured_cost: float,
                      random_cost: float) -> CostRatio:
    """(structured - oracle) / (random - oracle); below 1 favors structured."""
    if random_cost <= oracle_cost + _DEGENERATE_EPS:
        return CostRatio(ratio=None, degenerate=True,
                         note="degenerate: random matches oracle")
    return CostRatio(ratio=(structured_cost - oracle_cost)
                     / (random_cost - oracle_cost))
