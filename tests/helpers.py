"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from kfed import linalg
from kfed.datagen import (DevicePartition, MixtureSpec, PartitionSpec,
                          generate_mixture, structured_partition)
from kfed.linalg import top_k_projection
from kfed.local import Clustering


def planted_instance(seed: int, k: int = 9, d: int = 24, per_cluster: int = 45,
                     m0: int = 3, group_size: int = 3, c: float = 100.0,
                     mean_mode: str = "auto", sigma: float = 1.0):
    """Planted mixture plus its structured partition."""
    spec = MixtureSpec(k=k, d=d, n=per_cluster * k, sigma_max=sigma, seed=seed,
                       mean_mode=mean_mode, c=c, m0=float(m0))
    data, truth = generate_mixture(spec)
    partition = structured_partition(
        truth, PartitionSpec(mode="structured", m0=m0, group_size=group_size))
    return spec, data, truth, partition


def device_truth(data: np.ndarray, truth: Clustering,
                 rows: np.ndarray) -> Clustering:
    """The target clustering restricted to one device, labels compacted."""
    labels = truth.assignment[rows]
    present = np.unique(labels)
    remap = {int(v): i for i, v in enumerate(present)}
    compact = np.array([remap[int(v)] for v in labels])
    return Clustering.from_labels(data[rows], compact, present.size)


def init_planted_clusters(run, partition: DevicePartition,
                          truth: Clustering) -> list[int]:
    """Majority planted cluster behind each farthest-point seed center."""
    out = []
    for device_id, local_idx in run.init.provenance:
        centers = run.device_centers[device_id]
        members = partition.device_rows[device_id][
            centers.local_assignment == local_idx]
        values, counts = np.unique(truth.assignment[members], return_counts=True)
        out.append(int(values[counts.argmax()]))
    return out


def spy_exact(monkeypatch, record=lambda a, b: a.shape) -> list:
    """Spy on the one exact kernel, ``linalg._exact_sq``, which every exact
    fallback looks up there: the returned list gets ``record(a, b)`` for
    each call."""
    calls = []
    exact = linalg._exact_sq
    monkeypatch.setattr(linalg, "_exact_sq",
                        lambda a, b: calls.append(record(a, b)) or exact(a, b))
    return calls


def projection(mat: np.ndarray, k: int) -> np.ndarray:
    """Rank-k projection of ``mat``'s rows, back in d-space."""
    coords, lift = top_k_projection(mat, k)
    return coords @ lift
