"""Separation diagnostics: deviation scales, pair requirements, bound audits.

Everything here is a pure function of (data, labeled clustering, device
partition). The deviation scale of a cluster is the spectral norm of the
centered data divided by the square root of the cluster size, which plays
the role of a worst-direction standard deviation. Cluster pairs that share
a device ("active") must be separated on that scale much more strongly
than pairs that never do ("inactive").

A note on the inactive threshold: the per-pair form of the requirement is
stated with per-cluster scales that are never actually defined; the single
network-wide scale (the form the recovery guarantee uses) is what is
implemented here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datagen import DevicePartition, estimate_m0
from .linalg import operator_norm
from .local import Clustering, cluster_means

DEFAULT_C = 100.0
_AUDIT_SLACK = 1e-9   # rounding allowance before a bound counts as violated


@dataclass
class SeparationReport:
    """Per-cluster scales, per-pair statuses and ratios for one instance."""

    k: int
    k_prime: int
    c: float
    m0: float
    op_norm: float
    cluster_sizes: np.ndarray
    tilde_delta: np.ndarray      # sqrt(k)  * op / sqrt(n_r)
    delta: np.ndarray            # k'       * op / sqrt(n_r)
    lambda_: float               # sqrt(k') * op / sqrt(min device size)
    n_min_device: int
    n_min_cluster: int
    n_max_cluster: int
    pair_active: np.ndarray      # (k, k) bool, diagonal False
    pair_ratio: np.ndarray       # (k, k) separation ratio c_rs
    active_ok: np.ndarray        # (k, k) bool
    inactive_ok: np.ndarray      # (k, k) bool
    proximity_violations: int | None = None

    def pair_rows(self) -> list[dict]:
        rows = []
        for r in range(self.k):
            for s in range(r + 1, self.k):
                rows.append({
                    "r": r, "s": s,
                    "status": "active" if self.pair_active[r, s] else "inactive",
                    "ratio": float(self.pair_ratio[r, s]),
                    "active_ok": bool(self.active_ok[r, s]),
                    "inactive_ok": bool(self.inactive_ok[r, s]),
                })
        return rows

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "k_prime": self.k_prime, "c": self.c, "m0": self.m0,
            "op_norm": self.op_norm,
            "cluster_sizes": [int(x) for x in self.cluster_sizes],
            "tilde_delta": [float(x) for x in self.tilde_delta],
            "delta": [float(x) for x in self.delta],
            "lambda": self.lambda_,
            "n_min_device": self.n_min_device,
            "n_min_cluster": self.n_min_cluster,
            "n_max_cluster": self.n_max_cluster,
            "proximity_violations": self.proximity_violations,
            "pairs": self.pair_rows(),
        }


@dataclass
class ProximityReport:
    bad_count: int
    bad_indices: np.ndarray
    margins: np.ndarray          # per point: worst margin minus its threshold
    skipped_pairs: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class LemmaAudit:
    """Results of checking the unconditional mean-shift and norm bounds."""

    mean_shift_checks: int
    norm_change_checks: int
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _fit_target(data: np.ndarray, clustering: Clustering) -> tuple:
    """(data, labels, cluster means, sizes, residual spectral norm) of a target."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(clustering.assignment, dtype=int)
    centers, sizes = cluster_means(data, labels, clustering.k)
    if not sizes.all():
        raise ValueError("empty cluster in target")
    return data, labels, centers, sizes, operator_norm(data - centers[labels])


def separation_quantities(data: np.ndarray, clustering: Clustering,
                          partition: DevicePartition, c: float = DEFAULT_C,
                          m0: float | None = None) -> SeparationReport:
    """Compute every separation scale and per-pair requirement check."""
    data, labels, centers, sizes, op = _fit_target(data, clustering)
    k = clustering.k

    counts = partition.counts_by_cluster(labels, k)
    present = counts > 0                # (devices, k)
    k_prime = int(present.sum(axis=1).max())
    if m0 is None:
        m0 = estimate_m0(counts)
    device_sizes = counts.sum(axis=1)
    n_min_device = int(device_sizes.min())

    tilde_delta = math.sqrt(k) * op / np.sqrt(sizes)
    delta = k_prime * op / np.sqrt(sizes)
    lam = math.sqrt(k_prime) * op / math.sqrt(n_min_device)

    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.einsum("rsd,rsd->rs", diff, diff))
    pair_active = present.T @ present   # some device holds both clusters
    np.fill_diagonal(pair_active, False)

    need_active = 2.0 * c * math.sqrt(m0) * (delta[:, None] + delta[None, :])
    need_inactive = 10.0 * math.sqrt(m0) * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(need_active > 0, dist / need_active,
                         np.where(dist > 0, np.inf, 0.0))
    active_ok = dist >= need_active
    inactive_ok = dist >= need_inactive
    np.fill_diagonal(ratio, 0.0)
    np.fill_diagonal(active_ok, False)
    np.fill_diagonal(inactive_ok, False)

    return SeparationReport(
        k=k, k_prime=k_prime, c=c, m0=float(m0), op_norm=op,
        cluster_sizes=sizes, tilde_delta=tilde_delta, delta=delta,
        lambda_=float(lam), n_min_device=n_min_device,
        n_min_cluster=int(sizes.min()), n_max_cluster=int(sizes.max()),
        pair_active=pair_active, pair_ratio=ratio,
        active_ok=active_ok, inactive_ok=inactive_ok)


def proximity_check(data: np.ndarray, clustering: Clustering) -> ProximityReport:
    """Per-point margin test along the lines joining cluster mean pairs.

    A point of cluster s is bad if, for some other cluster r, its
    projection onto the line through the two means is not closer to its
    own mean by at least (1/sqrt(n_r) + 1/sqrt(n_s)) times the spectral
    norm of the centered data. Pairs with coincident means are skipped
    with a warning since the line is undefined.
    """
    k = clustering.k
    if k < 2:
        raise ValueError("proximity check needs at least two clusters")
    data, labels, centers, sizes, op = _fit_target(data, clustering)

    scale = 1.0 / np.sqrt(sizes)
    worst = np.full(data.shape[0], np.inf)
    skipped: list[tuple[int, int]] = []
    for s in range(k):
        rows = np.flatnonzero(labels == s)
        block = data[rows] - centers[s]
        worst_s = np.full(rows.size, np.inf)
        for r in range(k):
            axis = centers[r] - centers[s]
            gap = float(np.linalg.norm(axis))
            if r == s or gap == 0.0:    # no line through the two means
                if r > s:
                    skipped.append((s, r))
                    warnings.warn(
                        f"clusters {r} and {s} have coincident means; "
                        "proximity pair skipped", RuntimeWarning)
                continue
            coord = block @ (axis / gap)
            margin = np.abs(coord - gap) - np.abs(coord)
            np.minimum(worst_s, margin - (scale[r] + scale[s]) * op, out=worst_s)
        worst[rows] = worst_s
    bad = np.flatnonzero(worst < 0)
    return ProximityReport(bad_count=int(bad.size), bad_indices=bad,
                           margins=worst, skipped_pairs=skipped)


def lemma_audit(data: np.ndarray, clustering: Clustering,
                partition: DevicePartition) -> LemmaAudit:
    """Check the unconditional per-device bounds against the global norm.

    For every device z and cluster r present on it, the local cluster mean
    may deviate from the global cluster mean by at most op / sqrt(n^z_r);
    and each device's locally centered data has spectral norm at most
    2 sqrt(local cluster count) times the global op norm. Both hold for
    any labeling whatsoever, so a violation beyond ``_AUDIT_SLACK``
    indicates an implementation bug.
    """
    data, labels, centers, _, op = _fit_target(data, clustering)
    k = clustering.k

    audit = LemmaAudit(mean_shift_checks=0, norm_change_checks=0)
    for z, rows in enumerate(partition.device_rows):
        if rows.size == 0:
            continue
        local_labels = labels[rows]
        local_data = data[rows]
        local_means, local_sizes = cluster_means(local_data, local_labels, k)
        present = np.flatnonzero(local_sizes)
        for r in present:
            lhs = float(np.linalg.norm(local_means[r] - centers[r]))
            rhs = op / math.sqrt(local_sizes[r])
            audit.mean_shift_checks += 1
            if lhs > rhs + _AUDIT_SLACK:
                audit.violations.append({
                    "kind": "mean_shift", "device": z, "cluster": int(r),
                    "lhs": lhs, "rhs": rhs,
                })
        lhs = operator_norm(local_data - local_means[local_labels])
        rhs = 2.0 * math.sqrt(present.size) * op
        audit.norm_change_checks += 1
        if lhs > rhs + _AUDIT_SLACK:
            audit.violations.append({
                "kind": "norm_change", "device": z, "cluster": None,
                "lhs": lhs, "rhs": rhs,
            })
    return audit


def write_pair_csv(path, report: SeparationReport) -> None:
    """Emit the per-pair rows consumed by distribution plots."""
    lines = ["r,s,status,ratio,active_ok,inactive_ok"]
    for row in report.pair_rows():
        lines.append(f"{row['r']},{row['s']},{row['status']},"
                     f"{row['ratio']!r},{row['active_ok']},{row['inactive_ok']}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
