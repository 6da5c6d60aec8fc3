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

The three checks share one target fit (means, sizes, the residual's
spectral norm, the scaled means) through a one-slot memo. A call reuses
the last fit only when its data and labels are bit-equal to that fit's,
its ``k`` is the same and the same ``operator_norm`` object is in force.
The slot keeps one private copy of the data and labels, and is emptied
when the data array it was fitted on is freed.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .datagen import DevicePartition, estimate_m0
from .linalg import _finite_scaled, operator_norm
from .local import Clustering, cluster_means

DEFAULT_C = 100.0
_AUDIT_SLACK = 1e-9   # absolute rounding allowance before a bound counts as violated
_AUDIT_REL = 1e-12    # relative allowance; the smaller of the two applies


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


# The one-slot memo of ``_fit_target``: None, or one tuple (weakref to the
# caller's data array, private copies of data and labels, k, operator_norm,
# fit), replaced whole, so a reader never sees a half-written entry.
_last_fit: list = [None]


def _forget(ref, slot=_last_fit) -> None:
    """Weakref callback: empty the slot if the array that died still owns it."""
    if slot[0] is not None and slot[0][0] is ref:
        slot[0] = None


def _fit_target(data: np.ndarray, clustering: Clustering) -> tuple:
    """(data, labels, cluster means, sizes, residual spectral norm, means
    scaled by a power of two, its exponent) of a target.

    The labels are checked by ``Clustering.from_labels``: one per row, each
    in [0, k), every cluster with members. The last fit is kept (see the
    module docstring) and served as copies. NaN data never match: their
    means are NaN, which ``_finite_scaled`` rejects before anything is
    kept.
    """
    data = np.asarray(data, dtype=float)
    labels = np.asarray(clustering.assignment, dtype=int)
    k, norm = clustering.k, operator_norm
    entry = _last_fit[0]
    if (entry is not None and entry[3] == k and entry[4] is norm
            and np.array_equal(entry[1].view(np.uint64), data.view(np.uint64))
            and np.array_equal(entry[2], labels)):
        centers, sizes, op, scaled, exponent = entry[5]
        return (data, labels, centers.copy(), sizes.copy(), op,
                scaled.copy(), exponent)
    entry = _last_fit[0] = None     # free the kept copy before refitting
    target = Clustering.from_labels(data, labels, k)   # checks the labels
    centers, sizes = target.centers, target.sizes()
    resid = centers[labels]
    np.subtract(data, resid, out=resid)
    op = norm(resid)
    del resid
    scaled, exponent = _finite_scaled(centers)
    _last_fit[0] = (weakref.ref(data, _forget), data.copy(), labels.copy(), k,
                    norm, (centers.copy(), sizes.copy(), op, scaled.copy(),
                           exponent))
    return data, labels, centers, sizes, op, scaled, exponent


def separation_quantities(data: np.ndarray, clustering: Clustering,
                          partition: DevicePartition, c: float = DEFAULT_C,
                          m0: float | None = None) -> SeparationReport:
    """Compute every separation scale and per-pair requirement check.

    The partition must hold some rows and cover the rows of ``data`` (see
    ``DevicePartition.check_cover``). A device that holds no rows is
    skipped, as in ``lemma_audit``.
    """
    data, labels, centers, sizes, op, scaled, exponent = _fit_target(
        data, clustering)
    k = clustering.k

    if not any(len(rows) for rows in partition.device_rows):
        raise ValueError("partition holds no rows")
    partition.check_cover(labels.size)
    counts = partition.counts_by_cluster(labels, k)
    device_sizes = counts.sum(axis=1)
    n_min_device = int(device_sizes[device_sizes > 0].min())
    present = counts > 0                # (devices, k)
    k_prime = int(present.sum(axis=1).max())
    if m0 is None:
        m0 = estimate_m0(counts)

    tilde_delta = math.sqrt(k) * op / np.sqrt(sizes)
    delta = k_prime * op / np.sqrt(sizes)
    lam = math.sqrt(k_prime) * op / math.sqrt(n_min_device)

    # Differences of the power-of-two scaled centers neither overflow nor
    # underflow when squared; scaling back is exact.
    diff = scaled[:, None, :] - scaled[None, :, :]
    with np.errstate(over="ignore"):  # a distance beyond the float range is inf
        dist = np.ldexp(np.sqrt(np.einsum("rsd,rsd->rs", diff, diff)), exponent)
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

    All k x k mean gaps come from one stacked vector product, and each
    cluster's projections onto all its lines from one stacked
    matrix-vector product. These equal, bit for bit, the per-pair
    ``np.linalg.norm(axis)`` and ``block @ unit`` they replace (a dot
    product and a gemv per pair); the warnings and ``skipped_pairs``
    follow the pairs (s, r), s < r, in row-major order.
    """
    k = clustering.k
    if k < 2:
        raise ValueError("proximity check needs at least two clusters")
    data, labels, centers, sizes, op, scaled, exponent = _fit_target(
        data, clustering)

    scale = 1.0 / np.sqrt(sizes)
    threshold = (scale[:, None] + scale[None, :]) * op
    # Mean gaps are taken on the power-of-two scaled centers, as in
    # ``separation_quantities``, then scaled back. axes[s, r] points from
    # mean s to mean r.
    axes = scaled[None, :, :] - scaled[:, None, :]
    gaps = _vector_norms(axes)
    with np.errstate(over="ignore"):  # a gap beyond the float range is inf
        far = np.ldexp(gaps, exponent)
    lined = gaps != 0.0                 # no line through coincident means
    np.fill_diagonal(lined, False)
    skipped = [tuple(pair)
               for pair in np.argwhere(np.triu(gaps == 0.0, 1)).tolist()]
    for s, r in skipped:
        warnings.warn(f"clusters {r} and {s} have coincident means; "
                      "proximity pair skipped", RuntimeWarning)
    worst = np.full(data.shape[0], np.inf)
    for s in range(k):
        rows = np.flatnonzero(labels == s)
        others = np.flatnonzero(lined[s])
        units = axes[s, others] / gaps[s, others, None]
        coords = np.matmul(data[rows] - centers[s], units[:, :, None])[..., 0]
        gap = far[s, others, None]
        margins = np.abs(coords - gap) - np.abs(coords)
        margins -= threshold[s, others, None]
        worst[rows] = margins.min(axis=0, initial=np.inf)
    bad = np.flatnonzero(worst < 0)
    return ProximityReport(bad_count=int(bad.size), bad_indices=bad,
                           margins=worst, skipped_pairs=skipped)


def _exceeds(lhs: float, rhs: float, exponent: int) -> bool:
    """Whether ``lhs`` exceeds ``rhs`` by more than rounding can explain: the
    relative allowance is taken against the larger of ``rhs`` and the
    centers' scale 2^``exponent``, since a zero bound still meets the
    rounding of the means."""
    return lhs > rhs + min(_AUDIT_SLACK, max(_AUDIT_REL * rhs,
                                             math.ldexp(_AUDIT_REL, exponent)))


def _vector_norms(m: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each vector along the last axis of ``m``, to the
    bit: the stacked product of each vector with itself is the dot product
    that norm takes.
    """
    return np.sqrt(np.matmul(m[..., None, :], m[..., :, None]))[..., 0, 0]


def _row_norms(m: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``m``, taken on the row scaled by the
    power of two that brings its largest entry into [0.5, 1), then scaled
    back. Both steps are exact, so each norm is bit-identical wherever the
    plain norm neither overflows nor underflows, and right where it would.
    """
    exponents = np.frexp(np.abs(m).max(axis=1))[1]
    norms = _vector_norms(np.ldexp(m, -exponents[:, None]))
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return np.ldexp(norms, exponents)


def _frobenius_within(m: np.ndarray, bound: float) -> bool:
    """Whether ‖m‖_F, and so ‖m‖₂, is within ``bound`` by a relative margin.

    ``m`` and ``bound`` are scaled by the power of two that brings ``bound``
    into [0.5, 1), so the sum of squares can neither overflow nor underflow
    where the comparison is decided; the margin covers the rounding of both
    norms. A zero bound certifies nothing.
    """
    mantissa, exponent = math.frexp(bound)
    with np.errstate(over="ignore"):  # inf is simply not certified
        fro = float(np.linalg.norm(np.ldexp(m, -exponent)))
    return mantissa > 0 and fro * (1.0 + _AUDIT_REL) <= mantissa


def lemma_audit(data: np.ndarray, clustering: Clustering,
                partition: DevicePartition) -> LemmaAudit:
    """Check the unconditional per-device bounds against the global norm.

    For every device z and cluster r present on it, the local cluster mean
    may deviate from the global cluster mean by at most op / sqrt(n^z_r);
    and each device's locally centered data has spectral norm at most
    2 sqrt(local cluster count) times the global op norm. Both hold for
    any labeling whatsoever, so a violation beyond the rounding allowance
    (the smaller of ``_AUDIT_SLACK`` and ``_AUDIT_REL`` times the larger of
    the bound and the centers' power-of-two scale) indicates an
    implementation bug. A device whose residual's Frobenius norm, an upper
    bound on its spectral norm, is already within the norm-change bound
    passes without an eigensolve; only the others take the exact
    ``operator_norm``.

    The partition must cover the rows of ``data`` (see
    ``DevicePartition.check_cover``); a device that holds no rows is
    skipped. Each device's means come from its own ``cluster_means`` call,
    and its block is centered in place, so no n x d temporary is built.
    """
    data, labels, centers, _, op, _, exponent = _fit_target(data, clustering)
    k = clustering.k
    partition.check_cover(labels.size)

    audit = LemmaAudit(mean_shift_checks=0, norm_change_checks=0)
    for z, rows in enumerate(partition.device_rows):
        if not rows.size:
            continue
        block, local_labels = data[rows], labels[rows]
        local_means, local_sizes = cluster_means(block, local_labels, k)
        present = np.flatnonzero(local_sizes)
        shifts = _row_norms(local_means[present] - centers[present]).tolist()
        bounds = (op / np.sqrt(local_sizes[present])).tolist()
        for r, lhs, rhs in zip(present.tolist(), shifts, bounds):
            audit.mean_shift_checks += 1
            if _exceeds(lhs, rhs, exponent):
                audit.violations.append({
                    "kind": "mean_shift", "device": z, "cluster": r,
                    "lhs": lhs, "rhs": rhs,
                })
        block -= local_means[local_labels]
        rhs = 2.0 * math.sqrt(present.size) * op
        audit.norm_change_checks += 1
        if _frobenius_within(block, rhs):
            continue
        lhs = operator_norm(block)
        if _exceeds(lhs, rhs, exponent):
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
