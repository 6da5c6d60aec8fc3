"""Benchmark workloads: instance shapes, the timed operations, output checks.

A workload builds one instance per operation from ``1000 * seed + i``, so a
run samples several instances of the same shape and the same ``--seed``
always gives the same inputs. Instance generation is set-up, not part of the
operation's time.

Every span name a workload opens is ``<layer>.<function>``, where the layer
is the kfed module that owns the function.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from kfed import datagen, evaluation, federation, separation

INSTANCES_PER_SEED = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the operation timed on it."""

    name: str
    operation: str                  # "pipeline" or "diagnostics"
    k: int
    d: int
    per_cluster: int
    c: float
    mean_mode: str                  # datagen mean placement: auto | sigma
    partition: str                  # structured | iid
    m0: int = 5
    group_size: int | None = None   # structured: components per group
    devices: int | None = None      # iid: device count
    min_accuracy: float | None = None


WORKLOADS = {wl.name: wl for wl in (
    # The acceptance-02 shape. Farthest-point init and seeding dominate; the
    # d > n devices project through the small left Gram, so eigensolver
    # changes should not move it.
    Workload(name="table1_large", operation="pipeline", k=64, d=300,
             per_cluster=100, c=100.0, mean_mode="auto",
             partition="structured", m0=5, group_size=8, min_accuracy=0.97),
    # The IID side of acceptance 09. The right-Gram eigensolver with close
    # eigenvalues dominates; the start device already uploads all k centers,
    # so the aggregator computes no max-min distances.
    Workload(name="lowsep_iid", operation="pipeline", k=16, d=50,
             per_cluster=150, c=4.0, mean_mode="sigma", partition="iid",
             devices=20),
    # The acceptance-01 instance through the profile operation: operator
    # norms on tall residual matrices. The only workload for separation.
    Workload(name="diagnostics", operation="diagnostics", k=16, d=100,
             per_cluster=200, c=100.0, mean_mode="auto",
             partition="structured", m0=5, group_size=4),
)}


@dataclass
class Instance:
    seed: int
    data: np.ndarray
    truth: object                   # kfed.Clustering
    partition: datagen.DevicePartition


@dataclass
class OpRecord:
    """One operation's output reduced to checks, counters and a digest."""

    instance_seed: int
    digest: str
    rows: int
    accuracy: float | None = None
    counters: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        blob = {"instance_seed": self.instance_seed, "digest": self.digest}
        blob.update(self.counters)
        if self.accuracy is not None:
            blob["accuracy"] = self.accuracy
        if self.problems:
            blob["problems"] = self.problems
        return blob


def instance_seed(seed: int, index: int) -> int:
    return seed * INSTANCES_PER_SEED + index


def build_instance(wl: Workload, seed: int, span) -> Instance:
    """Mixture plus partition, built the way ``kfed generate`` builds them."""
    spec = datagen.MixtureSpec(k=wl.k, d=wl.d, n=wl.k * wl.per_cluster,
                               sigma_max=1.0, seed=seed,
                               mean_mode=wl.mean_mode, c=wl.c,
                               m0=float(wl.m0))
    with span("datagen.generate_mixture"):
        data, truth = datagen.generate_mixture(spec)
    with span("datagen.partition"):
        if wl.partition == "structured":
            partition = datagen.structured_partition(
                truth, datagen.PartitionSpec(mode="structured", m0=wl.m0,
                                             group_size=wl.group_size))
        else:
            partition = datagen.iid_partition(spec.n, wl.devices, seed)
            partition.annotate_from_labels(truth.assignment, truth.k)
    return Instance(seed=seed, data=data, truth=truth, partition=partition)


def pipeline_op(wl: Workload, inst: Instance, span):
    """One ``kfed run`` result row without file IO."""
    with span("federation.run_kfed"):
        run = federation.run_kfed(inst.partition, inst.data, seed=inst.seed)
    covered = run.induced.covered()
    pred = run.induced.assignment[covered]
    with span("evaluation.matched_accuracy"):
        result = evaluation.matched_accuracy(pred,
                                             inst.truth.assignment[covered])
    with span("evaluation.kmeans_cost"):
        cost = evaluation.kmeans_cost(inst.data[covered], pred)
    return run, covered, result.accuracy, cost


def diagnostics_op(wl: Workload, inst: Instance, span):
    """One ``kfed profile`` report without file IO."""
    with span("separation.separation_quantities"):
        report = separation.separation_quantities(
            inst.data, inst.truth, inst.partition, c=wl.c)
    with span("separation.proximity_check"):
        proximity = separation.proximity_check(inst.data, inst.truth)
    report.proximity_violations = proximity.bad_count
    with span("separation.lemma_audit"):
        audit = separation.lemma_audit(inst.data, inst.truth, inst.partition)
    return report, proximity, audit


def run_operation(wl: Workload, inst: Instance, span):
    if wl.operation == "pipeline":
        return pipeline_op(wl, inst, span)
    return diagnostics_op(wl, inst, span)


def _sha(*parts) -> str:
    """Digest of integer arrays and strings, stable across machines."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def record_operation(wl: Workload, inst: Instance, output) -> OpRecord:
    """Check one operation's output and keep its digest and counters."""
    n = inst.data.shape[0]
    if wl.operation == "pipeline":
        run, covered, accuracy, cost = output
        results = run.local_results.values()
        record = OpRecord(
            instance_seed=inst.seed, rows=n, accuracy=float(accuracy),
            digest=_sha(run.induced.assignment),
            counters={
                "distance_count": run.accounting.pairwise_distance_count,
                "upload_bytes": sum(m.n_bytes for m in run.accounting.messages
                                    if m.direction == "up"),
                "lloyd_iterations": sum(r.lloyd_iterations for r in results),
                "unassigned_after_threshold": sum(
                    r.unassigned_after_threshold for r in results),
                "device_rows": sum(r.clusters.assignment.size
                                   for r in results),
            })
        if not covered.all():
            record.problems.append(f"{int((~covered).sum())} rows uncovered")
        if not 0.0 <= accuracy <= 1.0:
            record.problems.append(f"accuracy {accuracy} outside [0, 1]")
        if not math.isfinite(cost):
            record.problems.append(f"k-means cost {cost} is not finite")
        return record
    report, proximity, audit = output
    record = OpRecord(
        instance_seed=inst.seed, rows=n,
        digest=_sha(report.pair_active, report.active_ok, report.inactive_ok,
                    [report.k_prime, audit.mean_shift_checks,
                     audit.norm_change_checks, len(audit.violations)],
                    proximity.bad_indices,
                    # Six digits: stable under a change of eigensolver, yet
                    # specific to the instance.
                    f"{report.op_norm:.6g}"),
        counters={
            "checks": audit.mean_shift_checks + audit.norm_change_checks,
            "proximity_violations": proximity.bad_count,
        })
    if not audit.passed:
        record.problems.append(
            f"lemma audit: {len(audit.violations)} violations")
    if not math.isfinite(report.op_norm):
        record.problems.append(f"operator norm {report.op_norm} is not finite")
    return record


def run_problems(wl: Workload, records: list[OpRecord]) -> list[str]:
    """Checks on the run as a whole, over every operation that completed."""
    if wl.min_accuracy is None or not records:
        return []
    mean = sum(r.accuracy for r in records) / len(records)
    if mean < wl.min_accuracy:
        return [f"mean accuracy {mean:.4f} below {wl.min_accuracy}"]
    return []
