"""One workload run: warm-up, timed operations, checks and the metrics."""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import (INSTANCES_PER_SEED, build_instance, instance_seed,
                       record_operation, run_operation, run_problems)

END_TO_END = {
    "solve_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "datagen.generate_mixture_s": "s",
    "datagen.partition_s": "s",
    "linalg.top_k_projection_s": "s",
    "linalg.top_k_projection_calls": "count",
    "linalg.operator_norm_s": "s",
    "linalg.operator_norm_calls": "count",
    "local.local_cluster_s": "s",
    "local.local_cluster_max_s": "s",
    "local.approx_seed_s": "s",
    "local.threshold_assign_s": "s",
    "local.self_s": "s",
    "local.lloyd_iterations": "count",
    "local.threshold_kept_ratio": "ratio",
    "federation.farthest_point_init_s": "s",
    "federation.one_round_lloyd_s": "s",
    "federation.self_s": "s",
    "federation.distance_count": "count",
    "federation.upload_bytes": "bytes",
    "evaluation.matched_accuracy_s": "s",
    "evaluation.kmeans_cost_s": "s",
    "evaluation.accuracy": "ratio",
    "separation.separation_quantities_s": "s",
    "separation.proximity_check_s": "s",
    "separation.lemma_audit_s": "s",
    "separation.self_s": "s",
    "separation.checks": "count",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.unfired": "count",
    "bench.reference_s": "s",
    "bench.fail_ratio": "ratio",
}

# Per-layer times that do not overlap; they add up to trace.solve_s.
SELF_TIMES = (
    "linalg.top_k_projection_s", "linalg.operator_norm_s",
    "local.approx_seed_s", "local.threshold_assign_s", "local.self_s",
    "federation.farthest_point_init_s", "federation.one_round_lloyd_s",
    "federation.self_s", "evaluation.matched_accuracy_s",
    "evaluation.kmeans_cost_s", "separation.self_s", "trace.unaccounted_s",
)


def no_span(name):
    return nullcontext()


class Reference:
    """A fixed kernel, timed before every operation, that gauges machine speed.

    On a shared machine the speed a process gets drifts by 10% or more
    over a minute. The kernel mixes what kfed does (a Python loop over small
    vector updates, a BLAS product and a broadcast reduction), so its time
    drifts with the operations' time, and dividing by it cancels the drift.
    It uses no kfed code, so a change to kfed moves the ratio in full. Keep
    it fixed: changing it changes the unit of ``solve_rel``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(2103_00697)
        self.block = rng.standard_normal((100, 16))
        self.square = rng.standard_normal((200, 200))
        self.points = rng.standard_normal((2000, 8))
        self.times: list[float] = []

    def measure(self) -> None:
        start = perf_counter()
        basis = self.block.copy()
        for _ in range(3):
            for j in range(basis.shape[1]):
                col = basis[:, j]
                for i in range(j):
                    col -= (basis[:, i] @ col) * basis[:, i]
                col /= np.linalg.norm(col)
        self.square @ self.square
        ((self.points[:, None, :] - self.points[None, :64, :]) ** 2).sum()
        self.times.append(perf_counter() - start)

    def seconds(self) -> float:
        return statistics.median(self.times)


class Run:
    """One workload in one process: instances, timings, records, failures.

    Operation ``i`` runs on the instance built from ``instance_seed(seed,
    i)``; the warm-up runs on instance 0 and must give the same result as
    the first timed operation.
    """

    def __init__(self, wl, seed: int, traced: bool):
        self.wl = wl
        self.seed = seed
        self.traced = traced
        self.tracer = Tracer()
        self.reference = Reference()
        self.setup: list[float] = []   # seconds to build each instance
        self.solve: list[float] = []   # untraced seconds per operation
        self.records = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # checks on the run as a whole

    def build(self, index: int):
        span = self.tracer.span if self.traced else no_span
        start = perf_counter()
        inst = build_instance(self.wl, instance_seed(self.seed, index), span)
        self.setup.append(perf_counter() - start)
        return inst

    def operate(self, inst, traced: bool):
        if not traced:
            start = perf_counter()
            output = run_operation(self.wl, inst, no_span)
            return perf_counter() - start, output
        with self.tracer.operation():
            output = run_operation(self.wl, inst, self.tracer.span)
        return self.tracer.last_duration(), output

    def attempt(self, inst):
        """One timed operation; when tracing, an untraced and traced pair."""
        self.attempted += 1
        self.reference.measure()
        try:
            if self.traced:
                order = (False, True) if self.attempted % 2 else (True, False)
                timed = {mode: self.operate(inst, mode) for mode in order}
                seconds, output = timed[False]
                traced_digest = record_operation(self.wl, inst,
                                                 timed[True][1]).digest
            else:
                seconds, output = self.operate(inst, False)
            record = record_operation(self.wl, inst, output)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if self.traced and traced_digest != record.digest:
            record.problems.append("traced result differs from untraced")
        if record.problems:
            self.failed += 1
            print(f"instance {inst.seed}: {'; '.join(record.problems)}",
                  file=sys.stderr)
        self.solve.append(seconds)
        self.records.append(record)
        return record

    def execute(self, seconds: float) -> None:
        inst = self.build(0)
        try:
            warm = record_operation(self.wl, inst,
                                    run_operation(self.wl, inst, no_span))
        except Exception:  # the timed operation on instance 0 repeats it
            traceback.print_exc()
            warm = None
        deadline = perf_counter() + seconds
        index = 0
        while index < INSTANCES_PER_SEED and (
                index == 0 or perf_counter() < deadline):
            if index > 0:
                inst = self.build(index)
            record = self.attempt(inst)
            if index == 0 and (warm is None or record is None
                               or record.digest != warm.digest):
                self.problems.append(
                    "warm-up failed or differs from the first timed result")
            index += 1
        self.problems.extend(run_problems(self.wl, self.records))

    def raw(self) -> dict:
        """Wall-clock figures, printed beside the metrics."""
        return {
            "solve_s": statistics.fmean(self.solve),
            "rows_per_s": sum(r.rows for r in self.records) / sum(self.solve),
            "reference_s": self.reference.seconds(),
        }

    def end_to_end(self, import_s: float) -> dict:
        """``import_s`` is the median time to import kfed."""
        return {
            "solve_rel":
                statistics.fmean(self.solve) / self.reference.seconds(),
            "setup_s": import_s + statistics.median(self.setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update((k, v) for k, v in self.tracer.summary().items()
                      if k in values)
        first = self.records[0].counters
        device_rows = sum(r.counters.get("device_rows", 0)
                          for r in self.records)
        unassigned = sum(r.counters.get("unassigned_after_threshold", 0)
                         for r in self.records)
        accuracies = [r.accuracy for r in self.records
                      if r.accuracy is not None]
        untraced = statistics.fmean(self.solve)
        unfired = self.tracer.unfired(self.wl.operation)
        for name in unfired:
            print(f"flag: wrapped {name} never fired", file=sys.stderr)
        values.update({
            "local.lloyd_iterations": first.get("lloyd_iterations", 0),
            "local.threshold_kept_ratio":
                1.0 - unassigned / device_rows if device_rows else 0.0,
            "federation.distance_count": first.get("distance_count", 0),
            "federation.upload_bytes": first.get("upload_bytes", 0),
            "evaluation.accuracy":
                statistics.fmean(accuracies) if accuracies else 0.0,
            "separation.checks": first.get("checks", 0),
            "trace.untraced_solve_s": untraced,
            "trace.overhead_s": values["trace.solve_s"] - untraced,
            "trace.unfired": len(unfired),
            "bench.reference_s": self.reference.seconds(),
            "bench.fail_ratio": self.failed / self.attempted,
        })
        return values
