"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are echoed in the terminal summary of a plain ``pytest -v`` run
(see conftest). These are end-to-end checks at the tolerances fixed
below; the per-module suites cover the fine-grained contracts.
"""

import json
import time

import numpy as np

import acceptance_log
from kfed import cli
from kfed.datagen import iid_partition
from kfed.evaluation import (cost_ratio_report, kmeans_cost, matched_accuracy)
from kfed.federation import run_kfed
from kfed.linalg import operator_norm
from kfed.local import Clustering, approx_seed, lloyd_iterate
from kfed.rng import Stream
from kfed.separation import lemma_audit, proximity_check, separation_quantities
from helpers import (device_truth, init_planted_clusters, planted_instance,
                     projection)
from oracles import brute_force_kmeans

SEEDS = list(range(10))


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {status}: {description}{suffix}"
    print(line)
    acceptance_log.LINES.append(line)
    assert ok, line


def _table1_accuracy(k: int, d: int, per_cluster: int, seed: int) -> float:
    _, data, truth, partition = planted_instance(
        seed, k=k, d=d, per_cluster=per_cluster, m0=5,
        group_size=int(round(np.sqrt(k))), c=100.0)
    run = run_kfed(partition, data, seed=seed)
    return matched_accuracy(run.induced.assignment, truth.assignment).accuracy


def test_criterion_01_table1_d100_k16():
    start = time.monotonic()
    accuracies = [_table1_accuracy(16, 100, 200, seed) for seed in SEEDS]
    elapsed = time.monotonic() - start
    mean = float(np.mean(accuracies))
    ok = mean >= 0.995 and elapsed < 60.0
    _report(1, "mixture recovery (d=100, k=16, m0=5, c=100)", ok,
            f"mean accuracy {mean:.4f}, {elapsed:.1f}s")


def test_criterion_02_table1_d300_k64():
    start = time.monotonic()
    accuracies = [_table1_accuracy(64, 300, 100, seed) for seed in SEEDS]
    elapsed = time.monotonic() - start
    mean = float(np.mean(accuracies))
    ok = mean >= 0.97 and elapsed < 300.0
    _report(2, "mixture recovery (d=300, k=64, m0=5, c=100)", ok,
            f"mean accuracy {mean:.4f}, {elapsed:.1f}s")


def test_criterion_03_c_sweep_trend():
    stats = {}
    for c in [2.0, 5.0, 10.0, 20.0, 50.0, 100.0]:
        accs = []
        for seed in SEEDS:
            _, data, truth, partition = planted_instance(
                seed, k=16, d=100, per_cluster=200, m0=5, group_size=4,
                c=c, mean_mode="sigma")
            run = run_kfed(partition, data, seed=seed)
            accs.append(matched_accuracy(run.induced.assignment,
                                         truth.assignment).accuracy)
        stats[c] = (float(np.mean(accs)), float(np.std(accs)))
    ok = stats[100.0][0] > stats[2.0][0] and stats[100.0][1] <= stats[2.0][1]
    _report(3, "accuracy trend across the separation-constant sweep", ok,
            f"c=2: {stats[2.0][0]:.3f}±{stats[2.0][1]:.3f}, "
            f"c=100: {stats[100.0][0]:.3f}±{stats[100.0][1]:.3f}")


def test_criterion_04_lemma_audit_fuzz():
    violations = 0
    checks = 0
    for trial in range(200):
        stream = Stream(5000, trial)
        n = 30 + int(stream.uniforms(1)[0] * 471)        # <= 500
        k = 2 + int(stream.uniforms(1)[0] * 7)           # <= 8
        z = 1 + int(stream.uniforms(1)[0] * 6)           # <= 6
        z = min(z, n)
        d = 4 + int(stream.uniforms(1)[0] * 20)
        data = stream.normals((n, d)) * (1.0 + 5.0 * stream.uniforms(1)[0])
        labels = stream.integers(n, k)
        labels[:k] = np.arange(k)                        # keep every cluster alive
        clustering = Clustering.from_labels(data, labels, k)
        partition = iid_partition(n, z, seed=trial)
        audit = lemma_audit(data, clustering, partition, slack=1e-9)
        violations += len(audit.violations)
        checks += audit.mean_shift_checks + audit.norm_change_checks
    _report(4, "mean-shift and norm-change bounds on 200 fuzzed instances",
            violations == 0, f"{checks} checks, {violations} violations")


def test_criterion_05_projection_cost_inequality():
    failures = 0
    for trial in range(100):
        stream = Stream(6000, trial)
        n = 10 + int(stream.uniforms(1)[0] * 51)
        d = 8 + int(stream.uniforms(1)[0] * 53)
        k = 1 + int(stream.uniforms(1)[0] * min(5, n, d))
        data = stream.normals((n, d))
        low_rank = stream.normals((n, k)) @ stream.normals((k, d))
        projected = projection(data, k)
        lhs = np.linalg.norm(projected - low_rank, "fro") ** 2
        rhs = 8.0 * k * operator_norm(data - low_rank) ** 2
        if lhs > rhs * (1.0 + 1e-9):
            failures += 1
    _report(5, "projected-cost inequality on 100 fuzzed low-rank pairs",
            failures == 0, f"{failures} failures")


def test_criterion_06_initialization_correctness():
    bad_instances = 0
    budget_breaches = 0
    for seed in range(100):
        _, data, truth, partition = planted_instance(seed + 300)
        report = separation_quantities(data, truth, partition, c=100.0)
        off_diag = ~np.eye(truth.k, dtype=bool)
        assert report.active_ok[report.pair_active].all()
        assert report.inactive_ok[off_diag & ~report.pair_active].all()
        run = run_kfed(partition, data, seed=seed + 300)
        planted = init_planted_clusters(run, partition, truth)
        if len(set(planted)) != truth.k:
            bad_instances += 1
        k_prime = max(partition.k_per_device)
        budget = 2 * partition.num_devices * k_prime * truth.k ** 2
        if run.accounting.pairwise_distance_count > budget:
            budget_breaches += 1
    ok = bad_instances == 0 and budget_breaches == 0
    _report(6, "farthest-point seeds hit all clusters within the distance budget",
            ok, f"{bad_instances} miss, {budget_breaches} over budget, 100 trials")


def test_criterion_07_zero_bad_points_exact_recovery():
    imperfect = 0
    for seed in range(50):
        _, data, truth, partition = planted_instance(seed + 700)
        for rows in partition.device_rows:
            local = device_truth(data, truth, rows)
            assert proximity_check(data[rows], local).bad_count == 0
        run = run_kfed(partition, data, seed=seed + 700)
        if matched_accuracy(run.induced.assignment,
                            truth.assignment).accuracy != 1.0:
            imperfect += 1
    _report(7, "zero bad points implies exact classification", imperfect == 0,
            f"{imperfect} imperfect of 50")


def test_criterion_08_late_join_consistency(tmp_path):
    mismatches = 0
    wrong_counts = 0
    for seed in range(20):
        _, data, truth, partition = planted_instance(seed + 900)
        last = partition.num_devices - 1
        k_z = partition.k_per_device[last]
        full = run_kfed(partition, data, seed=seed + 900)
        reduced = run_kfed(partition, data, seed=seed + 900,
                           exclude_devices=(last,))
        state_path = tmp_path / f"state_{seed}.json"
        cli.save_state(state_path, reduced.induced.cluster_means, "acceptance",
                       seed + 900)
        data_path = tmp_path / f"device_{seed}.csv"
        np.savetxt(data_path, data[partition.device_rows[last]],
                   fmt="%.17g", delimiter=",")
        join_dir = tmp_path / f"join_{seed}"
        code = cli.main(["join", "--state", str(state_path),
                         "--data", str(data_path), "--k-z", str(k_z),
                         "--device-id", str(last), "--seed", str(seed + 900),
                         "--out", str(join_dir)])
        assert code == 0
        blob = json.loads((join_dir / "join.json").read_text())
        if blob["distance_count"] != k_z * truth.k:
            wrong_counts += 1
        joined = np.loadtxt(join_dir / "join_labels.csv", dtype=int)
        shared = reduced.induced.covered()
        mapping = matched_accuracy(reduced.induced.assignment[shared],
                                   full.induced.assignment[shared])
        mapped = np.array([mapping.permutation[int(x)] for x in joined])
        if not np.array_equal(mapped,
                              full.induced.assignment[partition.device_rows[last]]):
            mismatches += 1
    ok = mismatches == 0 and wrong_counts == 0
    _report(8, "late joins match a full re-run at the promised distance count",
            ok, f"{mismatches} label mismatches, {wrong_counts} bad counts, 20 trials")


def test_criterion_09_structured_vs_iid_direction():
    below_one = 0
    total = 0
    for seed in SEEDS:
        spec, data, truth, structured = planted_instance(
            seed, k=16, d=50, per_cluster=150, m0=5, group_size=4,
            c=4.0, mean_mode="sigma")
        oracle = kmeans_cost(data, truth)
        run_s = run_kfed(structured, data, seed=seed)
        cost_s = kmeans_cost(data, run_s.induced.assignment)
        iid = iid_partition(spec.n, structured.num_devices, seed)
        iid.annotate_from_labels(truth.assignment, truth.k)
        run_i = run_kfed(iid, data, seed=seed)
        cost_i = kmeans_cost(data, run_i.induced.assignment)
        ratio = cost_ratio_report(oracle, cost_s, cost_i)
        total += 1
        if not ratio.degenerate and ratio.ratio < 1.0:
            below_one += 1
    _report(9, "structured partitions beat IID on the cost ratio",
            below_one >= 8, f"{below_one}/{total} seeds below 1")


def test_criterion_10_ten_x_of_bruteforce():
    breaches = 0
    for trial in range(50):
        stream = Stream(8000, trial)
        n = 4 + int(stream.uniforms(1)[0] * 9)           # <= 12
        d = 1 + int(stream.uniforms(1)[0] * 3)
        k = 1 + int(stream.uniforms(1)[0] * 3)           # <= 3
        k = min(k, n)
        data = stream.normals((n, d)) * 2.0
        rank = min(k, n, d)
        seeds = approx_seed(projection(data, rank), k, seed=(8000, trial))
        final = lloyd_iterate(data, seeds)
        cost = kmeans_cost(data, final)
        optimal, _ = brute_force_kmeans(data, k)
        if cost > 10.0 * optimal + 1e-9:
            breaches += 1
    _report(10, "seed-plus-Lloyd cost within 10x of exhaustive optimum",
            breaches == 0, f"{breaches} breaches of 50")
