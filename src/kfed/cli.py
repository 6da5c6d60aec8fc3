"""Command-line experiment harness.

Subcommands: generate, run, profile, join, eval. A JSON config describes
the instance family and experiment; every output file embeds the config
hash and seed so equal (config, seed) pairs reproduce byte-identical
result rows. The KFED_THREADS environment variable caps the number of
concurrent device solves. It only speeds a run up with BLAS pinned to one
thread (for example OPENBLAS_NUM_THREADS=1); with BLAS's default threading
the solver threads and BLAS's threads compete for the same cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import datagen, federation, separation
from .datagen import MixtureSpec, PartitionSpec
from .evaluation import (cost_ratio_report, evaluate_clustering, kmeans_cost,
                         matched_accuracy)
from .federation import canonical_json
from .linalg import validate_matrix
from .local import DEFAULT_TOL, Clustering, local_cluster

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Bad config or malformed input file; maps to exit code 2."""


def _sha256(blob) -> str:
    return hashlib.sha256(canonical_json(blob).encode()).hexdigest()


def config_hash(cfg: dict) -> str:
    return _sha256(cfg)


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    names = tuple(EXPERIMENTS)  # a tuple: an unhashable value is just absent
    if cfg.get("experiment") not in names:
        raise ConfigError(f"experiment must be one of {names}")
    mixture = cfg.get("mixture")
    if not isinstance(mixture, dict) or "k" not in mixture or "d" not in mixture:
        raise ConfigError("config needs mixture.k and mixture.d")
    if "c_values" in cfg and cfg["experiment"] != "c_sweep":
        raise ConfigError("only the c_sweep experiment reads c_values")
    round_trip = json.loads(json.dumps(cfg))
    if round_trip != cfg:
        raise ConfigError("config does not round-trip through JSON")
    return cfg


def _seeds_from(cfg: dict, args) -> list[int]:
    if getattr(args, "seed", None) is not None:
        return [args.seed]
    spec = getattr(args, "seeds", None)
    if spec:
        try:
            lo, hi = spec.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        except ValueError as err:
            raise ConfigError(f"--seeds expects N..M, got {spec!r}") from err
    else:
        seeds = [int(s) for s in cfg.get("seeds", [0])]
    if not seeds:
        raise ConfigError("no seeds to run")
    return seeds


def build_mixture_spec(cfg: dict, seed: int, c: float | None = None) -> MixtureSpec:
    m = cfg["mixture"]
    k = int(m["k"])
    n = int(m["n"]) if "n" in m else int(m.get("per_cluster", datagen.DEFAULT_PER_CLUSTER)) * k
    try:
        spec = MixtureSpec(
            k=k, d=int(m["d"]), n=n,
            sigma_max=float(m.get("sigma_max", 1.0)), seed=seed,
            weights=None if m.get("weights") is None else np.asarray(m["weights"], float),
            mean_mode=m.get("mean_mode", "auto"),
            c=float(c if c is not None else cfg.get("c", 100.0)),
            m0=float(cfg.get("m0", 5.0)),
            balanced=bool(m.get("balanced", True)))
        spec.resolved_weights()
        datagen.resolve_means(spec)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return spec


def build_partition_spec(cfg: dict) -> PartitionSpec:
    p = cfg.get("partition", {"mode": "structured"})
    return PartitionSpec(mode=p.get("mode", "structured"),
                         m0=p.get("m0", int(cfg.get("m0", 5))),
                         Z=p.get("Z"), group_size=p.get("group_size"))


def make_instance(cfg: dict, seed: int, c: float | None = None):
    """Generate (data, truth, partition) for one seed of the config."""
    spec = build_mixture_spec(cfg, seed, c=c)
    data, truth = datagen.generate_mixture(spec)
    pspec = build_partition_spec(cfg)
    if pspec.mode == "structured":
        partition = datagen.structured_partition(truth, pspec)
    elif pspec.mode == "iid":
        partition = datagen.iid_partition(spec.n, int(pspec.Z or 1), seed)
        partition.annotate_from_labels(truth.assignment, truth.k)
    else:
        raise ConfigError(f"unknown partition mode {pspec.mode!r}")
    return spec, data, truth, partition


# ---------------------------------------------------------------------------
# output helpers

_RESULTS_HEADER = "run_id,config_hash,seed,experiment,c,accuracy,kmeans_cost,distance_count"
_RESULTS_ROW = ("{run_id},{config_hash},{seed},{experiment},{c!r},"
                "{accuracy!r},{kmeans_cost!r},{distance_count}")


def write_results(out_dir: Path, rows: list[dict]) -> None:
    """Write results.csv afresh: the header, then one line per row."""
    lines = [_RESULTS_HEADER] + [_RESULTS_ROW.format(**row) for row in rows]
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")


def write_json(path: Path, blob: dict) -> None:
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")


def write_line_svg(path: Path, xs: list[float], series: dict[str, list[float]],
                   title: str, xlabel: str, ylabel: str) -> None:
    """Tiny dependency-free SVG line chart (batch artifact, not a UI)."""
    width, height, pad = 640, 420, 60
    all_ys = [y for ys in series.values() for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_ys), max(all_ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x): return pad + (x - x_lo) / x_span * (width - 2 * pad)
    def sy(y): return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
             f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
             f'<text x="{width/2:.1f}" y="{height-16}" text-anchor="middle" font-size="12">{xlabel}</text>',
             f'<text x="18" y="{height/2:.1f}" text-anchor="middle" font-size="12" '
             f'transform="rotate(-90 18 {height/2:.1f})">{ylabel}</text>']
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for idx, (label, ys) in enumerate(sorted(series.items())):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width-pad+4}" y="{sy(ys[-1]):.2f}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# run-state persistence for late joins

def save_state(path: Path, state: federation.AggregationState, cfg_hash: str,
               seed: int) -> None:
    payload = {
        "version": CONFIG_VERSION,
        "config_hash": cfg_hash,
        "seed": seed,
        "k": state.k,
        "d": state.cluster_means.shape[1],
        "tau_means": [[float(x) for x in row] for row in state.cluster_means],
    }
    payload["checksum"] = _sha256(payload)
    write_json(path, payload)


def load_state(path) -> tuple[federation.AggregationState, dict]:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as err:
        raise ConfigError("no aggregation state") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"state file is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigError("state file is not a JSON object")
    recorded = payload.pop("checksum", None)
    if recorded != _sha256(payload):
        raise ConfigError("state file checksum mismatch")
    try:
        means = validate_matrix(payload.get("tau_means"), "state tau_means")
    except (TypeError, ValueError) as err:
        raise ConfigError(f"state file has no usable tau_means: {err}") from err
    if (payload.get("k"), payload.get("d")) != means.shape:
        raise ConfigError(f"state file k, d = {payload.get('k')}, {payload.get('d')} "
                          f"disagree with its {means.shape} tau_means")
    return federation.AggregationState(cluster_means=means), payload


# ---------------------------------------------------------------------------
# experiments: one body per (c, seed) run, one finisher per experiment

@dataclass(frozen=True)
class RunInputs:
    """What every (c, seed) run of one ``kfed run`` shares, resolved once."""

    cfg: dict
    cfg_hash: str
    out: Path
    tol: float
    exclude: tuple[int, ...]
    record: str | None
    several_c: bool  # state files then carry c in their names


def _scored_run(inputs: RunInputs, c, seed: int) -> dict:
    """One pipeline run scored against the planted clustering."""
    cfg, cfg_hash = inputs.cfg, inputs.cfg_hash
    _, data, truth, partition = make_instance(cfg, seed, c=float(c))
    run = federation.run_kfed(partition, data, seed, tol=inputs.tol,
                              exclude_devices=inputs.exclude,
                              record_path=inputs.record)
    covered = run.induced.covered()
    result = evaluate_clustering(data[covered], run.induced.assignment[covered],
                                 truth.assignment[covered])
    state_name = (f"state_c{c}_seed{seed}.json" if inputs.several_c
                  else f"state_seed{seed}.json")
    save_state(inputs.out / state_name, run.state, cfg_hash, seed)
    if cfg["experiment"] == "single_run":
        counts = partition.counts_by_cluster(truth.assignment, truth.k)
        participating = [z for z in range(partition.num_devices)
                         if z not in inputs.exclude]
        vanished = np.flatnonzero(counts[participating].sum(axis=0) == 0)
        write_json(inputs.out / f"single_run_seed{seed}.json", {
            "config_hash": cfg_hash, "seed": seed,
            "accuracy": result.accuracy,
            "excluded_devices": sorted(inputs.exclude),
            "vanished_clusters": [int(r) for r in vanished],
            "messages_sent": run.accounting.messages_sent,
        })
    return {
        "run_id": f"{cfg_hash[:8]}-c{c}-s{seed}",
        "config_hash": cfg_hash,
        "seed": seed,
        "experiment": cfg["experiment"],
        "c": float(c),
        "accuracy": result.accuracy,
        "kmeans_cost": result.kmeans_cost,
        "distance_count": run.accounting.pairwise_distance_count,
    }


def _finish_scored(inputs: RunInputs, rows: list[dict]) -> None:
    write_results(inputs.out, rows)
    summary: dict = {"experiment": inputs.cfg["experiment"],
                     "config_hash": inputs.cfg_hash, "rows": []}
    by_c: dict[float, list[float]] = {}
    for row in rows:
        by_c.setdefault(row["c"], []).append(row["accuracy"])
    for c in sorted(by_c):
        mean, std = float(np.mean(by_c[c])), float(np.std(by_c[c]))
        summary["rows"].append({
            "c": c, "seeds": len(by_c[c]),
            "mean_accuracy": mean, "std_accuracy": std,
            "accuracy_pct": f"{100.0 * mean:.2f} ± {100.0 * std:.2f}",
        })
    write_json(inputs.out / "summary.json", summary)
    if len(by_c) > 1:
        xs = sorted(by_c)
        write_line_svg(inputs.out / "c_sweep.svg", xs,
                       {"mean accuracy": [float(np.mean(by_c[c])) for c in xs]},
                       "Accuracy vs separation constant", "c", "accuracy")
    for entry in summary["rows"]:
        print(f"c={entry['c']}: accuracy {entry['accuracy_pct']} "
              f"over {entry['seeds']} seeds")


def _cost_ratio_run(inputs: RunInputs, c, seed: int) -> dict:
    """Structured-vs-IID comparison against the planted clustering's cost."""
    spec, data, truth, structured = make_instance(inputs.cfg, seed, c=float(c))
    oracle_cost = kmeans_cost(data, truth)
    run_s = federation.run_kfed(structured, data, seed, tol=inputs.tol)
    structured_cost = kmeans_cost(data, run_s.induced.assignment)
    z_iid = int(inputs.cfg.get("z_iid", structured.num_devices))
    iid = datagen.iid_partition(spec.n, z_iid, seed)
    iid.annotate_from_labels(truth.assignment, truth.k)
    run_i = federation.run_kfed(iid, data, seed, tol=inputs.tol)
    iid_cost = kmeans_cost(data, run_i.induced.assignment)
    ratio = cost_ratio_report(oracle_cost, structured_cost, iid_cost)
    return {
        "run_id": f"{inputs.cfg_hash[:8]}-ratio-s{seed}",
        "config_hash": inputs.cfg_hash, "seed": seed,
        "experiment": "cost_ratio", "c": float(c),
        "accuracy": ratio.ratio if ratio.ratio is not None else float("nan"),
        "kmeans_cost": structured_cost,
        "distance_count": run_s.accounting.pairwise_distance_count,
        "oracle_cost": oracle_cost, "iid_cost": iid_cost,
        "ratio": ratio.ratio, "degenerate": ratio.degenerate, "note": ratio.note,
    }


def _finish_cost_ratio(inputs: RunInputs, rows: list[dict]) -> None:
    write_results(inputs.out, rows)
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    write_json(inputs.out / "cost_ratio.json", {
        "config_hash": inputs.cfg_hash,
        "rows": [{k: v for k, v in r.items() if k != "experiment"} for r in rows],
        "below_one": sum(1 for r in ratios if r < 1.0),
        "total": len(rows),
    })


def _profile_run(inputs: RunInputs, c, seed: int) -> dict:
    _, data, truth, partition = make_instance(inputs.cfg, seed, c=float(c))
    return profile_instance(data, truth, partition, float(c), inputs.cfg.get("m0"),
                            inputs.out, tag=f"seed{seed}",
                            cfg_hash=inputs.cfg_hash, seed=seed)


@dataclass(frozen=True)
class Experiment:
    """How ``kfed run`` drives one experiment."""

    body: Callable[[RunInputs, float, int], dict]
    finish: Callable[[RunInputs, list[dict]], None] | None
    cannot_honor: tuple[str, ...] = ()  # run flags, by argparse dest


_SCORED = Experiment(_scored_run, _finish_scored)
EXPERIMENTS = {
    "table1": _SCORED,
    "c_sweep": _SCORED,
    "single_run": _SCORED,
    "cost_ratio": Experiment(_cost_ratio_run, _finish_cost_ratio,
                             ("exclude_devices", "record")),
    "separation_profile": Experiment(_profile_run, None,
                                     ("tol", "exclude_devices", "record")),
}


def profile_instance(data, truth, partition, c, m0, out_dir: Path, tag: str,
                     cfg_hash: str = "", seed: int | None = None) -> dict:
    report = separation.separation_quantities(data, truth, partition, c=c, m0=m0)
    proximity = separation.proximity_check(data, truth) if truth.k >= 2 else None
    if proximity is not None:
        report.proximity_violations = proximity.bad_count
    audit = separation.lemma_audit(data, truth, partition)
    blob = report.to_json_dict()
    blob.update({"config_hash": cfg_hash, "seed": seed,
                 "lemma_audit": {
                     "mean_shift_checks": audit.mean_shift_checks,
                     "norm_change_checks": audit.norm_change_checks,
                     "violations": audit.violations,
                     "passed": audit.passed,
                 }})
    write_json(out_dir / f"separation_{tag}.json", blob)
    separation.write_pair_csv(out_dir / f"separation_pairs_{tag}.csv", report)
    return blob


# ---------------------------------------------------------------------------
# subcommand entry points

def _parse_excludes(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as err:
        raise ConfigError(f"--exclude-devices expects a comma list: {text!r}") from err


def _out_dir(cfg: dict, args) -> Path:
    path = Path(args.out or cfg.get("out", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    cfg_hash = config_hash(cfg)
    for seed in _seeds_from(cfg, args):
        spec, data, truth, partition = make_instance(cfg, seed)
        blob = {"config_hash": cfg_hash, "seed": seed,
                "mixture": spec.to_json_dict(),
                "partition": build_partition_spec(cfg).to_json_dict()}
        datagen.save_instance(out / f"seed_{seed}", data, truth, partition, blob)
        print(f"generated seed {seed} -> {out / f'seed_{seed}'}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    experiment = EXPERIMENTS[cfg["experiment"]]
    for dest in experiment.cannot_honor:
        if getattr(args, dest) is not None:
            raise ConfigError(f"{cfg['experiment']} cannot honor "
                              f"--{dest.replace('_', '-')}")
    c_values = cfg.get("c_values")
    if c_values and args.c is not None:
        raise ConfigError("--c conflicts with the config's c_values")
    c_values = c_values or [args.c if args.c is not None else cfg.get("c", 100.0)]
    seeds = _seeds_from(cfg, args)
    if args.record and len(seeds) * len(c_values) > 1:
        raise ConfigError("--record keeps one log, but this config runs several")
    exclude = _parse_excludes(args.exclude_devices)
    if args.replay:
        print(json.dumps(federation.replay_run(args.replay)))
        return EXIT_OK
    inputs = RunInputs(
        cfg=cfg, cfg_hash=config_hash(cfg), out=_out_dir(cfg, args),
        tol=args.tol if args.tol is not None else float(cfg.get("tol", DEFAULT_TOL)),
        exclude=exclude, record=args.record, several_c=len(c_values) > 1)
    rows: list[dict] = []
    failures: list[tuple[int, str]] = []
    for c in c_values:
        for seed in seeds:
            try:
                rows.append(experiment.body(inputs, c, seed))
            except (ValueError, RuntimeError) as err:
                failures.append((seed, str(err)))
    if experiment.finish is not None:
        experiment.finish(inputs, rows)
    for seed, message in failures:
        print(f"seed {seed} failed: {message}", file=sys.stderr)
    return EXIT_PIPELINE if failures else EXIT_OK


def cmd_profile(args) -> int:
    data = datagen.load_data_csv(args.data)
    try:
        labels = datagen.load_labels_csv(args.labels, k=args.k)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if labels.shape[0] != data.shape[0]:
        raise ConfigError(
            f"labels rows ({labels.shape[0]}) do not match data rows ({data.shape[0]})")
    k = args.k if args.k is not None else int(labels.max()) + 1
    truth = Clustering.from_labels(data, labels, k)
    partition = datagen.load_partition_json(args.partition)
    partition.validate(data.shape[0])
    partition.annotate_from_labels(labels, k)
    out = Path(args.out or "profile")
    out.mkdir(parents=True, exist_ok=True)
    blob = profile_instance(data, truth, partition,
                            args.c if args.c is not None else separation.DEFAULT_C,
                            args.m0, out, tag="profile")
    print(json.dumps({"pairs": len(blob["pairs"]),
                      "lemma_audit_passed": blob["lemma_audit"]["passed"],
                      "proximity_violations": blob["proximity_violations"]}))
    return EXIT_OK


def cmd_join(args) -> int:
    state, payload = load_state(args.state)
    data = datagen.load_data_csv(args.data)
    result = local_cluster(data, args.k_z, (args.seed, args.device_id),
                           tol=args.tol if args.tol is not None else DEFAULT_TOL)
    accounting = federation.OpsAccounting()
    centers = federation.DeviceCenters(device_id=args.device_id,
                                       centers=result.centers,
                                       local_assignment=result.clusters.assignment)
    labels_per_center = federation.assign_new_device(state, centers, accounting)
    row_labels = labels_per_center[result.clusters.assignment]
    out = Path(args.out or "join")
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "join_labels.csv", row_labels, fmt="%d")
    write_results(out, [{
        "run_id": f"join-d{args.device_id}-s{args.seed}",
        "config_hash": payload.get("config_hash", ""),
        "seed": args.seed,
        "experiment": "join",
        "c": float("nan"),
        "accuracy": float("nan"),
        "kmeans_cost": float("nan"),
        "distance_count": accounting.pairwise_distance_count,
    }])
    write_json(out / "join.json", {
        "config_hash": payload.get("config_hash", ""),
        "state_seed": payload.get("seed"),
        "device_id": args.device_id,
        "k_z": args.k_z,
        "center_labels": [int(x) for x in labels_per_center],
        "distance_count": accounting.pairwise_distance_count,
    })
    print(f"labeled {data.shape[0]} rows with "
          f"{accounting.pairwise_distance_count} distance computations")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = datagen.load_labels_csv(args.pred)
    truth = datagen.load_labels_csv(args.truth)
    result = matched_accuracy(pred, truth)
    if args.data:
        result.kmeans_cost = kmeans_cost(datagen.load_data_csv(args.data), pred)
    blob = result.to_json_dict()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "eval.json", blob)
    print(json.dumps(blob))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfed",
        description="One-shot federated k-means simulator and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="single seed override")
        p.add_argument("--seeds", help="seed range N..M (inclusive)")

    gen = sub.add_parser("generate", help="write instance files per seed")
    add_common(gen)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute the configured experiment")
    add_common(run)
    run.add_argument("--c", type=float, help="separation constant override")
    run.add_argument("--tol", type=float, help="Lloyd tolerance override")
    run.add_argument("--exclude-devices", help="comma list of device ids to drop")
    run.add_argument("--record", help="record upstream messages to this JSONL file")
    run.add_argument("--replay", help="audit a recorded message log instead of running")
    run.set_defaults(func=cmd_run)

    prof = sub.add_parser("profile", help="separation report for instance files")
    prof.add_argument("--data", required=True)
    prof.add_argument("--labels", required=True)
    prof.add_argument("--partition", required=True)
    prof.add_argument("--k", type=int, help="expected cluster count for label validation")
    prof.add_argument("--c", type=float)
    prof.add_argument("--m0", type=float)
    prof.add_argument("--out")
    prof.set_defaults(func=cmd_profile)

    join = sub.add_parser("join", help="label a late device against saved state")
    join.add_argument("--state", required=True, help="state JSON from a previous run")
    join.add_argument("--data", required=True, help="new device data CSV")
    join.add_argument("--k-z", dest="k_z", type=int, required=True)
    join.add_argument("--device-id", type=int, default=0)
    join.add_argument("--seed", type=int, default=0)
    join.add_argument("--tol", type=float)
    join.add_argument("--out")
    join.set_defaults(func=cmd_join)

    ev = sub.add_parser("eval", help="score predicted labels against truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--data", help="optional data CSV for the k-means cost")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as err:
        print(f"pipeline error: {err}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
