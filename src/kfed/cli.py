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
from pathlib import Path

import numpy as np

from . import datagen, federation, separation
from .datagen import MixtureSpec, PartitionSpec
from .evaluation import cost_ratio_report, kmeans_cost, matched_accuracy
from .federation import canonical_json
from .local import DEFAULT_TOL, Clustering, local_cluster

CONFIG_VERSION = 1
KNOWN_EXPERIMENTS = ("table1", "c_sweep", "cost_ratio", "separation_profile",
                     "single_run")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Bad config or malformed input file; maps to exit code 2."""


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    if cfg.get("experiment") not in KNOWN_EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {KNOWN_EXPERIMENTS}")
    if "mixture" not in cfg or "k" not in cfg["mixture"] or "d" not in cfg["mixture"]:
        raise ConfigError("config needs mixture.k and mixture.d")
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
            return list(range(int(lo), int(hi) + 1))
        except ValueError as err:
            raise ConfigError(f"--seeds expects N..M, got {spec!r}") from err
    return [int(s) for s in cfg.get("seeds", [0])]


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


def append_result_row(out_dir: Path, row: dict) -> None:
    path = out_dir / "results.csv"
    fresh = not path.exists()
    with open(path, "a") as handle:
        if fresh:
            handle.write(_RESULTS_HEADER + "\n")
        handle.write("{run_id},{config_hash},{seed},{experiment},{c!r},"
                     "{accuracy!r},{kmeans_cost!r},{distance_count}\n".format(**row))


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


def _fmt_pct(mean: float, std: float) -> str:
    return f"{100.0 * mean:.2f} ± {100.0 * std:.2f}"


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
    payload["checksum"] = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    write_json(path, payload)


def load_state(path) -> tuple[federation.AggregationState, dict]:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as err:
        raise ConfigError("no aggregation state") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"state file is not valid JSON: {err}") from err
    recorded = payload.pop("checksum", None)
    expected = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    if recorded != expected:
        raise ConfigError("state file checksum mismatch")
    state = federation.AggregationState(
        cluster_means=np.asarray(payload["tau_means"], dtype=float),
        k=int(payload["k"]))
    return state, payload


# ---------------------------------------------------------------------------
# experiment drivers

def run_single_seed(cfg: dict, seed: int, c: float | None = None,
                    tol: float | None = None,
                    exclude_devices: tuple[int, ...] = (),
                    record_path=None):
    """One full pipeline run; returns (run, eval result, truth, partition)."""
    _, data, truth, partition = make_instance(cfg, seed, c=c)
    run = federation.run_kfed(partition, data, seed,
                              tol=tol if tol is not None else float(cfg.get("tol", DEFAULT_TOL)),
                              exclude_devices=exclude_devices,
                              record_path=record_path)
    covered = run.induced.covered()
    result = matched_accuracy(run.induced.assignment[covered],
                              truth.assignment[covered])
    result.kmeans_cost = kmeans_cost(data[covered],
                                     run.induced.assignment[covered])
    return run, result, truth, partition, data


def _c_sweep(cfg: dict, args) -> list:
    """The separation constants an accuracy-style experiment runs."""
    if cfg["experiment"] == "c_sweep" and cfg.get("c_values"):
        return cfg["c_values"]
    c_override = getattr(args, "c", None)
    return [c_override if c_override is not None else cfg.get("c", 100.0)]


def _experiment_rows(cfg: dict, seeds: list[int], args, out_dir: Path) -> tuple[list[dict], list[tuple[int, str]]]:
    """Per-seed pipeline rows for the accuracy-style experiments."""
    cfg_hash = config_hash(cfg)
    experiment = cfg["experiment"]
    exclude = _parse_excludes(getattr(args, "exclude_devices", None))
    tol = getattr(args, "tol", None)
    record = getattr(args, "record", None)
    rows: list[dict] = []
    failures: list[tuple[int, str]] = []
    for c in _c_sweep(cfg, args):
        for seed in seeds:
            try:
                run, result, truth, partition, data = run_single_seed(
                    cfg, seed, c=float(c), tol=tol, exclude_devices=exclude,
                    record_path=record)
            except (ValueError, RuntimeError) as err:
                failures.append((seed, str(err)))
                continue
            row = {
                "run_id": f"{cfg_hash[:8]}-c{c}-s{seed}",
                "config_hash": cfg_hash,
                "seed": seed,
                "experiment": experiment,
                "c": float(c),
                "accuracy": result.accuracy,
                "kmeans_cost": result.kmeans_cost,
                "distance_count": run.accounting.pairwise_distance_count,
            }
            rows.append(row)
            append_result_row(out_dir, row)
            save_state(out_dir / f"state_seed{seed}.json", run.state, cfg_hash, seed)
            if experiment == "single_run":
                counts = partition.counts_by_cluster(truth.assignment, truth.k)
                participating = [z for z in range(partition.num_devices)
                                 if z not in exclude]
                vanished = np.flatnonzero(counts[participating].sum(axis=0) == 0)
                write_json(out_dir / f"single_run_seed{seed}.json", {
                    "config_hash": cfg_hash, "seed": seed,
                    "accuracy": result.accuracy,
                    "excluded_devices": sorted(exclude),
                    "vanished_clusters": [int(r) for r in vanished],
                    "messages_sent": run.accounting.messages_sent,
                })
    return rows, failures


def _summarize(rows: list[dict], cfg: dict, out_dir: Path) -> dict:
    cfg_hash = config_hash(cfg)
    summary: dict = {"experiment": cfg["experiment"], "config_hash": cfg_hash,
                     "rows": []}
    by_c: dict[float, list[float]] = {}
    for row in rows:
        by_c.setdefault(row["c"], []).append(row["accuracy"])
    for c in sorted(by_c):
        accs = np.asarray(by_c[c])
        summary["rows"].append({
            "c": c, "seeds": len(accs),
            "mean_accuracy": float(accs.mean()),
            "std_accuracy": float(accs.std()),
            "accuracy_pct": _fmt_pct(float(accs.mean()), float(accs.std())),
        })
    write_json(out_dir / "summary.json", summary)
    if cfg["experiment"] == "c_sweep" and len(by_c) > 1:
        xs = sorted(by_c)
        write_line_svg(out_dir / "c_sweep.svg", xs,
                       {"mean accuracy": [float(np.mean(by_c[c])) for c in xs]},
                       "Accuracy vs separation constant", "c", "accuracy")
    return summary


def run_cost_ratio(cfg: dict, seeds: list[int], out_dir: Path) -> tuple[list[dict], list[tuple[int, str]]]:
    """Structured-vs-IID comparison against the planted clustering's cost."""
    cfg_hash = config_hash(cfg)
    tol = float(cfg.get("tol", DEFAULT_TOL))
    rows: list[dict] = []
    failures: list[tuple[int, str]] = []
    for seed in seeds:
        try:
            spec, data, truth, structured = make_instance(cfg, seed)
            oracle_cost = kmeans_cost(data, truth)
            run_s = federation.run_kfed(structured, data, seed, tol=tol)
            structured_cost = kmeans_cost(data, run_s.induced.assignment)
            z_iid = int(cfg.get("z_iid", structured.num_devices))
            iid = datagen.iid_partition(spec.n, z_iid, seed)
            iid.annotate_from_labels(truth.assignment, truth.k)
            run_i = federation.run_kfed(iid, data, seed, tol=tol)
            iid_cost = kmeans_cost(data, run_i.induced.assignment)
        except (ValueError, RuntimeError) as err:
            failures.append((seed, str(err)))
            continue
        ratio = cost_ratio_report(oracle_cost, structured_cost, iid_cost)
        row = {
            "run_id": f"{cfg_hash[:8]}-ratio-s{seed}",
            "config_hash": cfg_hash, "seed": seed,
            "experiment": "cost_ratio", "c": float(cfg.get("c", 100.0)),
            "accuracy": ratio.ratio if ratio.ratio is not None else float("nan"),
            "kmeans_cost": structured_cost,
            "distance_count": run_s.accounting.pairwise_distance_count,
        }
        rows.append({**row, "oracle_cost": oracle_cost, "iid_cost": iid_cost,
                     "ratio": ratio.ratio, "degenerate": ratio.degenerate,
                     "note": ratio.note})
        append_result_row(out_dir, row)
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    write_json(out_dir / "cost_ratio.json", {
        "config_hash": cfg_hash,
        "rows": [{k: v for k, v in r.items() if k != "experiment"} for r in rows],
        "below_one": sum(1 for r in ratios if r < 1.0),
        "total": len(rows),
    })
    return rows, failures


def run_separation_profile(cfg: dict, seeds: list[int], out_dir: Path) -> list[dict]:
    results = []
    for seed in seeds:
        _, data, truth, partition = make_instance(cfg, seed)
        results.append(profile_instance(
            data, truth, partition, float(cfg.get("c", separation.DEFAULT_C)),
            cfg.get("m0"), out_dir, tag=f"seed{seed}",
            cfg_hash=config_hash(cfg), seed=seed))
    return results


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
    out = getattr(args, "out", None) or cfg.get("out", "results")
    path = Path(out)
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
    seeds = _seeds_from(cfg, args)
    if getattr(args, "record", None) and len(seeds) * len(_c_sweep(cfg, args)) > 1:
        raise ConfigError("--record keeps one log, but this config runs several")
    out = _out_dir(cfg, args)
    if getattr(args, "replay", None):
        audit = federation.replay_run(args.replay)
        print(json.dumps(audit))
        return EXIT_OK
    if cfg["experiment"] == "cost_ratio":
        rows, failures = run_cost_ratio(cfg, seeds, out)
    elif cfg["experiment"] == "separation_profile":
        run_separation_profile(cfg, seeds, out)
        rows, failures = [], []
    else:
        rows, failures = _experiment_rows(cfg, seeds, args, out)
        summary = _summarize(rows, cfg, out)
        for entry in summary["rows"]:
            print(f"c={entry['c']}: accuracy {entry['accuracy_pct']} "
                  f"over {entry['seeds']} seeds")
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
    append_result_row(out, {
        "run_id": f"join-d{args.device_id}-s{args.seed}",
        "config_hash": payload.get("config_hash", ""),
        "seed": args.seed,
        "experiment": "join",
        "c": float("nan"),
        "accuracy": float("nan"),
        "kmeans_cost": float("nan"),
        "distance_count": accounting.pairwise_distance_count,
    })
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
