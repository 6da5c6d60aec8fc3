"""Command-line experiment harness.

Subcommands: generate, run, replay, profile, join, eval. A JSON config describes
the instance family and experiment; every output file embeds the config
hash and seed so equal (config, seed) pairs reproduce byte-identical
result rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import datagen, federation, separation
from .datagen import MixtureSpec, PartitionSpec
from .evaluation import cost_ratio_report, kmeans_cost, matched_accuracy
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


def _mixture_spec(cfg: dict, seed: int, c) -> MixtureSpec:
    mixture = cfg["mixture"]
    return MixtureSpec(
        k=mixture["k"], d=mixture["d"], n=mixture["per_cluster"] * mixture["k"],
        sigma_max=float(mixture["sigma_max"]), seed=seed, weights=mixture["weights"],
        mean_mode=mixture["mean_mode"], c=float(c), m0=mixture["m0"])


def _check_finite_mixture(cfg: dict, c, given: str) -> None:
    """Raise unless the mixture at separation ``c`` (named ``given``) is
    finite for every seed (``datagen.mixture_bound``)."""
    if not math.isfinite(datagen.mixture_bound(_mixture_spec(cfg, 0, c))):
        raise ConfigError(f"{given} with mixture.sigma_max = "
                          f"{cfg['mixture']['sigma_max']} puts the mixture "
                          f"or its cluster sums beyond the float range")


def make_instance(cfg: dict, seed: int, c):
    """Generate (spec, data, truth, partition) for one seed of a loaded config."""
    partition = cfg["partition"]
    spec = _mixture_spec(cfg, seed, c)
    data, truth = datagen.generate_mixture(spec)
    if partition["mode"] == "structured":
        devices = datagen.structured_partition(truth, PartitionSpec(
            mode="structured", m0=partition["m0"], group_size=partition["group_size"]))
    else:
        devices = datagen.iid_partition(spec.n, partition["Z"], seed)
        devices.annotate_from_labels(truth.assignment, truth.k)
    return spec, data, truth, devices


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


def write_line_svg(path: Path, xs: list[float], ys: list[float], label: str,
                   title: str, xlabel: str, ylabel: str) -> None:
    """Tiny dependency-free SVG chart of one labeled line (batch artifact, not a UI)."""
    width, height, pad = 640, 420, 60
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
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
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts += [f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
              f'<text x="{width-pad+4}" y="{sy(ys[-1]):.2f}" font-size="11" '
              f'fill="#1f77b4">{label}</text>',
              "</svg>"]
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# run-state persistence for late joins

def save_state(path: Path, cluster_means: np.ndarray, cfg_hash: str,
               seed: int) -> None:
    """Write the k retained group means, the one thing a late join needs."""
    payload = {
        "version": CONFIG_VERSION,
        "config_hash": cfg_hash,
        "seed": seed,
        "k": cluster_means.shape[0],
        "d": cluster_means.shape[1],
        "tau_means": [[float(x) for x in row] for row in cluster_means],
    }
    payload["checksum"] = _sha256(payload)
    write_json(path, payload)


def load_state(path) -> tuple[np.ndarray, dict]:
    """The (k, d) group means and the payload of a ``save_state`` file."""
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
    return means, payload


# ---------------------------------------------------------------------------
# experiments: one body per (c, seed) run, one finisher per experiment

# Bodies and finishers take the loaded config with cmd_run's flags folded in:
# out, tol, exclude_devices, record, and several_c (c in state file names).

def _scored_run(cfg: dict, c, seed: int) -> dict:
    """One pipeline run scored against the planted clustering."""
    _, data, truth, partition = make_instance(cfg, seed, c)
    exclude = cfg["exclude_devices"]
    run = federation.run_kfed(partition, data, seed, tol=cfg["tol"],
                              exclude_devices=exclude)
    if cfg["record"]:
        federation.record_run(cfg["record"], run)
    covered = run.induced.covered()
    pred = run.induced.assignment[covered]
    accuracy = matched_accuracy(pred, truth.assignment[covered]).accuracy
    state_name = (f"state_c{c}_seed{seed}.json" if cfg["several_c"]
                  else f"state_seed{seed}.json")
    save_state(cfg["out"] / state_name, run.induced.cluster_means, cfg["hash"],
               seed)
    if cfg["experiment"] == "single_run":
        counts = partition.counts_by_cluster(truth.assignment, truth.k)
        vanished = np.flatnonzero(counts[list(run.local_results)].sum(axis=0) == 0)
        write_json(cfg["out"] / f"single_run_seed{seed}.json", {
            "config_hash": cfg["hash"], "seed": seed,
            "accuracy": accuracy,
            "excluded_devices": list(exclude),
            "vanished_clusters": [int(r) for r in vanished],
            "messages_sent": run.accounting.messages_sent,
        })
    return {
        "run_id": f"{cfg['hash'][:8]}-c{c}-s{seed}",
        "config_hash": cfg["hash"],
        "seed": seed,
        "experiment": cfg["experiment"],
        "c": float(c),
        "accuracy": accuracy,
        "kmeans_cost": kmeans_cost(data[covered], pred),
        "distance_count": run.accounting.pairwise_distance_count,
    }


def _finish_scored(cfg: dict, rows: list[dict]) -> None:
    write_results(cfg["out"], rows)
    summary: dict = {"experiment": cfg["experiment"],
                     "config_hash": cfg["hash"], "rows": []}
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
    write_json(cfg["out"] / "summary.json", summary)
    if len(by_c) > 1:
        xs = sorted(by_c)
        write_line_svg(cfg["out"] / "c_sweep.svg", xs,
                       [float(np.mean(by_c[c])) for c in xs], "mean accuracy",
                       "Accuracy vs separation constant", "c", "accuracy")
    for entry in summary["rows"]:
        print(f"c={entry['c']}: accuracy {entry['accuracy_pct']} "
              f"over {entry['seeds']} seeds")


def _cost_ratio_run(cfg: dict, c, seed: int) -> dict:
    """Structured-vs-IID comparison against the planted clustering's cost."""
    spec, data, truth, structured = make_instance(cfg, seed, c)
    oracle_cost = kmeans_cost(data, truth)
    run_s = federation.run_kfed(structured, data, seed, tol=cfg["tol"])
    structured_cost = kmeans_cost(data, run_s.induced.assignment)
    z_iid = structured.num_devices if cfg["z_iid"] is None else cfg["z_iid"]
    iid = datagen.iid_partition(spec.n, z_iid, seed)
    iid.annotate_from_labels(truth.assignment, truth.k)
    run_i = federation.run_kfed(iid, data, seed, tol=cfg["tol"])
    iid_cost = kmeans_cost(data, run_i.induced.assignment)
    ratio = cost_ratio_report(oracle_cost, structured_cost, iid_cost)
    return {
        "run_id": f"{cfg['hash'][:8]}-c{c}-ratio-s{seed}",
        "config_hash": cfg["hash"], "seed": seed,
        "experiment": "cost_ratio", "c": float(c),
        "accuracy": ratio.ratio if ratio.ratio is not None else float("nan"),
        "kmeans_cost": structured_cost,
        "distance_count": run_s.accounting.pairwise_distance_count,
        "oracle_cost": oracle_cost, "iid_cost": iid_cost,
        "ratio": ratio.ratio, "degenerate": ratio.degenerate, "note": ratio.note,
    }


def _finish_cost_ratio(cfg: dict, rows: list[dict]) -> None:
    write_results(cfg["out"], rows)
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    write_json(cfg["out"] / "cost_ratio.json", {
        "config_hash": cfg["hash"],
        "rows": [{k: v for k, v in r.items() if k != "experiment"} for r in rows],
        "below_one": sum(1 for r in ratios if r < 1.0),
        "total": len(rows),
    })


def _profile_run(cfg: dict, c, seed: int) -> dict:
    _, data, truth, partition = make_instance(cfg, seed, c)
    return profile_instance(data, truth, partition, float(c), cfg["m0"],
                            cfg["out"], tag=f"seed{seed}",
                            cfg_hash=cfg["hash"], seed=seed)


@dataclass(frozen=True)
class Experiment:
    """How ``kfed run`` drives one experiment."""

    body: Callable[[dict, float, int], dict]
    finish: Callable[[dict, list[dict]], None] | None
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
# the config: every key with its type and default, read once

# Types: "int" (>= 0), "count" (an int >= 1), "number" (a finite JSON number,
# kept as written: c prints as the config spells it), "number>=0",
# "number>0" (the separation constant c, positive as in the paper), "str",
# "[int]" (a list) or an "a|b" choice. Nested keys are written "mixture.k";
# ... is required.
_SCHEMA = {
    "version": ("int", ...),
    "experiment": ("|".join(EXPERIMENTS), ...),
    "out": ("str", "results"),
    "seeds": ("[int]", [0]),
    "c": ("number>0", separation.DEFAULT_C),
    "c_values": ("[number>0]", None),         # c_sweep only
    "m0": ("number>=0", None),                # None: the profile estimates it
    "tol": ("number>=0", DEFAULT_TOL),
    "z_iid": ("count", None),                 # None: as many as structured
    "mixture.k": ("count", ...),
    "mixture.d": ("count", ...),
    "mixture.per_cluster": ("count", 200),
    "mixture.sigma_max": ("number>=0", 1.0),
    "mixture.weights": ("[number]", None),    # None: uniform
    "mixture.mean_mode": ("auto|sigma", "auto"),
    "partition.mode": ("structured|iid", "structured"),
    "partition.m0": ("count", None),          # None: int(m0)
    "partition.Z": ("count", None),           # iid only, and required there
    "partition.group_size": ("count", None),  # None: round(sqrt(k))
}
_IS = {"int": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
       "count": lambda v: _IS["int"](v) and v > 0,
       "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                            and abs(v) <= sys.float_info.max),  # not NaN or inf
       "number>=0": lambda v: _IS["number"](v) and v >= 0,
       "number>0": lambda v: _IS["number"](v) and v > 0,
       "str": lambda v: isinstance(v, str)}


def _valid(value, kind: str) -> bool:
    if kind.startswith("["):
        return isinstance(value, list) and all(_valid(v, kind[1:-1]) for v in value)
    return value in kind.split("|") if "|" in kind else _IS[kind](value)


def load_config(path) -> dict:
    """Read a config file, check every key against ``_SCHEMA``, fill the defaults.

    Cross-key checks follow: a component without rows, or a partition the
    instance cannot hold, fails here rather than once per seed. The result
    nests like the file and holds every schema key, plus ``hash``: the
    hash of the file's JSON as written.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    given = {}  # (key,) or (section, key) -> value
    for key, value in raw.items():
        if key not in ("mixture", "partition"):
            given[(key,)] = value
        elif isinstance(value, dict):
            given.update(((key, sub), item) for sub, item in value.items())
        else:
            raise ConfigError(f"config key {key} must be an object")
    cfg: dict = {"hash": config_hash(raw), "mixture": {}, "partition": {}}
    for key, (kind, default) in _SCHEMA.items():
        path = tuple(key.split("."))
        value = given.pop(path, default)
        if value is ...:
            raise ConfigError(f"config needs {key}")
        if not (value is None and default is None or _valid(value, kind)):
            raise ConfigError(f"config key {key} must be {kind}, got {value!r}")
        (cfg[path[0]] if len(path) == 2 else cfg)[path[-1]] = value
    if given:
        raise ConfigError(f"unknown config key {'.'.join(next(iter(given)))}")
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    if cfg["c_values"] is not None and cfg["experiment"] != "c_sweep":
        raise ConfigError("only the c_sweep experiment reads c_values")
    if cfg["z_iid"] is not None and cfg["experiment"] != "cost_ratio":
        raise ConfigError("only the cost_ratio experiment reads z_iid")
    if "tol" in raw and cfg["experiment"] == "separation_profile":
        raise ConfigError("the separation_profile experiment reads no tol")
    mixture, partition = cfg["mixture"], cfg["partition"]
    if partition["mode"] == "iid":
        if partition["Z"] is None:
            raise ConfigError("an iid partition needs partition.Z")
        for key in ("m0", "group_size"):    # both still unfilled here
            if partition[key] is not None:
                raise ConfigError(f"only a structured partition reads partition.{key}")
        if cfg["experiment"] == "cost_ratio":
            raise ConfigError("cost_ratio compares a structured partition with an "
                              "iid one, so it needs partition.mode structured")
    elif partition["Z"] is not None:
        raise ConfigError("only an iid partition reads partition.Z")
    try:
        weights = datagen.resolve_weights(mixture["weights"], mixture["k"])
    except ValueError as err:
        raise ConfigError(f"config key mixture.weights: {err}") from err
    if mixture["k"] > mixture["d"]:
        raise ConfigError("mean placement puts each mean on its own axis, so "
                          "mixture.k must be at most mixture.d")
    # Without m0 the instance is built for m0 = 5 (placement and split).
    mixture["m0"] = float(5 if cfg["m0"] is None else cfg["m0"])
    if partition["m0"] is None:
        partition["m0"] = int(mixture["m0"])
    n = mixture["per_cluster"] * mixture["k"]
    smallest = int(datagen.balanced_counts(weights, n).min())
    if smallest < 1:
        raise ConfigError(f"config key mixture.weights leaves a component "
                          f"without rows at per_cluster * k = {n}")
    if partition["mode"] == "structured" and not 1 <= partition["m0"] <= smallest:
        raise ConfigError(f"config key partition.m0 = {partition['m0']} must be "
                          f"between 1 and the smallest component size, {smallest}")
    if partition["mode"] == "iid" and partition["Z"] > n:
        raise ConfigError(f"config key partition.Z = {partition['Z']} exceeds "
                          f"the {n} rows")
    if cfg["experiment"] == "cost_ratio" and (cfg["z_iid"] or 0) > n:
        raise ConfigError(f"config key z_iid = {cfg['z_iid']} exceeds the {n} rows")
    _check_finite_mixture(cfg, cfg["c"], f"config key c = {cfg['c']}")
    for c in cfg["c_values"] or []:
        _check_finite_mixture(cfg, c, f"config key c_values entry {c}")
    return cfg


def _seeds_from(cfg: dict, args) -> list[int]:
    if args.seed is not None:
        return [args.seed]
    seeds = cfg["seeds"] if args.seeds is None else args.seeds
    if not seeds:
        raise ConfigError("no seeds to run")
    return seeds


# ---------------------------------------------------------------------------
# subcommand entry points

def _seed_range(text: str) -> list[int]:
    """``N..M`` -> seeds N to M inclusive; each bound follows the seeds' rule."""
    lo, hi = map(_flag("int"), text.split(".."))
    return list(range(lo, hi + 1))


def _flag(kind: str):
    """An argparse type holding a flag to its config key's rule ``_IS[kind]``:
    a value the rule rejects makes argparse exit 2 before any write."""
    convert = int if kind in ("int", "count") else float

    def parse(text: str):
        value = convert(text)
        if not _IS[kind](value):
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text}")
        return value
    parse.__name__ = kind  # argparse names it in "invalid <kind> value"
    return parse


def _device_list(text: str) -> tuple[int, ...]:
    return tuple(sorted({int(tok) for tok in text.split(",") if tok.strip() != ""}))


def _check_exclusions(cfg: dict, excluded: tuple[int, ...]) -> None:
    """Every excluded id names a device of the instance, and one device is left."""
    partition = cfg["partition"]
    if partition["mode"] == "iid":
        devices = partition["Z"]
    else:
        groups = datagen.component_groups(cfg["mixture"]["k"], partition["group_size"])
        devices = len(groups) * partition["m0"]
    unknown = [z for z in excluded if not 0 <= z < devices]
    if unknown:
        raise ConfigError(f"--exclude-devices names device {unknown[0]}, but the "
                          f"instance has devices 0..{devices - 1}")
    if len(excluded) == devices:
        raise ConfigError("--exclude-devices names every device")


def _out_dir(path) -> Path:
    """``path`` as an output directory, made if missing; one that already
    holds anything is refused, so that no run overwrites or mixes in
    another's outputs."""
    path = Path(path)
    if path.is_dir() and any(path.iterdir()):
        raise ConfigError(f"output directory {path} is not empty")
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    seeds = _seeds_from(cfg, args)
    out = _out_dir(args.out or cfg["out"])
    for seed in seeds:
        spec, data, truth, partition = make_instance(cfg, seed, cfg["c"])
        blob = {"config_hash": cfg["hash"], "seed": seed,
                "mixture": spec.to_json_dict(), "partition": cfg["partition"]}
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
    if cfg["c_values"] and args.c is not None:
        raise ConfigError("--c conflicts with the config's c_values")
    if args.c is not None:
        _check_finite_mixture(cfg, args.c, f"--c {args.c}")
    c_values = cfg["c_values"] or [args.c if args.c is not None else cfg["c"]]
    seeds = _seeds_from(cfg, args)
    if args.record and len(seeds) * len(c_values) > 1:
        raise ConfigError("--record keeps one log, but this config runs several")
    if args.record and Path(args.record).exists():
        raise ConfigError(f"--record {args.record} already exists")
    if args.exclude_devices:
        _check_exclusions(cfg, args.exclude_devices)
    cfg.update(out=_out_dir(args.out or cfg["out"]),
               tol=args.tol if args.tol is not None else float(cfg["tol"]),
               exclude_devices=args.exclude_devices or (), record=args.record,
               several_c=len(c_values) > 1)
    rows: list[dict] = []
    failures: list[tuple[int, str]] = []
    for c in c_values:
        for seed in seeds:
            try:
                rows.append(experiment.body(cfg, c, seed))
            except (ValueError, RuntimeError) as err:
                failures.append((seed, str(err)))
    if experiment.finish is not None:
        experiment.finish(cfg, rows)
    for seed, message in failures:
        print(f"seed {seed} failed: {message}", file=sys.stderr)
    return EXIT_PIPELINE if failures else EXIT_OK


def cmd_replay(args) -> int:
    print(json.dumps(federation.replay_run(args.log)))
    return EXIT_OK


def _read(load, path, *args):
    """``load(path, *args)``; a malformed input file is a ConfigError naming it."""
    try:
        return load(path, *args)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def cmd_profile(args) -> int:
    data = _read(datagen.load_data_csv, args.data)
    labels = _read(datagen.load_labels_csv, args.labels, args.k)
    if labels.shape[0] != data.shape[0]:
        raise ConfigError(f"{args.labels} has {labels.shape[0]} rows, but "
                          f"{args.data} has {data.shape[0]}")
    k = args.k if args.k is not None else int(labels.max()) + 1
    try:
        truth = Clustering.from_labels(data, labels, k)
    except ValueError as err:  # a label outside [0, k), or a cluster without rows
        raise ConfigError(f"{args.labels}: {err}") from err
    partition = _read(datagen.load_partition_json, args.partition, data.shape[0])
    partition.annotate_from_labels(labels, k)
    blob = profile_instance(data, truth, partition,
                            args.c if args.c is not None else separation.DEFAULT_C,
                            args.m0, _out_dir(args.out or "profile"), tag="profile")
    print(json.dumps({"pairs": len(blob["pairs"]),
                      "lemma_audit_passed": blob["lemma_audit"]["passed"],
                      "proximity_violations": blob["proximity_violations"]}))
    return EXIT_OK


def cmd_join(args) -> int:
    means, payload = load_state(args.state)
    data = _read(datagen.load_data_csv, args.data)
    if data.shape[1] != means.shape[1]:
        raise ConfigError(f"{args.data}: rows have {data.shape[1]} columns, but "
                          f"the state's group means have {means.shape[1]}")
    if args.k_z > data.shape[0]:
        raise ConfigError(f"{args.data}: --k-z {args.k_z} exceeds its "
                          f"{data.shape[0]} rows")
    out = _out_dir(args.out or "join")
    result = local_cluster(data, args.k_z, (args.seed, args.device_id), tol=args.tol)
    accounting = federation.OpsAccounting()
    labels_per_center = federation.assign_new_device(means, result.centers,
                                                     accounting=accounting)
    row_labels = labels_per_center[result.clusters.assignment]
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
    pred = _read(datagen.load_labels_csv, args.pred)
    truth = _read(datagen.load_labels_csv, args.truth)
    if pred.shape != truth.shape:
        raise ConfigError(f"{args.pred} and {args.truth} differ in length")
    result = matched_accuracy(pred, truth)
    if args.data:
        data = _read(datagen.load_data_csv, args.data)
        if data.shape[0] != pred.shape[0]:
            raise ConfigError(f"{args.data} has {data.shape[0]} rows, but the "
                              f"labels have {pred.shape[0]}")
        result.kmeans_cost = kmeans_cost(data, pred)
    blob = result.to_json_dict()
    if args.out:
        write_json(_out_dir(args.out) / "eval.json", blob)
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
        seeds = p.add_mutually_exclusive_group()
        seeds.add_argument("--seed", type=_flag("int"), help="single seed override")
        seeds.add_argument("--seeds", type=_seed_range, help="seed range N..M (inclusive)")

    gen = sub.add_parser("generate", help="write instance files per seed")
    add_common(gen)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute the configured experiment")
    add_common(run)
    run.add_argument("--c", type=_flag("number>0"), help="separation constant override")
    run.add_argument("--tol", type=_flag("number>=0"), help="Lloyd tolerance override")
    run.add_argument("--exclude-devices", type=_device_list,
                     help="comma list of device ids to drop")
    run.add_argument("--record", help="record upstream messages to this JSONL file")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="audit a recorded message log")
    replay.add_argument("--log", required=True, help="JSONL log written by run --record")
    replay.set_defaults(func=cmd_replay)

    prof = sub.add_parser("profile", help="separation report for instance files")
    prof.add_argument("--data", required=True)
    prof.add_argument("--labels", required=True)
    prof.add_argument("--partition", required=True)
    prof.add_argument("--k", type=_flag("count"),
                      help="expected cluster count for label validation")
    prof.add_argument("--c", type=_flag("number>0"))
    prof.add_argument("--m0", type=_flag("number>=0"))
    prof.add_argument("--out")
    prof.set_defaults(func=cmd_profile)

    join = sub.add_parser("join", help="label a late device against saved state")
    join.add_argument("--state", required=True, help="state JSON from a previous run")
    join.add_argument("--data", required=True, help="new device data CSV")
    join.add_argument("--k-z", dest="k_z", type=_flag("count"), required=True)
    join.add_argument("--device-id", type=_flag("int"), default=0)
    join.add_argument("--seed", type=_flag("int"), default=0)
    join.add_argument("--tol", type=_flag("number>=0"), default=DEFAULT_TOL)
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
    except (ValueError, RuntimeError, MemoryError) as err:
        print(f"pipeline error: {err}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
