"""kfed benchmark: time library operations on generated instances.

    python3 perfbench/run.py --workload all  # every metric of every workload
    python3 perfbench/run.py --workload table1_large --seed 3 --seconds 30 \
        --trace 0

One workload runs in one process, with ``KFED_THREADS`` unset and BLAS on
one thread: it imports kfed from ``src/`` of the checkout it sits in, runs
one untimed warm-up operation, then times operations for ``--seconds``. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs each instance once untraced and once traced, alternating
which goes first, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object.
``--workload all`` runs every workload in both modes, each in a fresh
process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from math import nan
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import kfed; "
                "print(time.perf_counter() - start)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> dict:
    """Run BLAS on one thread; return the settings found in the environment.

    The load is one process doing one thing at a time. A second BLAS thread
    does not make these small products faster, but it spins on a second
    core, which doubles the CPU time a run takes from a shared machine.
    """
    found = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return found


def import_seconds(in_process: float) -> float:
    """Median import time of kfed: this process and two fresh interpreters."""
    times = [in_process]
    for _ in range(2):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def environment(blas_threads: dict, kfed_threads: str | None) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": 1,
        "blas_threads_found": blas_threads,
        "KFED_THREADS": "unset" if kfed_threads is None
        else f"unset here (was {kfed_threads})",
    }


def run_workload(args, import_s: float, env: dict) -> int:
    from measure import END_TO_END, PER_LAYER, Run
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    run = Run(wl, args.seed, traced=bool(args.trace))
    run.execute(args.seconds)
    if not run.records:
        print("no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        values, units = run.per_layer(), PER_LAYER
    else:
        values, units = run.end_to_end(import_seconds(import_s)), END_TO_END
    env = dict(env, workload=wl.name, workload_seed=args.seed,
               instance_seeds=[r.instance_seed for r in run.records])
    print(json.dumps({"env": env}, sort_keys=True))
    for record in run.records:
        print(json.dumps({"op": record.to_json_dict()}, sort_keys=True))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in run.raw().items():
        print(f"{wl.name:>13} {name:<36} {value:>16.6g} (wall clock, "
              "not a metric)")
    for name, unit in units.items():
        print(f"{wl.name:>13} {name:<36} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; one table."""
    from measure import END_TO_END, PER_LAYER
    from workloads import WORKLOADS
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status = status or (0 if result["correct"] else 1)
            entry = results.setdefault(name, {"metrics": {}})
            entry["metrics"].update(result["metrics"])
            entry[f"trace{trace}"] = {k: result[k] for k in
                                      ("correct", "attempted", "failed")}
    names = list(results)
    print(f"{'metric':<36} {'unit':<7}" + "".join(f"{n:>15}" for n in names))
    for metric, unit in {**END_TO_END, **PER_LAYER}.items():
        cells = "".join(
            f"{results[n]['metrics'].get(metric, {}).get('value', nan):>15.6g}"
            for n in names)
        print(f"{metric:<36} {unit:<7}{cells}")
    for n in names:
        print(f"{n}: " + json.dumps({k: v for k, v in results[n].items()
                                     if k != "metrics"}))
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kfed" / "__init__.py").is_file():
        print(f"kfed sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    kfed_threads = os.environ.pop("KFED_THREADS", None)
    blas_threads = pin_blas_threads()
    start = perf_counter()
    import kfed  # noqa: F401  (timed: part of setup_s)
    import_s = perf_counter() - start
    env = environment(blas_threads, kfed_threads)
    return run_workload(args, import_s, env)


if __name__ == "__main__":
    sys.exit(main())
