"""Smoke test of the benchmark itself, on tiny shapes; a few seconds.

    python3 perfbench/smoke.py

Runs every workload in both modes with shrunken instances and checks that:
each run is correct with no failed operation; it prints exactly the metrics
BENCHMARK.json names, each with its unit; the per-layer self times are
non-negative and add up to the traced operation time; every wrapper fired;
and assignment digests are identical with tracing on and off.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from measure import SELF_TIMES  # noqa: E402

TINY = {
    "table1_large": dict(k=4, d=12, per_cluster=20, m0=2, group_size=2),
    "lowsep_iid": dict(k=3, d=6, per_cluster=30, devices=3),
    "diagnostics": dict(k=4, d=10, per_cluster=20, m0=2, group_size=2),
}


def bench_run(name: str, trace: int) -> tuple[dict, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1",
                         "--seconds", "0.3", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    assert code == 0, f"{name} --trace {trace} exited {code}"
    return json.loads(lines[-1]), lines


def digests(lines: list[str]) -> dict[int, str]:
    ops = [json.loads(line)["op"] for line in lines
           if line.startswith('{"op"')]
    return {op["instance_seed"]: op["digest"] for op in ops}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name, shape in TINY.items():
        workloads.WORKLOADS[name] = replace(workloads.WORKLOADS[name], **shape)

    for name in TINY:
        seen = {}
        for trace in (0, 1):
            result, lines = bench_run(name, trace)
            assert result["correct"] and result["failed"] == 0, result
            metrics = result["metrics"]
            got = {metric: m["unit"] for metric, m in metrics.items()}
            assert got == expected[trace], (name, trace, got)
            for metric, unit in got.items():
                assert any(line.split()[1:2] == [metric]
                           and line.split()[-1] == unit for line in lines), \
                    f"{name}: {metric} not printed with unit {unit}"
            seen[trace] = digests(lines)
            if trace:
                values = {k: m["value"] for k, m in metrics.items()}
                assert values["trace.unfired"] == 0, values
                for metric in SELF_TIMES:
                    assert values[metric] >= 0.0, (name, metric, values)
                total = sum(values[metric] for metric in SELF_TIMES)
                assert abs(total - values["trace.solve_s"]) \
                    <= 1e-9 * values["trace.solve_s"], (name, total, values)
        shared = seen[0].keys() & seen[1].keys()
        assert shared, name
        assert all(seen[0][s] == seen[1][s] for s in shared), (name, seen)
        print(f"smoke: {name} ok ({len(shared)} instances compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
