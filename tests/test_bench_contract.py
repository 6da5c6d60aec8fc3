"""The library surface the benchmark in ``perfbench/`` reads.

The benchmark imports kfed by module attribute and record field; a rename
in the library would otherwise surface only when the benchmark runs. This
drives its workloads' build, operation and record steps on the tiny shapes
of ``perfbench/smoke.py``.
"""

import importlib
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from smoke import TINY  # noqa: E402


def _no_span(name):
    return nullcontext()


@pytest.mark.parametrize("module,attr", [t[:2] for t in tracing.TARGETS])
def test_traced_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_operation_records_cleanly(name):
    wl = replace(workloads.WORKLOADS[name], **TINY[name])
    inst = workloads.build_instance(wl, workloads.instance_seed(1, 0), _no_span)
    tracer = tracing.Tracer()
    with tracer.operation():
        output = workloads.run_operation(wl, inst, _no_span)
    assert tracer.unfired(wl.operation) == []
    record = workloads.record_operation(wl, inst, output)
    assert record.problems == []
    assert workloads.run_problems(wl, [record]) == []
