"""Spans around kfed's layer boundaries, recorded from outside the library.

The tracer wraps public functions at the module attribute their caller looks
them up by, so the library itself is untouched: ``run_kfed`` finds the
wrapped ``local_cluster`` in ``kfed.federation``, ``local_cluster`` finds the
wrapped ``top_k_projection`` in ``kfed.local``, and so on. The wrappers are
installed only for the length of one traced operation. Spans stay in memory
and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module the caller looks the name up in, attribute, span name, operation
# whose calls go through it)
TARGETS = (
    ("kfed.local", "top_k_projection", "linalg.top_k_projection", "pipeline"),
    ("kfed.local", "approx_seed", "local.approx_seed", "pipeline"),
    ("kfed.local", "threshold_assign", "local.threshold_assign", "pipeline"),
    ("kfed.federation", "local_cluster", "local.local_cluster", "pipeline"),
    ("kfed.federation", "farthest_point_init",
     "federation.farthest_point_init", "pipeline"),
    ("kfed.federation", "one_round_lloyd", "federation.one_round_lloyd",
     "pipeline"),
    ("kfed.separation", "operator_norm", "linalg.operator_norm",
     "diagnostics"),
)

OP_SPAN = "op"


class Tracer:
    """In-memory spans: name, start, end, parent span and owning operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def operation(self):
        """One traced operation: wrappers installed, under a root span."""
        saved = []
        try:
            for module_name, attr, span_name, _ in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue  # shows up as a wrapper that never fired
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            self._op = len(self.names)
            with self.span(OP_SPAN):
                yield
        finally:
            self._op = -1
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def last_duration(self) -> float:
        """Length of the most recent operation's root span."""
        idx = max(i for i, name in enumerate(self.names) if name == OP_SPAN)
        return self.ends[idx] - self.starts[idx]

    def summary(self) -> dict:
        """Per-name totals over traced operations, plus derived self times.

        Times are means per traced operation (datagen spans: per instance
        built). Call counts are those of the first traced operation, so they
        are exact for a given seed however many operations the run fitted.
        """
        duration = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(duration)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += duration[idx]
        self_time = [d - c for d, c in zip(duration, child_time)]
        roots = [i for i, name in enumerate(self.names) if name == OP_SPAN]
        n_ops = max(len(roots), 1)
        first = roots[0] if roots else None

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        instances: dict[str, int] = {}
        slowest_device: dict[int, float] = {}
        for idx, name in enumerate(self.names):
            total[name] = total.get(name, 0.0) + duration[idx]
            own[name] = own.get(name, 0.0) + self_time[idx]
            if self.ops[idx] < 0:
                instances[name] = instances.get(name, 0) + 1
            elif self.ops[idx] == first:
                calls[name] = calls.get(name, 0) + 1
            if name == "local.local_cluster":
                op = self.ops[idx]
                slowest_device[op] = max(slowest_device.get(op, 0.0),
                                         duration[idx])

        def per_op(table: dict, name: str) -> float:
            return table.get(name, 0.0) / n_ops

        out = {f"{name}_s": total[name] / instances.get(name, n_ops)
               for name in total}
        out.update({
            "linalg.top_k_projection_calls":
                calls.get("linalg.top_k_projection", 0),
            "linalg.operator_norm_calls": calls.get("linalg.operator_norm", 0),
            "local.local_cluster_max_s":
                sum(slowest_device.values()) / n_ops,
            "local.self_s": per_op(own, "local.local_cluster"),
            "federation.self_s": per_op(own, "federation.run_kfed"),
            "separation.self_s": sum(
                (per_op(own, name) for name in own
                 if name.startswith("separation.")), 0.0),
            "trace.solve_s": per_op(total, OP_SPAN),
            "trace.unaccounted_s": per_op(own, OP_SPAN),
        })
        return out

    def unfired(self, operation: str) -> list[str]:
        """Wrapped functions the operation should call but never did."""
        seen = set(self.names)
        return [f"{module}.{attr}" for module, attr, span_name, kind in TARGETS
                if kind == operation and span_name not in seen]
