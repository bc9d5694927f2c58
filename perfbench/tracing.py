"""Span tracing from outside the package: wrap public names where they are looked up.

The benchmark installs the wrappers around a traced operation and removes them
afterwards, so untraced operations run the package unmodified.  Spans stay in
memory as (name, target, start, end, parent, op) and are written once at the
end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute looked up there, span name).  A dotted attribute patches a
# class attribute, e.g. the validation hook every DensityOperator runs.
TARGETS = (
    ("weakquasi.core", "DensityOperator.__post_init__", "core.density_validate"),
    ("weakquasi.schemes", "controlled_shift", "core.controlled_shift"),
    ("weakquasi.sampling", "weak_joint_state", "schemes.circuit"),
    ("weakquasi.sampling", "joint_outcome_table", "schemes.circuit"),
    ("weakquasi.sampling", "weak_sequential_closed", "schemes.closed"),
    ("weakquasi.sampling", "probability_table", "schemes.probability_table"),
    ("weakquasi.schemes", "probability_table", "schemes.probability_table"),
    ("weakquasi.sampling", "apply_gate_noise", "sampling.gate_noise"),
    ("weakquasi.sampling", "sample_counts", "sampling.sample_counts"),
    ("weakquasi.cli", "run_sweep", "sampling.sweep"),
    ("weakquasi.sampling", "weak_cq_from_data", "quasiprob.data_paths"),
    ("weakquasi.sampling", "coherence_term", "quasiprob.data_paths"),
    ("weakquasi.sampling", "mhq_from_weak", "quasiprob.data_paths"),
    ("weakquasi.cli", "cq", "quasiprob.theory"),
    ("weakquasi.cli", "mhq", "quasiprob.theory"),
    ("weakquasi.cli", "threshold_strength", "quasiprob.theory"),
    ("weakquasi.cli", "negativity", "quasiprob.theory"),
    ("weakquasi.cli", "parse_config", "cli.parse"),
    ("weakquasi.cli", "run", "cli.run"),
    ("weakquasi.cli", "compare", "cli.compare"),
)

SPAN_FIELDS = ("name", "target", "start", "end", "parent", "op")


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name), or None when any part is missing."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if last not in vars(owner):
        return None
    return owner, last


class Tracer:
    """Collects nested spans from wrapped functions of one process."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        for module_name, attr, _ in TARGETS:
            if _resolve(module_name, attr) is None:
                self.missing.append(f"{module_name}.{attr}")

    def _wrap(self, fn, name: str, target: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, target, start, end, parent, self.op)

        return wrapper

    def install(self, op: int):
        """Wrap every resolvable target for operation ``op``."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.op = op
        for module_name, attr, name in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, last = found
            original = vars(owner)[last]
            self._saved.append((owner, last, original))
            setattr(owner, last, self._wrap(original, name, f"{module_name}.{attr}"))

    def uninstall(self):
        """Restore every wrapped name, in reverse order of installation."""
        while self._saved:
            owner, last, original = self._saved.pop()
            setattr(owner, last, original)

    def per_op(self) -> dict[int, dict]:
        """Per operation: calls and self seconds per span name, calls per target.

        Self time is a span's duration minus the durations of its direct
        children, which the single-threaded call stack keeps disjoint.
        """
        child_time = defaultdict(float)
        for name, target, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops: dict[int, dict] = defaultdict(
            lambda: {"calls": defaultdict(int), "self_s": defaultdict(float), "targets": defaultdict(int)}
        )
        for index, (name, target, start, end, parent, op) in enumerate(self.spans):
            entry = ops[op]
            entry["calls"][name] += 1
            entry["self_s"][name] += (end - start) - child_time[index]
            entry["targets"][target] += 1
        return ops

    def write(self, path: Path):
        """Write every span as one JSON document."""
        doc = {"fields": SPAN_FIELDS, "spans": self.spans}
        path.write_text(json.dumps(doc), encoding="utf-8")
