"""Span tracing around the package's public entry points.

The tracer rebinds module attributes of `dspqsl` to thin wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in memory; `self_times` and `layer_metrics` turn them into the
per-layer numbers, and `dump` writes them out when the run ends. Nothing
inside the package is edited, so only calls that go through a module
attribute (or the CLI's command table) are seen.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from dspqsl import cli, dsp_core, lindblad, optimizer, qmat, rydberg

MODULES = {
    "qmat": qmat,
    "lindblad": lindblad,
    "dsp_core": dsp_core,
    "optimizer": optimizer,
    "rydberg": rydberg,
    "cli": cli,
}
LAYERS = tuple(MODULES)

# Entry points wrapped in a traced run, as (layer, attribute). Helpers
# called once per arrangement (such as `qsl_times_from_overlap`) are left
# alone: a span per call would cost more than the work it measures.
ENTRY_POINTS = (
    ("qmat", "hermitian_eigensystem"),
    ("qmat", "validate_density_matrix"),
    ("lindblad", "rhs_matrix"),
    ("lindblad", "evolve"),
    ("lindblad", "evolve_batch"),
    ("dsp_core", "state_from_populations"),
    ("dsp_core", "coefficient_a"),
    ("dsp_core", "qsl_margins"),
    ("dsp_core", "verify_dsp_conditions"),
    ("optimizer", "enumerate_permutations"),
    ("optimizer", "pareto_mask"),
    ("optimizer", "lexicographic_select"),
    ("rydberg", "build_model"),
    ("cli", "parse_config"),
    ("cli", "load_model"),
    ("cli", "write_csv"),
    ("cli", "cmd_model_info"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_optimize"),
)

# Per-layer metric name -> unit. Times and counts are per traced pass.
LAYER_METRICS = {
    "qmat.eigensystem_s": "s",
    "qmat.eigensystem_calls": "count",
    "qmat.eigensystem_ms.d16": "ms",
    "qmat.eigensystem_ms.d32": "ms",
    "qmat.eigensystem_ms.d64": "ms",
    "qmat.validate_s": "s",
    "qmat.validate_calls": "count",
    "lindblad.rhs_matrix_s": "s",
    "lindblad.evolve_s": "s",
    "lindblad.evolve_batch_s": "s",
    "lindblad.state_steps": "count",
    "lindblad.records": "count",
    "lindblad.us_per_state_step": "us",
    "lindblad.flops_computed": "flop",
    "lindblad.bytes_computed": "B",
    "dsp_core.state_prep_s": "s",
    "dsp_core.qsl_s": "s",
    "dsp_core.conditions_s": "s",
    "optimizer.enumerate_s": "s",
    "optimizer.pareto_s": "s",
    "optimizer.select_s": "s",
    "optimizer.perms_attempted": "count",
    "optimizer.arrangements_distinct": "count",
    "optimizer.distinct_ratio": "ratio",
    "rydberg.build_model_s": "s",
    "cli.parse_config_s": "s",
    "cli.load_model_s": "s",
    "cli.command_self_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.src_lines": "lines" for layer in LAYERS},
    "trace_overhead_frac": "ratio",
}

# Self time of these spans, summed, gives the named time metric.
_TIME_METRICS = {
    "qmat.eigensystem_s": ("qmat.hermitian_eigensystem",),
    "qmat.validate_s": ("qmat.validate_density_matrix",),
    "lindblad.rhs_matrix_s": ("lindblad.rhs_matrix",),
    "lindblad.evolve_s": ("lindblad.evolve",),
    "lindblad.evolve_batch_s": ("lindblad.evolve_batch",),
    "dsp_core.state_prep_s": ("dsp_core.state_from_populations",),
    "dsp_core.qsl_s": ("dsp_core.coefficient_a", "dsp_core.qsl_margins"),
    "dsp_core.conditions_s": ("dsp_core.verify_dsp_conditions",),
    "optimizer.enumerate_s": ("optimizer.enumerate_permutations",),
    "optimizer.pareto_s": ("optimizer.pareto_mask",),
    "optimizer.select_s": ("optimizer.lexicographic_select",),
    "rydberg.build_model_s": ("rydberg.build_model",),
    "cli.parse_config_s": ("cli.parse_config",),
    "cli.load_model_s": ("cli.load_model",),
    "cli.command_self_s": tuple(f"cli.{n}" for _, n in ENTRY_POINTS if n.startswith("cmd_")),
    "cli.write_csv_s": ("cli.write_csv",),
}

_BYTES_PER_COMPLEX = 16


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


def _steps(model, t_end, step) -> int:
    if step is None:
        step = lindblad.default_step(model)
    return int(round(t_end / step))


def _call_args(args, kwargs, names):
    """Positional-or-keyword arguments by name (missing ones are None)."""
    out = dict(zip(names, args))
    for name in names[len(args):]:
        out[name] = kwargs.get(name)
    return out


# Counters read the call's arguments and result after the operation has
# finished, outside every timed interval.
def _count_eigensystem(args, kwargs, result):
    return {"dim": int(result.dim)}


def _count_evolve(args, kwargs, result):
    a = _call_args(args, kwargs, ("model", "rho0", "t_end", "step"))
    d2 = a["model"].dim ** 2
    steps = _steps(a["model"], a["t_end"], a["step"])
    # Four generator matvecs per RK4 step.
    return {
        "state_steps": steps,
        "records": len(result),
        "flops": 4 * 8 * d2 * d2 * steps,
        "bytes": 4 * _BYTES_PER_COMPLEX * (d2 * d2 + 2 * d2) * steps,
    }


def _count_evolve_batch(args, kwargs, result):
    a = _call_args(args, kwargs, ("model", "states", "t_end", "step"))
    d2 = a["model"].dim ** 2
    batch = len(a["states"])
    steps = _steps(a["model"], a["t_end"], a["step"])
    # One (d^2 x d^2) by (d^2 x B) propagator product per step.
    return {
        "state_steps": steps * batch,
        "records": result.fidelities.size,
        "flops": 8 * d2 * d2 * batch * steps,
        "bytes": _BYTES_PER_COMPLEX * (d2 * d2 + 2 * d2 * batch) * steps,
    }


def _count_enumerate(args, kwargs, result):
    a = _call_args(args, kwargs, ("populations",))
    return {"perms": math.factorial(len(a["populations"])), "distinct": len(result)}


def _count_write_csv(args, kwargs, result):
    path = _call_args(args, kwargs, ("path",))["path"]
    with open(path, "rb") as fh:
        data = fh.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


_COUNTERS = {
    "qmat.hermitian_eigensystem": _count_eigensystem,
    "lindblad.evolve": _count_evolve,
    "lindblad.evolve_batch": _count_evolve_batch,
    "optimizer.enumerate_permutations": _count_enumerate,
    "cli.write_csv": _count_write_csv,
}


class Tracer:
    """Collects spans from wrapped entry points; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._pending: list[tuple[Span, object, tuple, dict, object]] = []
        self._op = -1

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = Span(sid, name, start, end, parent, self._op)
                self.spans.append(span)
            if counter is not None:
                self._pending.append((span, counter, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; counters resolve on exit."""
        self._op = op_id
        sid = next(self._ids)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, "op", start, end, None, op_id))
            pending, self._pending = self._pending, []
            for span, counter, args, kwargs, result in pending:
                span.attrs.update(counter(args, kwargs, result))

    @contextmanager
    def installed(self):
        """Rebind every entry point to its traced wrapper, then restore."""
        saved = []
        table = getattr(cli, "_COMMANDS", {})
        try:
            for layer, attr in ENTRY_POINTS:
                module = MODULES[layer]
                original = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
                for key, value in list(table.items()):
                    if value is original:
                        saved.append((table, key, original))
                        table[key] = wrapper
            yield self
        finally:
            for target, key, original in reversed(saved):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def dump(self, path) -> None:
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, **s.attrs}
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Calls are synchronous and single-threaded, so children nest inside
    their parent and never overlap each other.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_time[s.id] for s in spans}


def src_lines(src_dir) -> dict[str, int]:
    """Line count of each layer's module under `src_dir`."""
    out = {}
    for layer in LAYERS:
        with open(os.path.join(src_dir, f"{layer}.py"), "rb") as fh:
            out[f"{layer}.src_lines"] = fh.read().count(b"\n")
    return out


def layer_metrics(spans: list[Span], passes: int, scales: dict[int, float] | None = None
                  ) -> dict[str, float]:
    """Per-layer metrics, averaged over `passes` traced passes.

    Times of operation `op` are multiplied by `scales[op]` (default 1), the
    calibration factor the runner applies to that operation's wall time.
    """
    scales = scales or {}
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    eig_by_dim: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        if s.name == "op":
            continue
        scale = scales.get(s.op, 1.0)
        by_name[s.name] += own[s.id] * scale
        by_layer[s.name.split(".", 1)[0]] += own[s.id] * scale
        calls[s.name] += 1
        for key, value in s.attrs.items():
            totals[f"{s.name}:{key}"] += value
        if s.name == "qmat.hermitian_eigensystem":
            eig_by_dim[s.attrs["dim"]].append((s.end - s.start) * scale)

    n = max(passes, 1)
    out = {name: sum(by_name[s] for s in srcs) / n for name, srcs in _TIME_METRICS.items()}
    out["qmat.eigensystem_calls"] = calls["qmat.hermitian_eigensystem"] / n
    for dim in (16, 32, 64):
        samples = eig_by_dim.get(dim, [])
        out[f"qmat.eigensystem_ms.d{dim}"] = 1e3 * sum(samples) / len(samples) if samples else 0.0
    out["qmat.validate_calls"] = calls["qmat.validate_density_matrix"] / n

    integrators = ("lindblad.evolve", "lindblad.evolve_batch")
    state_steps = sum(totals[f"{f}:state_steps"] for f in integrators)
    out["lindblad.state_steps"] = state_steps / n
    out["lindblad.records"] = sum(totals[f"{f}:records"] for f in integrators) / n
    integrate_s = sum(by_name[f] for f in integrators)
    out["lindblad.us_per_state_step"] = 1e6 * integrate_s / state_steps if state_steps else 0.0
    out["lindblad.flops_computed"] = sum(totals[f"{f}:flops"] for f in integrators) / n
    out["lindblad.bytes_computed"] = sum(totals[f"{f}:bytes"] for f in integrators) / n

    perms = totals["optimizer.enumerate_permutations:perms"]
    distinct = totals["optimizer.enumerate_permutations:distinct"]
    out["optimizer.perms_attempted"] = perms / n
    out["optimizer.arrangements_distinct"] = distinct / n
    out["optimizer.distinct_ratio"] = distinct / perms if perms else 0.0

    out["cli.csv_rows"] = totals["cli.write_csv:rows"] / n
    out["cli.csv_bytes"] = totals["cli.write_csv:bytes"] / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer] / n
    return out
