"""Runner: set-up, the closed measurement loop, checks and metrics.

One caller in one process sends the next operation only after the
previous one has finished and been checked (a closed loop). Timed
intervals cover the operation alone; checks, garbage collection, the
calibration kernel and counter bookkeeping run between them.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
import workloads

SETUP_REPEATS = 21
# Calibration kernel time on an unloaded core of the reference host
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS).
CAL_REF_S = 2.0e-3
OUT_DIR = Path("perfbench") / "out"

# End-to-end metric name -> unit. `work_per_s` counts the workload's own
# unit of work: state x RK4 steps (simulate_abc, sweep_720), distinct
# arrangements scored and written (sweep_d7) or models (model_build).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
THROUGHPUT_NAMES = {
    "state_steps": "state_steps_per_s",
    "arrangements": "arrangements_per_s",
    "models": "models_per_s",
}


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer there is no
    such percentile and the maximum is reported as percentile 100.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return ordered[max(math.ceil(pct * n / 100) - 1, 0)], pct


class Calibration:
    """A fixed kernel timed next to every measured interval.

    On a shared host the whole machine can run up to about twice as slowly
    for seconds at a time while neighbours load it. The kernel mixes what
    the workloads do (small complex matrix-vector products in a Python
    loop, float formatting, dict inserts), so it slows down with them;
    each interval is rescaled by CAL_REF_S over the mean of the kernel's
    times just before and just after it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.gen = 0.01 * (rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36)))
        self.y0 = rng.normal(size=36).astype(complex)
        self.samples: list[float] = []

    def run(self) -> float:
        start = perf_counter()
        y = self.y0
        for _ in range(150):
            k1 = self.gen @ y
            k2 = self.gen @ (y + 0.5 * k1)
            y = y + 0.1 * (k1 + k2)
        for _ in range(60):
            ",".join(f"{v:.12e}" for v in y[:8].real)
        table = {}
        for i in range(2000):
            table[i, i % 7] = float(i)
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn):
        """Run `fn`; return (result, raw seconds, rescaled seconds, scale)."""
        before = self.run()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        scale = CAL_REF_S / ((before + self.run()) / 2.0)
        return result, raw, raw * scale, scale


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        **tracer.src_lines(root / "src" / "dspqsl"),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 params: dict | None = None, out_dir: Path | None = None) -> dict:
    """Run one workload and return its result record.

    With `trace` false the metrics are the end-to-end ones. With `trace`
    true whole cycles alternate between untraced and traced; the traced
    ones give the per-layer metrics and the pair gives the overhead.
    """
    root = Path(root)
    out_dir = Path(out_dir) if out_dir is not None else root / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    if params is None:
        params = workloads.FULL[name]
    work = workloads.WORKLOADS[name](root, seed, params)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    spans = tracer.Tracer()
    cal = Calibration()
    try:
        setup_raw, setup_times = [], []
        for r in range(SETUP_REPEATS):
            workdir = scratch / f"setup{r}"
            workdir.mkdir()
            _, raw, scaled, _ = cal.timed(lambda: work.setup(workdir))
            setup_raw.append(raw)
            setup_times.append(scaled)
        work.prepare_checks()

        attempted = failed = 0
        failures: list[str] = []
        plain, plain_raw, traced = [], [], []
        scales: dict[int, float] = {}
        measured = 0.0
        k = 0
        warmup = work.cycle
        while k < warmup or measured < seconds or k % work.cycle or (trace and not traced):
            in_trace = trace and k >= warmup and ((k - warmup) // work.cycle) % 2 == 1
            gc.collect()

            def operation(k=k, in_trace=in_trace):
                try:
                    if not in_trace:
                        return work.operation(k), None
                    with spans.installed(), spans.operation(k):
                        return work.operation(k), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    return None, exc

            (output, error), raw, scaled, scale = cal.timed(operation)
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                try:
                    problems = work.check(k, output)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            attempted += 1
            if problems:
                failed += 1
                failures.extend(f"pass {k}: {p}" for p in problems)
            if k >= warmup:
                measured += raw
                if in_trace:
                    traced.append(scaled)
                    scales[k] = scale
                else:
                    plain.append(scaled)
                    plain_raw.append(raw)
            k += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    extra = {
        "passes": len(plain) + len(traced),
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "calibration_median_s": statistics.median(cal.samples),
        "calibration_ref_s": CAL_REF_S,
    }
    if trace:
        metrics = tracer.layer_metrics(spans.spans, len(traced), scales)
        metrics.update(tracer.src_lines(root / "src" / "dspqsl"))
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = {m: _metric(metrics[m], unit) for m, unit in tracer.LAYER_METRICS.items()}
        extra["traced_passes"] = len(traced)
        spans.dump(out_dir / f"{name}-seed{seed}-spans.json")
    else:
        tail_value, pct = tail(plain)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain),
            "wall_tail_s": tail_value,
            "work_per_s": work.work_per_pass * len(plain) / sum(plain),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {m: _metric(values[m], unit) for m, unit in END_TO_END.items()}
        extra.update({
            "wall_tail_percentile": pct,
            "work_per_pass": work.work_per_pass,
            "work_unit": work.work_unit,
            THROUGHPUT_NAMES[work.work_unit]: values["work_per_s"],
            "raw_setup_s": statistics.median(setup_raw),
            "raw_wall_s": statistics.median(plain_raw),
            "raw_wall_tail_s": tail(plain_raw)[0],
            "setup_samples": setup_times,
            "wall_samples": plain,
        })

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "trace": bool(trace),
        "seconds": seconds,
        "environment": environment(root, seed),
        "extra": extra,
        **result,
    }
    with open(out_dir / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_lines(record: dict) -> list[str]:
    """Human-readable lines: environment, every metric with its unit."""
    extra = record["extra"]
    lines = [f"workload {record['workload']} (trace {int(record['trace'])})",
             "environment " + json.dumps(record["environment"])]
    for name, m in record["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        alias = THROUGHPUT_NAMES[extra["work_unit"]]
        lines.append(f"  {alias} = {extra[alias]:.6g} 1/s (reported as work_per_s)")
        lines.append(f"  wall_tail_s is p{extra['wall_tail_percentile']} of {extra['passes']} passes")
    lines.append(f"  failed_frac = {extra['failed_frac']:.6g} ({record['failed']}/{record['attempted']})")
    lines.extend(f"  failure: {f}" for f in extra["failures"])
    return lines
