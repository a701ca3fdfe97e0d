"""Runs one workload, untraced or traced, and assembles its result.

An untraced run measures the end-to-end metrics.  A traced run measures the
per-layer metrics: it repeats the same work with and without the tracer, so
the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import trailergen as tg
from trailergen import autodiff as ad

from tracing import OPS, Tracer, layer_targets
from workloads import FULL, TINY, WORKLOADS, median

SIZES = {"full": FULL, "tiny": TINY}

# (name, unit, better) of every end-to-end metric, reported by every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput", "items/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# set-up runs at least MIN_SETUPS and at most MAX_SETUPS times; after each
# operation it runs while its count is below MAX_SETUPS and its total below
# SETUP_SHARE, both in proportion to the measured time so far, so its
# samples spread over the whole run; setup_s is their median
MIN_SETUPS, SETUP_SHARE, MAX_SETUPS = 5, 0.1, 40


def layer_names() -> list[str]:
    """Span names of the traced layers, in table order, without repeats."""
    names = [name for name, *_ in layer_targets(tg)]
    return list(dict.fromkeys(n for n in names if not n.startswith("autodiff.op.")))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    Times and counts are divided by the workload's unit of work: a train
    step on train_desk, a decoded shot on decode_paper, one eval call on
    eval_desk.
    """
    spec = [("autodiff.op_calls", "count/unit", "lower"),
            ("autodiff.fwd_s", "s/unit", "lower")]
    spec += [(f"autodiff.fwd_s.{op}", "s/unit", "lower") for op in OPS]
    spec += [(f"autodiff.calls.{op}", "count/unit", "lower") for op in OPS]
    spec += [(f"{name}_s", "s/unit", "lower") for name in layer_names()]
    spec += [("layers.linear_calls", "count/unit", "lower"),
             ("decoder.stack_calls", "count/unit", "lower"),
             ("shots.cosine_calls", "count/unit", "lower"),
             ("decoder.query_rows_per_shot", "rows/shot", "lower"),
             ("decoder.memory_rows_per_shot", "rows/shot", "lower"),
             ("trace.overhead_frac", "ratio", "lower"),
             ("trace.self_time_frac", "ratio", "higher")]
    return spec


def environment(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "default_dtype": str(ad.default_dtype()),
        # reads the package default and leaves it on
        "finite_checks": ad.set_finite_checks(True),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@contextmanager
def scratch_dir(root: Path):
    path = root / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, record: dict) -> None:
        """Check one record as soon as its operation has returned, outside
        the timed region, then let the workload release its scratch files
        and large objects, so that neither disk writes nor memory grow with
        the number of operations a run completes."""
        problems = self.workload.check(record, first=self.attempted == 0)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        self.workload.release(record)


def measured_run(workload, budget_s: float, ledger: Ledger) -> tuple[list[float], list[dict]]:
    """Closed loop: operations until they have taken ``budget_s`` and at
    least ``workload.min_ops`` are done.  A timed set-up comes first, then
    one warm-up operation whose first-call costs stay out of the figures;
    after each operation set-up runs again while it is behind its quota for
    the time measured so far, so the set-up median samples the same stretch
    of machine time as the operations.  Each operation is checked as soon
    as it returns, and garbage is collected before each operation and
    set-up, all outside the timed region, so none pays for what ran before
    it.

    Returns (set-up seconds, records of the measured operations).
    """
    setup_s, records = [], []
    op_s = 0.0

    def timed_setup():
        gc.collect()
        start = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - start)

    timed_setup()
    ledger.check(workload.operate())  # warm-up
    while len(records) < workload.min_ops or op_s < budget_s:
        gc.collect()
        start = perf_counter()
        records.append(workload.operate())
        op_s += perf_counter() - start
        ledger.check(records[-1])
        progress = min(1.0, op_s / budget_s)
        while (len(setup_s) < MAX_SETUPS * progress
               and sum(setup_s) < SETUP_SHARE * budget_s * progress):
            timed_setup()
    while len(setup_s) < MIN_SETUPS:
        timed_setup()
    return setup_s, records


def traced_pass(workload, budget_s: float, ledger: Ledger):
    """Set-up and operations, each done once untraced and once traced, in
    turn, until the untraced ones have taken ``budget_s``.  Alternating
    keeps drift in machine speed out of the overhead estimate.  Every
    operation is checked as soon as it returns, untraced.

    Returns (tracer, untraced records, traced records, untraced s, traced s).
    """
    tracer = Tracer()
    workload.setup()
    ledger.check(workload.operate())  # warm-up, so neither side pays first-call costs alone
    records, traced = [], []
    untraced_s = traced_s = 0.0

    def untraced(fn):
        nonlocal untraced_s
        start = perf_counter()
        out = fn()
        untraced_s += perf_counter() - start
        return out

    def with_tracer(name, fn):
        nonlocal traced_s
        with tracer.installed(tg):
            start = perf_counter()
            out = tracer.call(name, fn)
            traced_s += perf_counter() - start
        return out

    untraced(workload.setup)
    with_tracer("bench.setup", workload.setup)
    while len(records) < workload.min_ops or untraced_s < budget_s:
        records.append(untraced(workload.operate))
        ledger.check(records[-1])
        traced.append(with_tracer(workload.op_name, workload.operate))
        ledger.check(traced[-1])
    return tracer, records, traced, untraced_s, traced_s


def percentile_line(samples: list[float]) -> str:
    """The sample count, plus the highest of p99.9/p99/p90 that has at least
    ten samples beyond it."""
    parts = [f"n={len(samples)}"]
    for q in (0.999, 0.99, 0.9):
        if len(samples) * (1 - q) >= 10:
            parts.append(f"p{q * 100:g}={float(np.quantile(samples, q)):.4g} s")
            break
    return ", ".join(parts)


def layer_metrics(tracer: Tracer, units: int, shots: int, traced_s: float,
                  untraced_s: float) -> dict:
    summary = tracer.summary()
    counts = tracer.counts

    def per_unit(value):
        return value / units

    values = {}
    op_total = sum(summary.get(f"autodiff.op.{op}", {}).get("total_s", 0.0) for op in OPS)
    values["autodiff.op_calls"] = per_unit(sum(counts[f"autodiff.op.{op}"] for op in OPS))
    values["autodiff.fwd_s"] = per_unit(op_total)
    for op in OPS:
        entry = summary.get(f"autodiff.op.{op}", {})
        values[f"autodiff.fwd_s.{op}"] = per_unit(entry.get("total_s", 0.0))
        values[f"autodiff.calls.{op}"] = per_unit(counts[f"autodiff.op.{op}"])
    for name in layer_names():
        values[f"{name}_s"] = per_unit(summary.get(name, {}).get("total_s", 0.0))
    values["layers.linear_calls"] = per_unit(counts["layers.linear"])
    values["decoder.stack_calls"] = per_unit(counts["decoder.stack"])
    values["shots.cosine_calls"] = per_unit(counts["shots.cosine"])
    values["decoder.query_rows_per_shot"] = counts["decoder.query_rows"] / shots
    values["decoder.memory_rows_per_shot"] = counts["decoder.memory_rows"] / shots
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    values["trace.self_time_frac"] = sum(e["self_s"] for e in summary.values()) / traced_s
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str,
        blas_threads: int, out_root: Path) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    env = environment(blas_threads)
    load_before = os.getloadavg()
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    lines = []
    extra = {}
    with scratch_dir(out_root) as work:
        workload = WORKLOADS[workload_name](seed, SIZES[size], work)
        ledger = Ledger(workload)
        if not trace:
            setup_times, records = measured_run(workload, seconds, ledger)
            rss = peak_rss_mb()
            e2e = workload.metrics(records)
            values = {"setup_s": median(setup_times), "throughput": e2e["throughput"],
                      "latency_p50_s": e2e["latency_p50_s"], "peak_rss_mb": rss}
            spec = END_TO_END
            for name, value, unit, better, count, what in e2e["named"]:
                lines.append(f"{name:<26}{value:>12.4f} {unit:<8} ({better} is better; "
                             f"median of {count} {what})")
            lines.append(f"{'latency samples':<26}{percentile_line(e2e['latency_samples'])}")
            extra = {"setup_samples_s": setup_times, "latency_samples_s": e2e["latency_samples"]}
        else:
            tracer, records, traced, untraced_s, traced_s = traced_pass(workload, seconds / 2,
                                                                        ledger)
            units, shots = workload.work_done(traced)
            values = layer_metrics(tracer, units, shots, traced_s, untraced_s)
            spec = per_layer_spec()
            tracer.write(results_dir / f"{stem}.spans.npz")
            extra = {"unit": workload.unit, "units": units, "traced_s": traced_s,
                     "untraced_s": untraced_s, "trace_summary": tracer.summary(),
                     "trace_counts": dict(tracer.counts)}
            lines.append(f"set-up and {len(traced)} operations ({units} x {workload.unit}), "
                         f"alternately: {traced_s:.2f} s traced, {untraced_s:.2f} s untraced")
    load_after = os.getloadavg()
    env["loadavg_before"], env["loadavg_after"] = load_before, load_after
    env["noisy"] = max(load_before[0], load_after[0]) > env["nproc"]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    lines.insert(0, f"workload {workload_name} seed {seed} trace {int(trace)} size {size}: "
                    f"numpy {env['numpy']} ({env['blas'].get('name')}), "
                    f"{blas_threads} BLAS thread(s), nproc {env['nproc']}, "
                    f"load {load_before[0]:.2f} -> {load_after[0]:.2f}"
                    f"{' (NOISY: load above nproc)' if env['noisy'] else ''}, "
                    f"{env['default_dtype']}, finite checks "
                    f"{'on' if env['finite_checks'] else 'OFF'}")
    for name, unit, better in spec:
        lines.append(f"{name:<34}{values[name]:>14.6g} {unit:<10} ({better} is better)")
    rate = ledger.failed / ledger.attempted
    lines.append(f"{'fail_rate':<34}{rate:>14.6g} {'ratio':<10} (lower is better; "
                 f"{ledger.failed} failed of {ledger.attempted} attempted)")
    lines += [f"problem: {p}" for p in dict.fromkeys(ledger.problems)]

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"result": result, "environment": env, "fail_rate": rate,
         "problems": ledger.problems, **extra}, indent=2) + "\n")
    return result, lines

