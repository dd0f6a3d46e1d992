"""Run one workload: set up, measure for a fixed time, check, report.

A run is closed-loop with one caller: each job starts after the previous
one ends.  Untraced runs (``trace=False``) give the end-to-end metrics.
Traced runs alternate an untraced and a traced job, give the per-layer
metrics and require both jobs of every pair to produce bit-identical
numbers and files.

The end-to-end times are seconds at a reference host speed, measured by a
``hostspeed.Stopwatch`` that times a fixed reference job between the
segments of every untraced job and every set-up; the record keeps the raw
times beside them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import hybridrbf as hb
from hostspeed import HostSpeed, Stopwatch
from tracer import TRIAL_LAYER, Tracer, layer_totals, tail_percentile
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Set-up is repeated this many times per run; setup_s reports the median.
SETUP_REPEATS = 3

_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import hybridrbf.cli"

# Metric name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# Per-layer metrics by layer: "calls", "self_s", or the name of the layer's
# work count.  The selection follows the layer -> end-to-end predictions in
# perfbench/workloads.json.
LAYER_STATS = {
    "geometry.pairwise_distances": ("calls", "cells", "self_s"),
    "geometry.min_separation": ("calls", "self_s"),
    "kernels.eval_kernel_batch": ("calls", "cells", "self_s"),
    "interpolation.assemble": ("calls", "self_s"),
    "interpolation.fit": ("calls", "self_s"),
    "interpolation.spectral_report": ("self_s",),
    "interpolation.evaluate": ("calls", "points", "self_s"),
    "objectives.loocv_cost_rippa": ("calls", "self_s"),
    "objectives.loocv_cost_brute": ("calls", "self_s"),
    "objectives.objective_value": ("calls",),
    "objectives.rms_error": ("self_s",),
    "geometry.read_points_table": ("rows", "self_s"),
    "geometry.write_points_csv": ("rows", "self_s"),
    "interpolation.save_model": ("self_s",),
    "interpolation.load_model": ("self_s",),
    "cli.main": ("calls", "self_s"),
    "pso.pso_minimize": ("self_s",),
}


def _per_layer_units() -> dict[str, str]:
    units = {
        f"{layer}.{stat}": "s" if stat == "self_s" else "count"
        for layer, stats in LAYER_STATS.items()
        for stat in stats
    }
    units[f"{TRIAL_LAYER}.p50_ms"] = "ms"
    units[f"{TRIAL_LAYER}.tail_ms"] = "ms"
    units["objectives.ok_ratio"] = "ratio"
    units["cli.eval.points_per_s"] = "1/s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def provenance(workload: str, seed: int, trials: int) -> dict:
    """Where and on what a result was measured; compare only equal machines."""
    blas = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            blas[name] = deps["blas"]["name"]
        except (KeyError, TypeError):
            blas[name] = "unknown"
    source = hashlib.sha256()
    for path in sorted(Path(hb.__file__).parent.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hybridrbf": hb.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(ROOT),
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trials_per_job": trials,
    }


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds() -> float:
    """Wall time of starting an interpreter that imports hybridrbf, as a CLI user pays."""
    src = str(Path(hb.__file__).resolve().parent.parent)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT, src], check=True, timeout=120)
    return perf_counter() - start


def _median(values) -> float:
    return float(statistics.median(values))


def _with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def _layer_metrics(tracer: Tracer, windows, untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics: per-job counts and median per-job self times."""
    per_job = [layer_totals(tracer.spans[a:b]) for a, b in windows]
    metrics = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            key = stat if stat in ("calls", "self_s") else "work"
            metrics[f"{layer}.{stat}"] = _median(t.get(layer, {}).get(key, 0) for t in per_job)
    trial_spans = [
        s for a, b in windows for s in tracer.spans[a:b] if s[3] == TRIAL_LAYER
    ]
    durations_ms = [1000.0 * (s[5] - s[4]) for s in trial_spans]
    detail = {"objective_value_samples": len(durations_ms)}
    if durations_ms:
        pct, tail, beyond = tail_percentile(durations_ms)
        metrics[f"{TRIAL_LAYER}.p50_ms"] = float(np.percentile(durations_ms, 50))
        metrics[f"{TRIAL_LAYER}.tail_ms"] = tail
        metrics["objectives.ok_ratio"] = sum(s[6] for s in trial_spans) / len(trial_spans)
        detail.update(tail_percentile=pct, tail_beyond=beyond)
    else:
        metrics[f"{TRIAL_LAYER}.p50_ms"] = 0.0
        metrics[f"{TRIAL_LAYER}.tail_ms"] = 0.0
        metrics["objectives.ok_ratio"] = 0.0
    evals = [j.eval_points / j.eval_s for j in untraced if j.eval_points]
    metrics["cli.eval.points_per_s"] = _median(evals) if evals else 0.0
    metrics["trace.overhead_s"] = _median(j.wall_s for j in traced) - _median(
        j.wall_s for j in untraced
    )
    return metrics, detail


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    sizes: dict | None = None,
) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    workload = WORKLOADS[name]
    sizes = dict(SIZES[name] if sizes is None else sizes)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    failures: list[str] = []
    untraced, traced, windows = [], [], []
    tracer = Tracer()
    clock = Stopwatch(HostSpeed())
    setup_times, ref_setup_times = [], []
    try:
        for _ in range(SETUP_REPEATS):
            clock.start()
            import_seconds()  # timed by the stopwatch, as the rest of set-up
            inputs = workload.setup(sizes, seed, workdir)
            clock.stop()
            setup_times.append(clock.raw_s)
            ref_setup_times.append(clock.scaled_s)
        start = perf_counter()
        while not untraced or perf_counter() - start < seconds:
            index = len(untraced)
            untraced.append(workload.job(inputs, index, clock))
            failures.extend(
                f"job {index}: {failure}"
                for failure in workload.check(inputs, untraced[-1].outcome)
            )
            if trace:
                first = len(tracer.spans)
                with tracer:
                    traced.append(workload.job(inputs, index))
                windows.append((first, len(tracer.spans)))
                if not tracer.restored():
                    failures.append("tracer left a rebound name behind")
                if traced[-1].digest() != untraced[-1].digest():
                    failures.append(f"job {index}: traced and untraced outcomes differ")
    except Exception:  # noqa: BLE001  (a failed run still reports)
        failures.append(traceback.format_exc())
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = untraced + traced
    attempted = max(1, sum(j.operations for j in jobs))
    failed = sum(j.failed_operations for j in jobs) + len(failures)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "provenance": provenance(name, seed, jobs[0].trials if jobs else 0),
        "correct": not failures and all(j.failed_operations == 0 for j in jobs),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fail_ratio": failed / attempted,
        "jobs": [
            {"wall_s": j.wall_s, "ref_wall_s": j.ref_wall_s, "search_s": j.search_s,
             "ref_search_s": j.ref_search_s, "trials": j.trials, "sentinel": j.sentinel,
             "eval_s": j.eval_s, "traced": traced_flag}
            for group, traced_flag in ((untraced, False), (traced, True))
            for j in group
        ],
        "setup_repeats_s": setup_times,
        "ref_setup_repeats_s": ref_setup_times,
        "outcome": {
            k: v for k, v in (untraced[0].outcome.items() if untraced else ())
            if isinstance(v, (int, float, str))
        },
        "metrics": {},
    }
    if untraced and trace:
        metrics, record["layer_detail"] = _layer_metrics(tracer, windows, untraced, traced)
        spans_path = out_dir / f"{name}-seed{seed}-spans.csv"
        tracer.write_csv(spans_path)
        record["spans_file"] = spans_path.name
        record["metrics"] = _with_units(metrics, PER_LAYER)
    elif untraced:
        metrics = {
            "wall_s": _median(j.ref_wall_s for j in untraced),
            "trials_per_s": _median(j.trials / j.ref_search_s for j in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _median(ref_setup_times),
        }
        record["metrics"] = _with_units(metrics, END_TO_END)
        record["unscaled"] = {
            "wall_s": _median(j.wall_s for j in untraced),
            "trials_per_s": _median(j.trials / j.search_s for j in untraced),
            "setup_s": _median(setup_times),
        }
    sentinel = sum(j.sentinel for j in untraced)
    record["sentinel_ratio"] = sentinel / max(1, sum(j.trials for j in untraced))
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict) -> str:
    """The last line of standard output: correct, attempted, failed, metrics."""
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )
