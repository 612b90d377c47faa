#!/usr/bin/env python3
"""Run one qchan benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload additivity-l3 --seed 1 --seconds 30 --trace 0

The jobs of a workload run closed-loop in this one process, one at a time,
with ``QCHAN_THREADS`` unset and BLAS limited to one thread.  Each job's
output is checked outside its timed span; a failed or raising job is counted
and the run goes on.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Job and set-up times are CPU seconds (user plus system) of single-threaded
processes, so time the host takes the virtual CPU away does not count; the
matching wall times are printed beside them.

``--trace 1`` first runs jobs untraced for half the time, then the same jobs
again with every traced qchan function wrapped (see ``layertrace.py``); the
difference in CPU time is the tracing overhead.  Spans go to
``.bench_out/trace-<workload>-seed<seed>.jsonl.gz``.

qchan is imported from ``src/`` of the checkout this script sits in; without
it the script exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
#: Set-ups timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 7
#: The tail percentile is the highest with at least this many jobs beyond it.
TAIL_BEYOND = 10
LAYER_MODULES = ("linalg", "states", "weyl", "channels", "entropy", "optimize",
                 "verify", "fileio", "reporting", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no qchan sources)."""


def configure_environment() -> None:
    """Pin BLAS threads and unset QCHAN_THREADS; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("QCHAN_THREADS", None)


def import_qchan() -> None:
    """Import every qchan layer from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "qchan" / "__init__.py").is_file():
        raise SetupError(f"no qchan sources under {src}")
    sys.path.insert(0, str(src))
    import qchan

    origin = Path(qchan.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"qchan was imported from {origin}, not from {src}")
    for name in LAYER_MODULES:
        importlib.import_module(f"qchan.{name}")


def set_up(workload_name: str, seed: int, workdir: Path):
    """Everything before the first job: qchan imports and the first job's inputs."""
    import_qchan()
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name](seed, workdir)
    workload.job(0)
    return workload


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setups(workload_name: str, seed: int) -> list[tuple[float, float]]:
    """(CPU time, wall time) of set-up in fresh processes, one pair per process.

    A probe process sets up, reports ready and exits, so its CPU time is the
    CPU time from process start until the first job is ready.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        cpu_before = _children_cpu_s()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up probe failed with exit code {code}")
        times.append((_children_cpu_s() - cpu_before, wall))
    return times


@dataclass
class JobRecord:
    index: int
    cpu_s: float
    wall_s: float


def run_jobs(workload, indices, tracer=None, budget_s: float | None = None):
    """Run jobs one at a time: the given indices, or new ones until ``budget_s`` of job wall time.

    Returns (a JobRecord per job, failure messages).  The tracer, when given,
    is installed only while a job runs, never while it is checked.
    """
    records, failures = [], []
    busy = 0.0
    index_iter = iter(indices) if indices is not None else None
    index = 0
    while True:
        if index_iter is not None:
            index = next(index_iter, None)
            if index is None:
                break
        elif busy >= budget_s:
            break
        job = workload.job(index)
        if tracer is not None:
            tracer.job = index
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = workload.run(job)
            error = None
        except Exception:  # a job that raises is a failed operation, not the end of the run
            out, error = None, traceback.format_exc(limit=3)
        finally:
            cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if error is None:
            try:
                error = workload.check(job, out)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        # Free this job's objects before the next one starts, so garbage
        # collection and peak memory do not depend on what ran before.
        del out
        gc.collect()
        if error is not None:
            failures.append(f"job {index}: {error}")
        records.append(JobRecord(index, cpu, wall))
        busy += wall
        index += 1
    return records, failures


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it.

    With too few jobs for that, the slowest job is reported as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment_block(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads_set": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "QCHAN_THREADS": os.environ.get("QCHAN_THREADS", "unset"),
        "seed": seed,
    }


def measure(workload, seconds: float, seed: int) -> tuple[dict, int, list[str], list[str]]:
    """The untraced run: end-to-end metrics, jobs attempted, failures, report lines."""
    setups = time_setups(workload.name, seed)
    records, failures = run_jobs(workload, None, budget_s=seconds)
    n = len(records)
    cpus = [r.cpu_s for r in records]
    walls = [r.wall_s for r in records]
    tail_s, tail_pct = tail(cpus)
    metrics = {
        "setup_s": statistics.median(cpu for cpu, _ in setups),
        "job_s_p50": statistics.median(cpus),
        "job_s_tail": tail_s,
        "jobs_per_s": n / sum(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        "times are CPU seconds of a single-threaded process; wall time for comparison",
        f"setup_s          {metrics['setup_s']:.6f} s    median of {len(setups)} set-ups in "
        f"fresh processes (wall {statistics.median(w for _, w in setups):.6f} s)",
        f"job_s_p50        {metrics['job_s_p50']:.6f} s    median of {n} jobs "
        f"(wall {statistics.median(walls):.6f} s)",
        f"job_s_tail       {tail_s:.6f} s    p{tail_pct:.1f} of {n} jobs "
        f"(wall {tail(walls)[0]:.6f} s)",
        f"jobs_per_s       {metrics['jobs_per_s']:.6f} 1/s  {n} jobs in {sum(cpus):.3f} CPU s "
        f"({n / sum(walls):.6f} per wall second)",
        f"peak_rss_mb      {metrics['peak_rss_mb']:.3f} MB   ru_maxrss of this process",
        f"ops_failed_frac  {len(failures) / n:.6f}      {len(failures)} of {n} jobs attempted",
    ]
    return metrics, n, failures, lines


def measure_traced(workload, seconds: float, seed: int) -> tuple[dict, int, list[str], list[str]]:
    """The traced run: per-layer metrics per job and the tracing overhead."""
    from layertrace import Tracer, leftover_wrappers

    plain, failures = run_jobs(workload, None, budget_s=seconds / 2.0)
    tracer = Tracer()
    traced, traced_failures = run_jobs(workload, [r.index for r in plain], tracer=tracer)
    leftover = leftover_wrappers()
    if leftover:
        raise RuntimeError(f"wrappers left installed after the traced run: {leftover}")
    plain_s = sum(r.cpu_s for r in plain)
    traced_s = sum(r.cpu_s for r in traced)
    overhead = traced_s - plain_s
    n = len(plain)
    metrics = tracer.metrics(n, overhead)
    spans_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    ranked = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    lines = [
        f"traced {n} jobs: untraced {plain_s:.3f} CPU s, traced {traced_s:.3f} CPU s, "
        f"tracing overhead {overhead:.3f} s ({overhead / plain_s:.1%})",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
        "largest self times, CPU s per job:",
        *[f"  {k:<40} {v:.6f} ({v * n / traced_s:.1%})" for v, k in ranked[:8]],
        f"optimize.value_evals_per_grad {metrics['optimize.value_evals_per_grad']:.4f} "
        f"(base: {metrics['optimize.grad_evals'] * n:.0f} gradient evaluations)",
    ]
    return metrics, 2 * n, failures + traced_failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qchan benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    configure_environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        try:
            workload = set_up(args.workload, args.seed, workdir)
        except (SetupError, ImportError) as exc:
            print(f"benchmark set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        from layertrace import metric_units

        # Objects that exist after set-up live for the whole run; freezing
        # them keeps the collection after each job down to that job's objects.
        gc.freeze()
        env = environment_block(args.seed)
        print(json.dumps({"env": env}))
        print(f"workload {workload.name}: {workload.why}")
        if args.trace:
            metrics, attempted, failures, lines = measure_traced(workload, args.seconds, args.seed)
            units = metric_units()
        else:
            metrics, attempted, failures, lines = measure(workload, args.seconds, args.seed)
            units = END_TO_END_UNITS
        for line in lines:
            print(line)
        for failure in failures[:5]:
            print(f"FAILED {failure}")
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
