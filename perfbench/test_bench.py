"""The benchmark's own test: one job of each workload, untraced and traced.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from layertrace import LAYERS, WRAPPER_MARK, Tracer, leftover_wrappers, metric_units  # noqa: E402

run.configure_environment()
run.import_qchan()

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class _WatchWrappers:
    """Delegates to a workload and records which wrappers are installed while a job runs."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: list[list[str]] = []

    def job(self, index):
        return self.inner.job(index)

    def run(self, job):
        self.seen.append(leftover_wrappers())
        return self.inner.run(job)

    def check(self, job, out):
        return self.inner.check(job, out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_correct_and_traced(name, tmp_path):
    workload = _WatchWrappers(WORKLOADS[name](seed=3, workdir=tmp_path))

    _, failures = run.run_jobs(workload, [0])
    assert failures == []
    assert workload.seen == [[]], "the untraced run must install no wrappers"

    tracer = Tracer()
    _, failures = run.run_jobs(workload, [0], tracer=tracer)
    assert failures == []
    assert workload.seen[1], "the traced run installed no wrappers"
    assert leftover_wrappers() == []

    metrics = tracer.metrics(jobs=1, overhead_s=0.0)
    missing = [layer for layer in workload.inner.expected_layers if metrics[f"{layer}.calls"] <= 0]
    assert missing == [], f"expected layers not seen in the trace: {missing}"
    assert all(parent < span_id for span_id, parent, *_ in tracer.spans)


def test_every_traced_function_is_patched_where_it_is_held():
    tracer = Tracer()
    tracer.install()
    try:
        patched = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._patches]
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    assert {getattr(w, WRAPPER_MARK) for _, _, w in patched} == {layer for layer, _, _ in LAYERS}
    holders = {attr: set() for attr in ("hermitian_eig", "entropy_of_spectrum")}
    for owner, attr, _ in patched:
        if attr in holders:
            holders[attr].add(owner.__name__)
    assert {"qchan.linalg", "qchan.channels", "qchan.entropy", "qchan.verify"} <= holders["hermitian_eig"]
    assert "qchan.optimize" in holders["entropy_of_spectrum"]


def test_benchmark_json_matches_the_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metric_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "additivity-l3", "--seed", "5",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "additivity-l3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
