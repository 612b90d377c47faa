#!/usr/bin/env python3
"""Run the benchmark alternately on a parent revision and on this checkout.

Usage, from the root of a checkout:

    python3 tools/bench_pair.py --parent HEAD --workload additivity-l3 --seed 1

The parent revision is extracted with ``git archive`` into a temporary
directory; the change side is this checkout's working tree, uncommitted edits
included.  Each of PAIRS pairs runs ``perfbench/run.py --trace 0`` once on
each side, one run at a time, and the side that runs first alternates from
pair to pair.  Every run lasts BENCHMARK.json's ``run_seconds``.  Both sides
run the same ``perfbench/run.py`` arguments, and each side runs its own copy
of the benchmark.

After the pairs, each side runs once more with ``--trace 1``, the parent
first, so a change that makes a traced run take longer shows here.

The result goes to ``BENCH_<label>.json`` (the label defaults to the
workload's name): the revisions, workload, seed and seconds, every run's side,
pair, order and wall seconds with its final JSON line, per side the median and
quartiles of each end-to-end metric, with the number of pairs the change wins
on each (ties count for neither side) and a ``verdict``, and per side the
traced run's wall seconds, exit status, jobs (``attempted`` in its final JSON
line: the untraced and the traced half together) and spans written, so a
longer traced run reads as more jobs or as slower ones.

A metric's ``verdict``, from its BENCHMARK.json ``bound`` and the parent's
quartiles, is the first of these that holds:

- ``regression``: the change's median is worse than the parent's by more than
  the bound (as a fraction of the parent's median);
- ``unresolved``: the parent's quartile spread exceeds the bound times its
  median, and not every change run beats every parent run;
- ``gain``: the change wins at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile spread;
- ``no_change``: any other case.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs of runs per comparison: the fewest on which a gain can be claimed.
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def extract(revision: str, into: Path) -> None:
    """Write the files of ``revision`` into ``into``."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Python releases before 3.10.12 and 3.11.4 have no extraction filters;
        # the archive comes from this repository's own git.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[subprocess.CompletedProcess, float]:
    """One benchmark run in ``tree`` and its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    return proc, time.perf_counter() - start


def final_line(proc: subprocess.CompletedProcess, tree: Path) -> dict:
    """The final JSON line of a run that succeeded."""
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_counts(proc: subprocess.CompletedProcess) -> tuple[int | None, int | None]:
    """A traced run's job count (``attempted``) and span count; None where its output lacks one."""
    lines = proc.stdout.strip().splitlines()
    jobs = json.loads(lines[-1]).get("attempted") if proc.returncode == 0 and lines else None
    spans = next((int(line.split()[0]) for line in lines if " spans written to " in line), None)
    return jobs, spans


def verdict(sides: dict[str, list[float]], stats: dict[str, dict], wins: int, direction: str,
            bound: float) -> str:
    """``regression``, ``unresolved``, ``gain`` or ``no_change``, as the module docstring defines them.

    ``sides`` holds each side's run values and ``stats`` each side's median
    and quartiles.
    """
    sign = 1.0 if direction == "lower" else -1.0  # sign * value: lower is better
    base = stats["parent"]["median"]
    gained = sign * (base - stats["change"]["median"])
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    separated = max(sign * v for v in sides["change"]) < min(sign * v for v in sides["parent"])
    if -gained > bound * abs(base):
        return "regression"
    if spread > bound * abs(base) and not separated:
        return "unresolved"
    if wins >= 0.9 * len(sides["parent"]) and gained > spread:
        return "gain"
    return "no_change"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change wins and its verdict."""
    out = {}
    for name, metric in metrics.items():
        direction = metric["better"]
        sides = {side: {r["pair"]: r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side}
                 for side in ("parent", "change")}
        wins = sum(
            (sides["change"][i] < sides["parent"][i]) if direction == "lower"
            else (sides["change"][i] > sides["parent"][i])
            for i in sides["parent"]
        )
        entry = {}
        for side, values in sides.items():
            ordered = sorted(values.values())
            q1, median, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        out[name] = {**entry, "better": direction, "change_wins": wins, "pairs": len(sides["parent"]),
                     "verdict": verdict({side: list(values.values()) for side, values in sides.items()},
                                        entry, wins, direction, metric["bound"])}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", help="names the output BENCH_<label>.json; the workload by default")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    parent_revision = git("rev-parse", args.parent).strip()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "parent": {"revision": parent_revision},
        "change": {"revision": git("rev-parse", "HEAD").strip(),
                   "uncommitted_changes": bool(git("status", "--porcelain").strip())},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(parent_revision, trees["parent"])
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                proc, wall = run_once(trees[side], args.workload, args.seed, seconds)
                result = final_line(proc, trees[side])
                record["runs"].append({"pair": pair, "side": side, "order": position,
                                       "wall_s": wall, "result": result})
                p50 = result["metrics"]["job_s_p50"]["value"]
                print(f"pair {pair} {side:<6} job_s_p50 {p50:.6f} s, "
                      f"{result['attempted']} jobs, {result['failed']} failed, wall {wall:.1f} s", flush=True)
        record["traced"] = {}
        for side in ("parent", "change"):
            proc, wall = run_once(trees[side], args.workload, args.seed, seconds, trace=1)
            jobs, spans = traced_counts(proc)
            record["traced"][side] = {"wall_s": wall, "exit_status": proc.returncode, "jobs": jobs, "spans": spans}
            print(f"traced {side:<6} wall {wall:.1f} s, exit status {proc.returncode}, "
                  f"{jobs} jobs, {spans} spans", flush=True)
    record["summary"] = summarize(record["runs"], metrics)
    out = ROOT / f"BENCH_{args.label or args.workload}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
