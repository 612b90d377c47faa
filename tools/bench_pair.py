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
on each (ties count for neither side), and per side the traced run's wall
seconds and exit status.
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


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change wins."""
    out = {}
    for name, direction in better.items():
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
        out[name] = {**entry, "better": direction, "change_wins": wins, "pairs": len(sides["parent"])}
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
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
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
            record["traced"][side] = {"wall_s": wall, "exit_status": proc.returncode}
            print(f"traced {side:<6} wall {wall:.1f} s, exit status {proc.returncode}", flush=True)
    record["summary"] = summarize(record["runs"], better)
    out = ROOT / f"BENCH_{args.label or args.workload}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
