"""Record an A/B of two checkouts on perfbench/run.py as a BENCH_<topic>.json file.

    python3 tools/bench_record.py --parent DIR --parent-id SHA \\
        --change DIR --change-id SHA --workload verify [--workload landscape] \\
        --claim verify:wall_s --out BENCH_topic.json

Each directory holds one commit exported with `git archive` and no
`__pycache__`; every run gets PYTHONDONTWRITEBYTECODE=1, so both sides stay
in the same bytecode state.  For each workload, each of the PAIRS pairs
runs `perfbench/run.py --workload W --seconds S --trace 0` once in each
directory, the parent first in even pairs, one run at a time; S is the
`run_seconds` of the change's BENCHMARK.json.  The record
holds every end-to-end metric of the change's BENCHMARK.json, in the layout
README's Benchmark section describes.  A run that is not correct, or that
prints no result line, stops the recording with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SETTING = (
    "each commit in its own directory made by git archive, no __pycache__, PYTHONDONTWRITEBYTECODE=1; "
    "pairs alternate which side runs first (parent first in even pairs); one run at a time"
)
PAIRS = 10


def side(runs: list[float]) -> dict:
    """The runs with their median and quartiles."""
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"runs": list(runs), "median": statistics.median(runs), "q1": q1, "q3": q3}


def better(a: float, b: float, direction: str) -> bool:
    """Whether a reads strictly better than b."""
    return a < b if direction == "lower" else a > b


def compare(parent: list[float], change: list[float], unit: str, direction: str) -> dict:
    """One metric's entry: both sides, the pairs the change won (ties count for neither) and its % change."""
    if len(parent) != len(change):
        raise ValueError("both sides need one run per pair")
    p, c = side(parent), side(change)
    return {
        "unit": unit,
        "better": direction,
        "parent": p,
        "change": c,
        "pairs_won": sum(better(b, a, direction) for a, b in zip(parent, change)),
        "change_pct": round(100 * (c["median"] - p["median"]) / p["median"], 2),
    }


def claim_met(entry: dict) -> bool:
    """There are at least PAIRS pairs, the change wins nine tenths of them,
    and its median is better by more than the parent's quartile spread."""
    p, c = entry["parent"], entry["change"]
    gap = abs(c["median"] - p["median"])
    return (
        len(p["runs"]) >= PAIRS
        and 10 * entry["pairs_won"] >= 9 * len(p["runs"])
        and better(c["median"], p["median"], entry["better"])
        and gap > p["q3"] - p["q1"]
    )


def run_once(directory: Path, workload: str, seconds: float) -> dict:
    """One untraced run in directory; its metrics as name -> value."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=directory, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: {workload} in {directory} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} in {directory} failed {result['failed']} of {result['attempted']} ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_export(directory: Path) -> None:
    if not (directory / "perfbench" / "run.py").is_file():
        raise SystemExit(f"error: {directory} has no perfbench/run.py")
    if (directory / ".git").exists() or next(directory.rglob("__pycache__"), None):
        raise SystemExit(f"error: {directory} is not a clean export (it has .git or __pycache__)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="directory of the parent commit")
    parser.add_argument("--parent-id", required=True)
    parser.add_argument("--change", type=Path, required=True, help="directory of the changed commit")
    parser.add_argument("--change-id", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--claim", required=True, help="workload:metric the gain is claimed on")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for directory in (args.parent, args.change):
        check_export(directory)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    claim_workload, _, claim_metric = args.claim.partition(":")
    if claim_workload not in args.workload or claim_metric not in {m["name"] for m in metrics}:
        parser.error("--claim needs a workload that is run and an end-to-end metric of BENCHMARK.json")
    workloads = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(run_once(getattr(args, name), workload, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS} {name}: wall_s {runs[name][-1]['wall_s']:.5f}",
                      file=sys.stderr)
        workloads[workload] = {
            m["name"]: compare(
                [r[m["name"]] for r in runs["parent"]], [r[m["name"]] for r in runs["change"]], m["unit"], m["better"]
            )
            for m in metrics
        }

    record = {
        "parent": args.parent_id,
        "change": args.change_id,
        "command": f"python3 perfbench/run.py --workload <workload> --seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "setting": f"{SETTING}; {os.cpu_count()}-vCPU host",
        "claim": {
            "workload": claim_workload,
            "metric": claim_metric,
            "met": claim_met(workloads[claim_workload][claim_metric]),
        },
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
