"""ordseq benchmark: one closed-loop client, one fresh interpreter per pass.

    python3 perfbench/run.py --workload verify|stretch|landscape|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
BENCHMARK.json names verify and landscape; stretch is run by hand (its
long passes leave too few per run for a steady tail; see NOTES.md).
Passes run one at a time, each in its own `python3 perfbench/child.py`
process, until the next pass would overrun --seconds (at least three
passes).  Every output is checked (see workloads.py and check.py).

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
runs one count-only pass, then alternates traced and untraced passes,
and prints the per-layer metrics; trace.overhead_s is the median, over
each traced pass and the untraced pass after it, of the difference in
wall time.  No layer queues or retries work, so there are no wait or
retry metrics.

Every time in the result line is scaled to reference speed: a fixed
piece of pure-Python work (calibrate.py, its own interpreter) is timed
before the first pass and after every pass, and each pass's times are
multiplied by CAL_REF_S / (the readings just before and just after it,
summed).  The host's speed changes in spells; the scaling takes them
out, and a change to ordseq does not move the calibration.  The
unscaled medians are printed above the result.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is non-zero, with no JSON line, when a pass
cannot start (for example when ./src/ordseq is missing).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402

WORKLOADS = ("verify", "stretch", "landscape")
MIN_PASSES = 3
LAST_START_S = 140  # never start a pass after this
RUN_LIMIT_S = 170  # a pass still running then is killed, so a run ends inside 180 s
SUITE_FAMILIES = (
    "unique-max",
    "gap-bounds",
    "extension",
    "nilpotent-minimality",
    "improved-bound",
    "partition",
    "order16",
    "order60",
    "antichain",
)
CAL_REF_S = 1.5  # the two calibration readings around a pass, summed, at reference speed
OPS_UNIT = {"verify": "suite cases", "stretch": "group elements", "landscape": "comparisons"}
LAYER_UNITS = {"calls": "count", "distinct": "count", "self_s": "s", "repeat_frac": "ratio", "hit_ratio": "ratio"}


class PassFailed(RuntimeError):
    pass


def one_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, repr(spawned)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise PassFailed(f"calibration: {proc.stderr.strip() or f'exit {proc.returncode}'}")
    return float(proc.stdout)


def closed_loop(workload: str, seed: int, seconds: float, modes) -> list[tuple[str, dict]]:
    """Run passes back to back, each followed by a calibration reading,
    while the next one is expected to fit."""
    start = time.monotonic()
    done: list[tuple[str, dict]] = []
    readings = [calibrate()]
    longest = 0.0
    for mode in modes:
        elapsed = time.monotonic() - start
        if done and elapsed + longest > LAST_START_S:
            break
        if len(done) >= MIN_PASSES and elapsed + longest > seconds:
            break
        t = time.monotonic()
        done.append((mode, one_pass(workload, seed, mode, RUN_LIMIT_S - elapsed)))
        readings.append(calibrate())
        longest = max(longest, time.monotonic() - t)
    for (_, r), before, after in zip(done, readings, readings[1:]):
        r["cal_s"] = before + after
    return done


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (len(xs) - 10) / len(xs) if i else 0.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed(r: dict) -> float:
    """The factor that scales a pass's times to reference speed."""
    return CAL_REF_S / r["cal_s"]


def end_to_end(results: list[dict]) -> dict:
    walls = [r["wall_s"] * speed(r) for r in results]
    tail_value, _ = tail(walls)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "wall_s.tail": metric(tail_value, "s"),
        "cpu_s": metric(statistics.median(r["cpu_s"] * speed(r) for r in results), "s"),
        "ops_per_s": metric(statistics.median(r["ops"] / w for r, w in zip(results, walls)), "1/s"),
        "setup_s": metric(statistics.median(r["setup_s"] * speed(r) for r in results), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(runs: list[tuple[str, dict]]) -> tuple[dict, list[str]]:
    traced = [r for mode, r in runs if mode == "trace"]
    plain = [r for mode, r in runs if mode == "plain"]
    counted = [r for mode, r in runs if mode == "count"]
    notes = []
    out = {}
    for name in traced[0]["layers"]:
        unit = LAYER_UNITS[name.rsplit(".", 1)[1]]
        if unit == "s":
            values = [r["layers"][name] * speed(r) for r in traced]
            out[name] = metric(statistics.median(values), unit)
        else:
            values = [r["layers"][name] for r in traced]
            if len(set(values)) > 1:
                notes.append(f"{name} differs between traced passes: {values}")
            out[name] = metric(values[0], unit)
    out["groups.mul.calls"] = metric(counted[0]["layers"]["groups.mul.calls"], "count")
    for family in SUITE_FAMILIES:
        per_pass = [
            speed(r) * sum(s for name, s in r["details"].get("suite_seconds", {}).items() if name.split("[")[0] == family)
            for r in plain
        ]
        out[f"suites.{family}.s"] = metric(statistics.median(per_pass), "s")
    # each traced pass is paired with the untraced pass after it, so that a
    # slow spell of the machine lands on both sides of a difference
    pairs = [(a["wall_s"] * speed(a), b["wall_s"] * speed(b)) for (ma, a), (mb, b) in zip(runs, runs[1:]) if (ma, mb) == ("trace", "plain")]
    out["trace.overhead_s"] = metric(statistics.median(t - u for t, u in pairs), "s")
    shares = sorted(
        (
            (statistics.median(r["layers"][k] / r["wall_s"] for r in traced), k)
            for k in traced[0]["layers"]
            if k.endswith(".self_s")
        ),
        reverse=True,
    )
    notes.append("self time as a share of the traced pass: " + ", ".join(f"{k} {s:.1%}" for s, k in shares if s))
    return out, notes


def describe_inputs(workload: str, seed: int, results: list[dict]) -> list[str]:
    if workload != "landscape":
        return [f"inputs: fixed (seed {seed} is not used by this workload)"]
    details = next((r["details"] for r in results if r["details"]), None)
    if details is None:
        return [f"inputs: seed {seed}, no pass produced output to describe"]
    orders = details["orders"]
    share = details["not_strong"] / max(details["covers"], 1)
    return [
        f"inputs: seed {seed} drew N = {', '.join(map(str, orders))}",
        f"  items per N: {details['items']}",
        f"  distinct orders per N: {min(details['distinct_orders'])}..{max(details['distinct_orders'])}",
        f"  covers: {details['covers']}, not strong: {details['not_strong']} ({share:.2%})",
        f"  reference digest: {details['digest']}",
    ]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    modes = ["count"] + ["trace", "plain"] * 1000 if trace else ["plain"] * 1000
    try:
        runs = closed_loop(workload, seed, seconds, modes)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: a {workload} pass could not run: {exc}", file=sys.stderr)
        return 1
    results = [r for _, r in runs]
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)

    print(f"workload {workload}, seed {seed}, trace {trace}: {len(runs)} passes, one fresh interpreter each")
    print(f"ops per pass: {results[0]['ops']} ({OPS_UNIT[workload]})")
    for line in describe_inputs(workload, seed, results):
        print(line)
    for r in results:
        if r["error"]:
            print(f"pass raised: {r['error']}")
    if trace:
        metrics, notes = per_layer(runs)
        for line in notes:
            print(line)
    else:
        metrics = end_to_end(results)
        _, pct = tail([r["wall_s"] for r in results])
        print(f"wall_s.tail is p{pct:.0f} of {len(results)} passes")
        print(f"unscaled medians: wall_s {statistics.median(r['wall_s'] for r in results):.4f} s, "
              f"setup_s {statistics.median(r['setup_s'] for r in results):.4f} s, "
              f"calibration {statistics.median(r['cal_s'] for r in results):.4f} s "
              f"(reference {CAL_REF_S} s)")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:34s} {value} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mistakes = check.selftest()
    if mistakes:
        print("checker self-test failed: " + "; ".join(mistakes), file=sys.stderr)
        return 1
    if not (ROOT / "src" / "ordseq" / "__init__.py").is_file():
        print(f"error: no ordseq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    for workload in WORKLOADS:
        for trace in (0, 1):
            code = run_one(workload, args.seed, args.seconds, trace)
            if code:
                return code
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
