"""One pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED

MODE is plain (timed, untraced), trace (spans around every layer) or
count (a counter on every group multiplication).  SPAWNED is the
time.monotonic() reading the parent took just before starting this
process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
is measured from spawn to the first timed call.  The last line of
stdout is one JSON object.  A failure before the timed call (ordseq
missing, say) exits non-zero; a failure inside it is a failed pass.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def layer_metrics(tracer, cache_before) -> dict:
    calls, self_s = tracer.self_times()
    hits, misses = tracer.cache_counts()
    hits -= cache_before[0]
    misses -= cache_before[1]
    listing_calls = hits + misses
    seen, repeats = set(), 0
    for key in tracer.builds:
        repeats += key in seen
        seen.add(key)
    m = {
        "groups.build.calls": len(tracer.builds),
        "groups.build.distinct": len(seen),
        "groups.build.self_s": self_s["groups.build"],
        "groups.build.repeat_frac": repeats / len(tracer.builds) if tracer.builds else 0.0,
        "groups.element_orders.calls": calls["groups.element_orders"],
        "groups.element_orders.self_s": self_s["groups.element_orders"],
        "groups.structure.self_s": self_s["groups.structure"],
        "fields.build.calls": calls["fields.build"],
        "fields.build.self_s": self_s["fields.build"],
        "catalog.calls": listing_calls,
        "catalog.hit_ratio": hits / listing_calls if listing_calls else 0.0,
        "catalog.self_s": self_s["catalog"],
        "partitions.partition.calls": calls["partitions.partition"],
        "partitions.self_s": self_s["partitions.partition"] + self_s["partitions.other"],
        "graphs.power_graph.self_s": self_s["graphs.power_graph"],
        "graphs.canonical_form.calls": calls["graphs.canonical_form"],
        "graphs.canonical_form.self_s": self_s["graphs.canonical_form"],
    }
    for layer in ("sequences.order_sequence", "sequences.dominates", "sequences.strong_domination",
                  "posets.build_poset", "posets.hasse"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def main() -> int:
    workload, seed, mode, spawned = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import ordseq  # noqa: F401  (set-up: the import is part of what a user waits for)
    import ordseq.cli  # noqa: F401
    from workloads import WORKLOADS

    make, run, check = WORKLOADS[workload]
    inputs = make(seed)
    tracer = counter = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cache_before = tracer.cache_counts()
    elif mode == "count":
        from tracer import count_mul_calls

        counter = count_mul_calls()

    ready = time.monotonic()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    error = None
    try:
        output = run(inputs)
    except Exception as exc:  # a raising pass is a failed pass, reported below
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, cache_before)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.tsv")
    elif counter is not None:
        layers = {"groups.mul.calls": counter[0]}

    ops, failed, details = check(inputs, output)
    result = {
        "setup_s": ready - spawned,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "ops": ops,
        "failed": failed,
        "error": error,
        "details": details,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
