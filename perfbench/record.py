"""Record the reference outputs the benchmark gates on.

    python3 perfbench/record.py

Run it on a commit whose outputs are trusted; it rewrites
perfbench/reference/.  verify keeps `ordseq verify --all --json` minus
the timing fields, stretch keeps the compare output and both order
sequences, landscape keeps a digest of covers and verdicts per seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

LANDSCAPE_SEEDS = [*range(0, 100), 7777]


def write(name: str, payload) -> None:
    workloads.REFERENCE.mkdir(exist_ok=True)
    (workloads.REFERENCE / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")


def main() -> None:
    from ordseq.expressions import parse_group
    from ordseq.sequences import order_sequence

    write("verify", workloads.strip_seconds(json.loads(workloads.run_cli(workloads.VERIFY_ARGS))))
    sequences = {name: order_sequence(parse_group(name)).pairs for name in ("A8", "PSL34")}
    write("stretch", {"output": json.loads(workloads.run_cli(workloads.STRETCH_ARGS)), "sequences": sequences})
    digests = {}
    for seed in LANDSCAPE_SEEDS:
        inputs = workloads.landscape_make(seed)
        digests[str(seed)] = workloads.landscape_digest(workloads.landscape_run(inputs))
        print(f"landscape seed {seed}: {digests[str(seed)][:16]}", flush=True)
    write("landscape", {"digests": digests})


if __name__ == "__main__":
    main()
