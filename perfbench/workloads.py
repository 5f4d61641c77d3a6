"""The three workloads: inputs, the timed call, and the output gate.

Each workload has make(seed) -> inputs (set-up, untimed), run(inputs) ->
output (the timed pass) and check(inputs, output) -> (ops, failed,
profile).  check never calls ordseq: it compares against outputs
recorded on the seed commit and against the checkers in check.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import check

REFERENCE = Path(__file__).resolve().parent / "reference"


def load_reference(name: str):
    return json.loads((REFERENCE / f"{name}.json").read_text())


def run_cli(argv: list[str]) -> str:
    """Run the `ordseq` console entry point with argv; return its stdout."""
    from ordseq.cli import main

    saved = sys.argv
    sys.argv = ["ordseq", *argv]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main()
    except SystemExit as stop:
        if stop.code not in (0, None):
            raise RuntimeError(f"ordseq {' '.join(argv)} exited with {stop.code}") from None
    finally:
        sys.argv = saved
    return out.getvalue()


def strip_seconds(payload: dict) -> dict:
    return {
        "passed": payload["passed"],
        "reports": [{k: v for k, v in r.items() if k != "seconds"} for r in payload["reports"]],
    }


# ---------------------------------------------------------------- verify

VERIFY_ARGS = ["verify", "--all", "--json"]


def verify_make(seed: int):
    return None


def verify_run(_inputs) -> str:
    return run_cli(VERIFY_ARGS)


def verify_check(_inputs, output):
    """ops are suite cases; a report that differs from the reference fails all its cases."""
    ref = load_reference("verify")
    ops = sum(r["cases"] for r in ref["reports"])
    try:
        got = json.loads(output)
        seconds = {r["name"]: r["seconds"] for r in got["reports"]}
        got = strip_seconds(got)
    except (TypeError, ValueError, KeyError):  # no output, or not the report format
        return ops, ops, {}
    mine = {r["name"]: r for r in got["reports"]}
    failed = sum(r["cases"] for r in ref["reports"] if mine.get(r["name"]) != r)
    if got["passed"] != ref["passed"] or len(mine) != len(ref["reports"]):
        failed = ops
    return ops, failed, {"suite_seconds": seconds}


# ---------------------------------------------------------------- stretch

STRETCH_ARGS = ["compare", "A8", "PSL34", "--json"]
STRETCH_OPS = 2 * 20160  # group elements processed


def stretch_make(seed: int):
    return None


def stretch_run(_inputs) -> str:
    return run_cli(STRETCH_ARGS)


def stretch_check(_inputs, output):
    """The verdict must match the reference and its Hall certificate must
    hold on the sequences recorded on the seed commit."""
    ref = load_reference("stretch")
    try:
        got = json.loads(output)
    except (TypeError, ValueError):  # no output, or not JSON
        return STRETCH_OPS, STRETCH_OPS, {}
    ok = got == ref["output"]
    cert = got.get("certificate")
    if ok and cert is not None:
        a, b = (
            {int(d): m for d, m in ref["sequences"][key]} for key in ("A8", "PSL34")
        )
        reason = check.check_hall(a, b, cert["a_orders"], cert["b_orders"], cert["need"], cert["have"])
        ok = reason is None
    return STRETCH_OPS, 0 if ok else STRETCH_OPS, {}


# ---------------------------------------------------------------- landscape

# Two families of orders N; the seed picks the primes, the exponents
# stay fixed so that every seed gives a pass of the same size.
#   deep: p^15, 176 abelian sequences over only 16 distinct orders, so
#         build_poset and hasse carry the work;
#   wide: 2^3 * 3^2 * q * r * s, 10 sequences (the Sylow 2-subgroup from
#         the order-8 catalog) over 96 distinct orders, so every cover is
#         a max-flow on a large network.  The 3^2 factor is what makes
#         some covers not strong, so Hall certificates get checked too.
DEEP_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
WIDE_PRIMES = (5, 7, 11, 13, 17, 19, 23)
DEEP_PER_PASS = 2
WIDE_PER_PASS = 4


def landscape_orders(seed: int) -> list[int]:
    rng = random.Random(seed)
    deep = [p**15 for p in rng.sample(DEEP_PRIMES, DEEP_PER_PASS)]
    wide = []
    while len(wide) < WIDE_PER_PASS:
        q, r, s = rng.sample(WIDE_PRIMES, 3)
        n = 2**3 * 3**2 * q * r * s
        if n not in wide:
            wide.append(n)
    return deep + wide


def landscape_items(n: int):
    """(name, sequence) for the nilpotent groups of order n, from closed forms.

    A nilpotent group is the direct product of its Sylow subgroups, so its
    sequence is the lcm-join of theirs.  Sylow 2-subgroups of order 8 and
    16 come from the catalog (one per distinct sequence); every other
    Sylow factor is abelian, one per partition of the exponent.
    """
    from ordseq.catalog import catalog
    from ordseq.numth import factorize
    from ordseq.partitions import abelian_order_sequence, partitions_of
    from ordseq.sequences import order_sequence, seq_join

    items = [("", None)]
    for p, e in factorize(n):
        if p == 2 and e in (3, 4):
            layer = sorted({order_sequence(g) for _, g in catalog(2**e)}, key=lambda s: s.pairs)
        else:
            layer = [abelian_order_sequence(p, lam) for lam in partitions_of(e)]
        items = [
            (f"{name}{'.' if name else ''}{p}^{e}#{i}", s if acc is None else seq_join(acc, s))
            for name, acc in items
            for i, s in enumerate(layer)
        ]
    return items


def landscape_make(seed: int):
    return seed, [(n, landscape_items(n)) for n in landscape_orders(seed)]


def landscape_run(inputs):
    """Per N: the domination poset, its Hasse covers, and strong domination on each cover."""
    from ordseq.posets import build_poset, hasse
    from ordseq.sequences import dominates, strong_domination

    out = []
    for n, items in inputs[1]:
        seqs = dict(items)
        poset = build_poset(items, lambda a, b: dominates(b, a))
        rows = []
        for lo, hi in hasse(poset):
            lo_name, hi_name = poset.names[lo], poset.names[hi]
            strong, evidence = strong_domination(seqs[hi_name], seqs[lo_name])
            rows.append((lo_name, hi_name, strong, evidence))
        out.append((n, len(poset.names), rows))
    return out


def landscape_digest(output) -> str:
    """sha256 over every N's covers and verdicts, in a fixed order."""
    canon = [[n, sorted([lo, hi, bool(strong)] for lo, hi, strong, _ in rows)] for n, _, rows in output]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def landscape_check(inputs, output):
    """ops are comparisons: k*k poset relations plus one strong-domination
    decision per cover.  Covers are recomputed by check.covers; every
    plan and Hall certificate goes through check.py; seeds recorded on
    the seed commit must also match their digest."""
    seed, inputs = inputs
    sizes = [len(items) ** 2 for _, items in inputs]
    if output is None or len(output) != len(inputs):
        ops = sum(sizes)
        return ops, ops, {}
    ops = failed = 0
    profile = {"orders": [], "items": [], "distinct_orders": [], "covers": 0, "not_strong": 0}
    for (n, items), size, (n_out, classes, rows) in zip(inputs, sizes, output):
        seqs = {name: dict(s.pairs) for name, s in items}
        profile["orders"].append(n)
        profile["items"].append(len(items))
        profile["distinct_orders"].append(len({d for s in seqs.values() for d in s}))
        profile["covers"] += len(rows)
        profile["not_strong"] += sum(1 for row in rows if not row[2])
        ops += size + len(rows)
        if n_out != n or classes != len(items) or {(lo, hi) for lo, hi, _, _ in rows} != check.covers(seqs):
            failed += size + len(rows)
            continue
        for lo, hi, strong, evidence in rows:
            a, b = seqs[hi], seqs[lo]
            if strong:
                reason = check.check_plan(a, b, evidence)
            else:
                reason = check.check_hall(a, b, evidence.a_orders, evidence.b_orders, evidence.need, evidence.have)
            failed += reason is not None
    recorded = load_reference("landscape")["digests"].get(str(seed))
    if recorded is None:
        profile["digest"] = "not recorded for this seed"
    elif recorded == landscape_digest(output):
        profile["digest"] = "matches the seed commit"
    else:
        profile["digest"] = "differs from the seed commit"
        failed = ops
    return ops, failed, profile


WORKLOADS = {
    "verify": (verify_make, verify_run, verify_check),
    "stretch": (stretch_make, stretch_run, stretch_check),
    "landscape": (landscape_make, landscape_run, landscape_check),
}
