"""Command line interface: sequences, comparisons, posets, graphs and suites."""

import argparse
import json
import sys

from .catalog import catalog
from .errors import (
    ParseError,
    PreconditionError,
    SizeLimitError,
    UnsupportedOrderError,
)
from .expressions import parse_group
from .graphs import directed_power_graph, gk_graph, power_graph, render_dot
from .partitions import (
    abelian_order_sequence,
    box_move_chain,
    conjugate,
    cyclic_subgroup_counts,
    partition,
    partitions_of,
)
from .posets import build_poset, render
from .sequences import (
    dominates,
    nilpotent_from_sequence,
    order_sequence,
    parse_sequence,
    plausibility_violation,
    psi,
    psi_k,
    realize,
    rho,
    strong_domination,
)
from .suites import SUITES, run_all, run_suite

_RHO_PRINT_LIMIT = 120


def _format_rho(value: int) -> str:
    digits = str(value)
    if len(digits) <= _RHO_PRINT_LIMIT:
        return digits
    return f"{digits[:12]}e{len(digits) - 12}"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_os(args) -> int:
    g = parse_group(args.expr, args.max_size)
    s = order_sequence(g)
    nilpotent = nilpotent_from_sequence(s)
    if args.json:
        _emit_json(
            {
                "order": g.size,
                "sequence": [[d, m] for d, m in s.pairs],
                "text": str(s),
                "psi": psi(s),
                "psi2": psi_k(s, 2),
                "rho": str(rho(s)),
                "exponent": g.exponent(),
                "nilpotent": nilpotent,
            }
        )
    else:
        print(
            f"{s}  psi={psi(s)} rho={_format_rho(rho(s))} psi2={psi_k(s, 2)}"
            f" exponent={g.exponent()} nilpotent={'yes' if nilpotent else 'no'}"
        )
    return 0


def _cmd_compare(args) -> int:
    sa = order_sequence(parse_group(args.a, args.max_size))
    sb = order_sequence(parse_group(args.b, args.max_size))
    a_over = dominates(sa, sb)
    b_over = dominates(sb, sa)
    if a_over and b_over:
        relation = "A=B"
    elif a_over:
        relation = "A>B"
    elif b_over:
        relation = "B>A"
    else:
        relation = "incomparable"
    strong = None
    certificate = None
    if relation != "incomparable":
        top, low = (sa, sb) if a_over else (sb, sa)
        strong, witness = strong_domination(top, low)
        if not strong:
            certificate = witness
    if args.json:
        _emit_json(
            {
                "relation": relation,
                "strong": strong,
                "certificate": None
                if certificate is None
                else {
                    "a_orders": list(certificate.a_orders),
                    "b_orders": list(certificate.b_orders),
                    "need": certificate.need,
                    "have": certificate.have,
                },
            }
        )
        return 0
    if strong is None:
        print(relation)
    else:
        print(f"{relation} {'strong' if strong else 'not-strong'}")
    if certificate is not None:
        a_txt = ",".join(map(str, certificate.a_orders))
        b_txt = ",".join(map(str, certificate.b_orders))
        print(
            f"certificate: orders {{{a_txt}}} hold {certificate.need} elements"
            f" but only {certificate.have} targets among orders {{{b_txt}}}"
        )
    return 0


def _cmd_poset(args) -> int:
    items = [(name, order_sequence(g)) for name, g in catalog(args.order)]
    poset = build_poset(items, lambda a, b: dominates(b, a))
    fmt = "dot" if args.dot or not args.json else "json"
    print(render(poset, fmt))
    return 0


def _cmd_verify(args) -> int:
    if args.order is not None and not args.suite:
        print("error: --order is only meaningful with --suite", file=sys.stderr)
        return 2
    if args.suite:
        if args.suite not in SUITES:
            known = ", ".join(sorted(SUITES))
            print(f"error: unknown suite {args.suite!r} (choose from {known})", file=sys.stderr)
            return 2
        reports = run_suite(args.suite, args.order)
    elif args.all or args.stretch:
        reports = run_all(stretch=args.stretch)
    else:
        print("error: choose --all, --stretch or --suite NAME", file=sys.stderr)
        return 2
    ok = all(r.passed for r in reports)
    if args.json:
        _emit_json({"passed": ok, "reports": [r.to_dict() for r in reports]})
    else:
        for r in reports:
            print(r.summary())
            for failure in r.failures:
                print(f"  failure: {failure}")
            for note in r.notes:
                print(f"  note: {note}")
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} suites passed")
    return 0 if ok else 1


def _cmd_realize(args) -> int:
    seq = parse_sequence(args.sequence)
    violation = plausibility_violation(seq, args.order)
    if violation is not None:
        tag, detail = violation
        if args.json:
            _emit_json({"plausible": False, "rule": tag, "detail": detail, "groups": []})
        else:
            print(f"implausible, rule {tag} ({detail})")
        return 0
    names = realize(seq, args.order)
    if args.json:
        _emit_json({"plausible": True, "rule": None, "detail": None, "groups": names})
    elif names:
        for name in names:
            print(name)
    else:
        print("plausible, but no catalog group matches")
    return 0


def _cmd_graph(args) -> int:
    g = parse_group(args.expr, args.max_size)
    builders = {"power": power_graph, "dpower": directed_power_graph, "gk": gk_graph}
    graph = builders[args.kind](g)
    if args.json:
        _emit_json(
            {
                "n": graph.n,
                "directed": graph.directed,
                "labels": list(graph.labels),
                "edges": sorted([a, b] for a, b in graph.edges),
            }
        )
    else:
        print(render_dot(graph))
    return 0


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise ParseError(f"cannot read {text!r} as comma-separated parts") from None


def _cmd_partition(args) -> int:
    if "," not in args.parts:
        try:
            n = int(args.parts)
        except ValueError:
            raise ParseError(f"cannot read {args.parts!r} as an integer or partition") from None
        rows = partitions_of(n)
        if args.json:
            _emit_json({"partitions": [list(row) for row in rows]})
        else:
            for row in rows:
                print(",".join(map(str, row)))
        return 0
    parts = partition(_parse_parts(args.parts))
    if args.chain is not None:
        target = partition(_parse_parts(args.chain))
        chain = box_move_chain(parts, target)
        if args.json:
            _emit_json({"chain": [list(step) for step in chain]})
        else:
            for step in chain:
                print(",".join(map(str, step)))
        return 0
    counts = cyclic_subgroup_counts(args.p, parts)
    seq = abelian_order_sequence(args.p, parts)
    if args.json:
        _emit_json(
            {
                "partition": list(parts),
                "conjugate": list(conjugate(parts)),
                "p": args.p,
                "total": counts.total,
                "part_product": counts.part_product,
                "sequence": [[d, m] for d, m in seq.pairs],
                "text": str(seq),
            }
        )
    else:
        print(f"partition: {','.join(map(str, parts))}")
        print(f"conjugate: {','.join(map(str, conjugate(parts)))}")
        print(f"cyclic subgroups: total={counts.total} part-product={counts.part_product}")
        print(f"sequence (p={args.p}): {seq}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--max-size", type=int, default=25000, help="largest group order the parser will build"
    )
    parser = argparse.ArgumentParser(prog="ordseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("os", parents=[common], help="order sequence and invariants of a group")
    p.add_argument("expr", help="group expression, e.g. 'C3 x Dic5'")
    p.set_defaults(func=_cmd_os)

    p = sub.add_parser("compare", parents=[common], help="compare two order sequences")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("poset", parents=[common], help="domination poset of a catalog order")
    p.add_argument("order", type=int)
    p.add_argument("--dot", action="store_true", help="force DOT output")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("--all", action="store_true", help="run every suite except gated ones")
    p.add_argument("--stretch", action="store_true", help="include the gated simple-group suite")
    p.add_argument("--suite", help="run one named suite")
    p.add_argument("--order", type=int, help="restrict a per-order suite to one order")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("realize", parents=[common], help="find catalog groups with a sequence")
    p.add_argument("sequence", help="collected sequence, e.g. '1:1,2:3,3:2'")
    p.add_argument("order", type=int)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("graph", parents=[common], help="power, directed power or prime graph")
    p.add_argument("kind", choices=["power", "dpower", "gk"])
    p.add_argument("expr")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("partition", parents=[common], help="partition tools: list, inspect, chain")
    p.add_argument("parts", help="an integer to list partitions, or parts like '4,1,1'")
    p.add_argument("--p", type=int, default=2, help="prime for sequence and subgroup counts")
    p.add_argument("--chain", help="target partition for a box-move chain")
    p.set_defaults(func=_cmd_partition)
    return parser


def _main(argv: list[str] | None = None) -> int:
    # rho of a 20160-element group runs to tens of thousands of digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    raise SystemExit(_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
