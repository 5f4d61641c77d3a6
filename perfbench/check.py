"""Checkers for strong-domination evidence, independent of ordseq.

Sequences are plain dicts {order: multiplicity}.  Nothing here imports
ordseq or runs a max-flow: a flow plan or Hall certificate is accepted
only on multiplicities and divisibility, so it cannot pass by sharing a
bug with the code that produced it.  Each checker returns None when the
evidence holds and a reason when it does not.

Run this file to feed both checkers sound and corrupted evidence.
"""

from __future__ import annotations

import sys


def check_plan(a: dict, b: dict, plan) -> str | None:
    """Rows (a_order, b_order, amount) must form a transport of b onto a:
    every amount positive, b_order dividing a_order, and the row sums
    equal to the multiplicities of both sequences."""
    got_a: dict[int, int] = {}
    got_b: dict[int, int] = {}
    for d, e, amount in plan:
        if amount <= 0:
            return f"row ({d}, {e}) carries {amount}, not a positive amount"
        if d % e:
            return f"order {e} does not divide order {d}"
        got_a[d] = got_a.get(d, 0) + amount
        got_b[e] = got_b.get(e, 0) + amount
    if got_a != a:
        return "row sums differ from the multiplicities of the dominating sequence"
    if got_b != b:
        return "row sums differ from the multiplicities of the dominated sequence"
    return None


def check_hall(a: dict, b: dict, a_orders, b_orders, need: int, have: int) -> str | None:
    """A Hall set of a-orders must need more slots than the b-orders
    dividing them can supply, with need and have recomputed here."""
    if not a_orders or any(d not in a for d in a_orders):
        return f"a-orders {list(a_orders)} are not a non-empty set of orders of the sequence"
    covered = tuple(sorted(e for e in b if any(d % e == 0 for d in a_orders)))
    if tuple(b_orders) != covered:
        return f"b-orders {list(b_orders)} are not the divisors present, {list(covered)}"
    real_need = sum(a[d] for d in a_orders)
    real_have = sum(b[e] for e in covered)
    if (need, have) != (real_need, real_have):
        return f"need/have {need}/{have} differ from the recomputed {real_need}/{real_have}"
    if real_need <= real_have:
        return f"need {real_need} does not exceed have {real_have}"
    return None


def dominates(a: dict, b: dict) -> bool:
    """a has at most as many elements of order <= t as b, for every t."""
    ca = cb = 0
    for t in sorted(set(a) | set(b)):
        ca += a.get(t, 0)
        cb += b.get(t, 0)
        if ca > cb:
            return False
    return True


def covers(items: dict) -> set[tuple[str, str]]:
    """(lower, higher) name pairs of the Hasse diagram of domination.

    `items` maps names to pairwise distinct sequences of one length, so
    domination is antisymmetric on them and no classes merge.
    """
    names = sorted(items)
    k = len(names)
    above = [0] * k  # bit j set when names[j] strictly dominates names[i]
    below = [0] * k  # bit i set when names[j] strictly dominates names[i]
    for i in range(k):
        for j in range(k):
            if i != j and dominates(items[names[j]], items[names[i]]):
                above[i] |= 1 << j
                below[j] |= 1 << i
    # j covers i when nothing strictly above i lies strictly below j
    return {
        (names[i], names[j])
        for i in range(k)
        for j in range(k)
        if above[i] >> j & 1 and not above[i] & below[j]
    }


def selftest() -> list[str]:
    """Feed sound and corrupted evidence to both checkers; list the mistakes."""
    c4 = {1: 1, 2: 1, 4: 2}
    v4 = {1: 1, 2: 3}
    plan = [(1, 1, 1), (2, 2, 1), (4, 2, 2)]
    mistakes = []
    if check_plan(c4, v4, plan) is not None:
        mistakes.append("a sound plan was rejected")
    bad_plans = {
        "an amount changed": [(1, 1, 1), (2, 2, 1), (4, 2, 3)],
        "a row that does not divide": [(1, 1, 1), (2, 2, 1), (4, 2, 1), (2, 4, 1)],
        "a zero row added": plan + [(4, 1, 0)],
        "a row moved to another order": [(1, 1, 1), (4, 2, 1), (4, 2, 2)],
    }
    for label, bad in bad_plans.items():
        if check_plan(c4, v4, bad) is None:
            mistakes.append(f"a plan with {label} was accepted")
    small = {1: 1, 2: 7}
    big_b = {1: 1, 2: 1, 4: 6}
    if check_hall(small, big_b, (1, 2), (1, 2), 8, 2) is not None:
        mistakes.append("a sound Hall certificate was rejected")
    bad_certs = {
        "an inflated need": ((1, 2), (1, 2), 9, 2),
        "a shrunk have": ((1, 2), (1, 2), 8, 1),
        "a b-order dropped": ((1, 2), (1,), 8, 1),
        "an order the sequence lacks": ((1, 2, 8), (1, 2), 8, 2),
    }
    for label, cert in bad_certs.items():
        if check_hall(small, big_b, *cert) is None:
            mistakes.append(f"a Hall certificate with {label} was accepted")
    if check_hall(v4, v4, (1, 2), (1, 2), 4, 4) is None:
        mistakes.append("a Hall certificate with need equal to have was accepted")
    return mistakes


if __name__ == "__main__":
    found = selftest()
    for line in found:
        print(f"checker mistake: {line}")
    print("checkers reject every corrupted plan and certificate" if not found else "checker self-test FAILED")
    sys.exit(1 if found else 0)
