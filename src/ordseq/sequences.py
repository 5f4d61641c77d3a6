"""Order sequences and the domination relations between them.

The order sequence of a group collects the orders of its elements as a
multiset.  One sequence dominates another of the same length when, for
every threshold, it has at most as many elements of order up to that
threshold; it strongly dominates when the elements can be matched so
that orders divide orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LengthMismatch, ParseError, PreconditionError
from .numth import euler_phi, prime_divisors


class OrderSequence:
    """Multiset of element orders, stored as (order, multiplicity) pairs."""

    __slots__ = ("pairs", "total", "_map")

    def __init__(self, counts):
        if hasattr(counts, "items"):
            counts = counts.items()
        merged: dict[int, int] = {}
        for order, mult in counts:
            if order < 1 or mult < 1:
                raise PreconditionError("orders and multiplicities must be positive")
            merged[order] = merged.get(order, 0) + mult
        if not merged:
            raise PreconditionError("an order sequence cannot be empty")
        self.pairs = tuple(sorted(merged.items()))
        self.total = sum(merged.values())
        self._map = merged

    def multiplicity(self, order: int) -> int:
        return self._map.get(order, 0)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.pairs)

    def expanded(self) -> tuple[int, ...]:
        return tuple(d for d, m in self.pairs for _ in range(m))

    def count_up_to(self, threshold: int) -> int:
        return sum(m for d, m in self.pairs if d <= threshold)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderSequence) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"OrderSequence({dict(self.pairs)})"

    def __str__(self) -> str:
        return ",".join(f"{d}:{m}" for d, m in self.pairs)


def parse_sequence(text: str) -> OrderSequence:
    """Parse the collected text form, comma-separated order:multiplicity."""
    counts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty entry in sequence text {text!r}")
        head, sep, tail = chunk.partition(":")
        if not sep:
            raise ParseError(f"missing ':' in sequence entry {chunk!r}")
        try:
            counts.append((int(head), int(tail)))
        except ValueError:
            raise ParseError(f"non-integer sequence entry {chunk!r}") from None
    return OrderSequence(counts)


def order_sequence(group) -> OrderSequence:
    counts: dict[int, int] = {}
    for o in group.element_orders():
        counts[o] = counts.get(o, 0) + 1
    return OrderSequence(counts)


def psi_k(seq: OrderSequence, k: int) -> int:
    """Sum of the k-th powers of the element orders, exactly."""
    return sum(m * d**k for d, m in seq.pairs)


def psi(seq: OrderSequence) -> int:
    return psi_k(seq, 1)


def rho(seq: OrderSequence) -> int:
    """Product of the element orders, exactly."""
    out = 1
    for d, m in seq.pairs:
        out *= d**m
    return out


def dominates(a: OrderSequence, b: OrderSequence) -> bool:
    """Whether a has at most as many elements of order <= t as b, for all t.

    Only thresholds at a's orders need checking: between two of them a's
    count stays fixed while b's can only rise.
    """
    if a.total != b.total:
        raise LengthMismatch(f"sequences have lengths {a.total} and {b.total}")
    pb = b.pairs
    nb = len(pb)
    ca = cb = ib = 0
    for d, m in a.pairs:
        ca += m
        while ib < nb and pb[ib][0] <= d:
            cb += pb[ib][1]
            ib += 1
        if ca > cb:
            return False
    return True


def strictly_dominates(a: OrderSequence, b: OrderSequence) -> bool:
    return a != b and dominates(a, b)


def comparable(a: OrderSequence, b: OrderSequence) -> bool:
    return dominates(a, b) or dominates(b, a)


@dataclass(frozen=True)
class HallCertificate:
    """Witness that no order-dividing matching exists.

    The orders in a_orders need `need` slots, but the b-orders they can
    map onto (every divisor that occurs) only supply `have` of them.
    """

    a_orders: tuple[int, ...]
    b_orders: tuple[int, ...]
    need: int
    have: int


def strong_domination(a: OrderSequence, b: OrderSequence):
    """Decide strong domination of b by a, with evidence either way.

    Feasible means there is a bijection sending each element counted by b
    to one counted by a whose order it divides.  Returns (True, plan) with
    plan rows (a_order, b_order, amount), or (False, HallCertificate).
    The plan is one valid transport among possibly many.  The certificate
    is not a choice: its a-orders are those reachable from the source in
    the residual graph, a set that every maximum flow leaves the same.
    """
    if a.total != b.total:
        raise LengthMismatch(f"sequences have lengths {a.total} and {b.total}")
    a_orders = [d for d, _ in a.pairs]
    b_orders = [d for d, _ in b.pairs]
    # transportation network: source -> a-order -> compatible b-order -> sink;
    # node 0 is the source, 1 the sink, then a-orders, then b-orders.
    # Edge i runs to head[i] with residual cap[i]; edge i ^ 1 is its reverse.
    source, sink = 0, 1
    a_node = {d: 2 + i for i, d in enumerate(a_orders)}
    b_node = {e: 2 + len(a_orders) + i for i, e in enumerate(b_orders)}
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(2 + len(a_orders) + len(b_orders))]

    def add_edge(u, v, c):
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)
        return len(head) - 2

    supply = {d: add_edge(source, a_node[d], m) for d, m in a.pairs}
    demand = {e: add_edge(b_node[e], sink, m) for e, m in b.pairs}
    links = [  # (a_order, b_order, edge)
        (d, e, add_edge(a_node[d], b_node[e], a.total)) for d in a_orders for e in b_orders if d % e == 0
    ]

    def push(path, amount):
        for i in path:
            cap[i] -= amount
            cap[i ^ 1] += amount

    # saturate same-order links first; augmenting paths finish the flow
    flow = 0
    for d, e, i in links:
        if d == e:
            amount = min(cap[supply[d]], cap[demand[e]])
            push((supply[d], i, demand[e]), amount)
            flow += amount
    while flow < a.total:
        via = [-1] * len(adj)  # edge that first reached each node
        via[source] = -2
        queue = [source]
        for u in queue:
            for i in adj[u]:
                v = head[i]
                if via[v] == -1 and cap[i] > 0:
                    via[v] = i
                    queue.append(v)
            if via[sink] != -1:
                break
        if via[sink] == -1:
            break
        path = []
        v = sink
        while v != source:
            path.append(via[v])
            v = head[via[v] ^ 1]
        amount = min(cap[i] for i in path)
        push(path, amount)
        flow += amount

    if flow == a.total:
        return True, [(d, e, cap[i ^ 1]) for d, e, i in links if cap[i ^ 1] > 0]

    # the last search reached exactly the residual source side: a Hall violation
    stuck_a = tuple(d for d in a_orders if via[a_node[d]] != -1)
    covered_b = tuple(e for e in b_orders if any(d % e == 0 for d in stuck_a))
    need = sum(a.multiplicity(d) for d in stuck_a)
    have = sum(b.multiplicity(e) for e in covered_b)
    if need <= have:
        raise AssertionError("a failed flow must expose a Hall violation")
    return False, HallCertificate(stuck_a, covered_b, need, have)


def strongly_dominates(a: OrderSequence, b: OrderSequence) -> bool:
    return strong_domination(a, b)[0]


def seq_product(a: OrderSequence, b: OrderSequence) -> OrderSequence:
    """Pairwise plain products; agrees with seq_join iff all pairs are coprime."""
    counts: dict[int, int] = {}
    for d, md in a.pairs:
        for e, me in b.pairs:
            counts[d * e] = counts.get(d * e, 0) + md * me
    return OrderSequence(counts)


def seq_join(a: OrderSequence, b: OrderSequence) -> OrderSequence:
    """Pairwise least common multiples; the order sequence of a direct product."""
    counts: dict[int, int] = {}
    for d, md in a.pairs:
        for e, me in b.pairs:
            k = math.lcm(d, e)
            counts[k] = counts.get(k, 0) + md * me
    return OrderSequence(counts)


def plausibility_violation(seq: OrderSequence, n: int | None = None):
    """The first violated realizability rule as (tag, detail), or None.

    Rules, in order: the length matches n; exactly one identity; every
    order divides n; for each prime p dividing n the count of order-p
    elements is -1 mod p; each multiplicity is divisible by phi(order).
    """
    if n is None:
        n = seq.total
    if seq.total != n:
        return "length", f"length {seq.total} does not match group order {n}"
    if seq.multiplicity(1) != 1:
        return "identity", f"multiplicity of order 1 is {seq.multiplicity(1)}, not 1"
    for d, _ in seq.pairs:
        if n % d:
            return "divides", f"order {d} does not divide {n}"
    for p in prime_divisors(n):
        m = seq.multiplicity(p)
        if m % p != p - 1:
            return "mod-p", f"count of order-{p} elements is {m}, not -1 mod {p}"
    for d, m in seq.pairs:
        if m % euler_phi(d):
            return "phi", f"multiplicity {m} of order {d} is not divisible by phi({d}) = {euler_phi(d)}"
    return None


def nilpotent_from_sequence(seq: OrderSequence, n: int | None = None) -> bool:
    """Decide nilpotency from the sequence alone.

    A group is nilpotent exactly when, for every prime p dividing its
    order, the number of elements of p-power order (identity included)
    equals the full Sylow p-subgroup order.
    """
    if n is None:
        n = seq.total
    if seq.total != n:
        raise LengthMismatch(f"sequence length {seq.total} does not match order {n}")
    for p in prime_divisors(n):
        sylow = 1
        m = n
        while m % p == 0:
            sylow *= p
            m //= p
        count = 1
        for d, mult in seq.pairs:
            if d > 1 and _is_power_of(d, p):
                count += mult
        if count != sylow:
            return False
    return True


def _is_power_of(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def realize(seq: OrderSequence, n: int) -> list[str]:
    """Names of all catalog groups of order n realizing the sequence."""
    from .catalog import catalog

    groups = catalog(n)
    if plausibility_violation(seq, n) is not None:
        return []
    return [name for name, g in groups if order_sequence(g) == seq]
