"""Order sequences and the domination relations between them.

The order sequence of a group collects the orders of its elements as a
multiset.  One sequence dominates another of the same length when, for
every threshold, it has at most as many elements of order up to that
threshold; it strongly dominates when the elements can be matched so
that orders divide orders.  Strong domination is decided by a greedy
matching of orders finished by an augmenting-path search over pairs of
orders, which returns either a transport plan or a Hall certificate.

Domination compares counts at thresholds.  A sequence's base is its
minimal orders above 1 under divisibility; for the sequence of a group
of order n these are the primes dividing n (Cauchy), so no factoring is
needed.  When the base is pairwise coprime, n is a product of its
powers, the products of those powers dividing n number at most
GRID_LIMIT, and every order is one of them, those products are the
sequence's threshold grid.  Its key packs F(g), the number of elements
of order <= g, at each grid point g into one int, one field per point,
with a spare top bit per field as a guard.  Grids are cached per (base,
total), so two keys hold the same grid object exactly when they share a
base and a total; such keys are compared in one subtraction (Lamport,
"Multiple byte processing with full-word instructions", CACM 18(8),
1975).  Every other pair is packed over the union of its orders and
compared in the same subtraction; no pair is merged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import index, mul

from .errors import LengthMismatch, ParseError, PreconditionError
from .numth import euler_phi, factorize, is_power_of, prime_divisors
from .records import FrozenRecord


class OrderSequence:
    """Multiset of element orders, stored as (order, multiplicity) pairs.

    Its distinct orders (ascending, from the same sort as the pairs), its
    length (total) and its order sum (read by psi) are stored when it is
    built.  No per-order dict is kept: multiplicity bisects the orders.
    The threshold key that dominates reads is built on first use.
    """

    __slots__ = ("pairs", "orders", "total", "_psi", "_key")

    def __init__(self, counts):
        if hasattr(counts, "items"):
            counts = counts.items()
        merged: dict[int, int] = {}
        for order, mult in counts:
            try:
                order, mult = index(order), index(mult)
            except TypeError:
                raise PreconditionError("orders and multiplicities must be integers") from None
            if order < 1 or mult < 1:
                raise PreconditionError("orders and multiplicities must be positive")
            merged[order] = merged.get(order, 0) + mult
        if not merged:
            raise PreconditionError("an order sequence cannot be empty")
        self.pairs = tuple(sorted(merged.items()))
        self.orders, mults = zip(*self.pairs)
        self.total = sum(mults)
        self._psi = sum(map(mul, self.orders, mults))
        self._key = None  # (base, key, guard, grid) once built; () when there is no grid

    def multiplicity(self, order: int) -> int:
        i = bisect_left(self.orders, order)
        return self.pairs[i][1] if i < len(self.orders) and self.orders[i] == order else 0

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


@lru_cache(maxsize=None)
def order_sequence(group) -> OrderSequence:
    """The order sequence of a group, once per group (groups hash by identity)."""
    counts: dict[int, int] = {}
    for o in group.element_orders():
        counts[o] = counts.get(o, 0) + 1
    return OrderSequence(counts)


def cyclic_order_sequence(n: int) -> OrderSequence:
    """Order sequence of the cyclic group of order n: phi(d) elements of order d for each d | n."""
    return OrderSequence((d, euler_phi(d)) for d in range(1, n + 1) if n % d == 0)


def psi_k(seq: OrderSequence, k: int) -> int:
    """Sum of the k-th powers of the element orders, exactly."""
    return sum(m * d**k for d, m in seq.pairs)


def psi(seq: OrderSequence) -> int:
    """Sum of the element orders, stored when the sequence is built."""
    return seq._psi


def rho(seq: OrderSequence) -> int:
    """Product of the element orders, exactly."""
    out = 1
    for d, m in seq.pairs:
        out *= d**m
    return out


GRID_LIMIT = 4096  # most threshold grid points a key is built over


@lru_cache(maxsize=32)
def _grid(base: tuple[int, ...], total: int):
    """The _layout of the grid (each product of powers of base dividing total), or None."""
    grid = [1]
    rest = total
    for i, b in enumerate(base):
        if any(math.gcd(b, c) > 1 for c in base[:i]):
            return None
        powers = [1]
        while rest % b == 0:
            rest //= b
            powers.append(powers[-1] * b)
        if len(grid) * len(powers) > GRID_LIMIT:
            return None
        grid = [g * q for g in grid for q in powers]
    if rest != 1:
        return None
    return _layout(sorted(grid), total)


def _layout(points, total: int):
    """(shift, ones, mask, guard) for counts up to total at the ascending points.

    The points own fields of total.bit_length() // 8 + 1 bytes, lowest
    first, so no count up to total reaches a field's top bit.  shift maps
    each point to its field's lowest bit; ones has that bit set in every
    field, mask every bit of every field, and guard every field's top
    bit.
    """
    width = total.bit_length() // 8 + 1
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(points), "little")
    bits = 8 * width
    return {g: bits * i for i, g in enumerate(points)}, ones, (1 << bits * len(points)) - 1, ones << (bits - 1)


def _pack(pairs, shift, ones, mask) -> int:
    """F(g), the number of elements of order <= g, in the field of each point g.

    Each multiplicity goes into its order's field (a KeyError if the order
    has none); times ones, each field then also holds the sum of every
    field below it, with no carry since those sums are at most the total.
    """
    steps = 0
    for d, m in pairs:
        steps += m << shift[d]
    return steps * ones & mask


def _threshold_key(seq: OrderSequence):
    """(base, key, guard, grid) for the sequence's threshold grid, or () if it has none.

    key is _pack over the grid; guard is the grid's; grid is the tuple
    _grid returned, kept so that dominates can match grids by identity.
    """
    base = []
    for d in seq.orders:
        if d > 1:
            for b in base:
                if d % b == 0:
                    break
            else:
                base.append(d)
    base = tuple(base)
    grid = _grid(base, seq.total)
    if grid is None:
        return ()
    shift, ones, mask, guard = grid
    try:
        key = _pack(seq.pairs, shift, ones, mask)
    except KeyError:  # an order off the grid
        return ()
    return base, key, guard, grid


def dominates(a: OrderSequence, b: OrderSequence) -> bool:
    """Whether a has at most as many elements of order <= t as b, for all t.

    Then a's sorted orders are elementwise at least b's, so psi(a) >=
    psi(b): a smaller order sum is an exact reject in O(1), checked
    first, with the lengths checked inside it, so LengthMismatch still
    comes before every verdict.  Past it, both counts are packed by _pack
    on one layout holding every order of either, hence every threshold
    where a count changes: the stored keys when both hold the same grid
    object (matched by identity, never by value: the grids of 8 and 27
    have the same layout), else, once the lengths match, a layout over
    the union of their orders.  Below the lowest field where F_a(g) >
    F_b(g), fb - fa borrows nothing, and that field reads 2**w + F_b(g) -
    F_a(g) for its width w, with the guard bit set since F_a(g) <= total
    < guard bit; where F_a(g) <= F_b(g) everywhere, every field reads
    F_b(g) - F_a(g) < guard bit.  So a dominates b exactly when the
    difference misses every guard bit.  Keys are built on first use.
    """
    if a._psi < b._psi:
        if a.total != b.total:
            raise LengthMismatch(f"sequences have lengths {a.total} and {b.total}")
        return False
    ka = a._key
    if ka is None:
        ka = a._key = _threshold_key(a)
    kb = b._key
    if kb is None:
        kb = b._key = _threshold_key(b)
    if ka and kb and ka[3] is kb[3]:
        return not (kb[1] - ka[1]) & ka[2]
    if a.total != b.total:
        raise LengthMismatch(f"sequences have lengths {a.total} and {b.total}")
    shift, ones, mask, guard = _layout(sorted({*a.orders, *b.orders}), a.total)
    return not (_pack(b.pairs, shift, ones, mask) - _pack(a.pairs, shift, ones, mask)) & guard


def strictly_dominates(a: OrderSequence, b: OrderSequence) -> bool:
    return a != b and dominates(a, b)


def comparable(a: OrderSequence, b: OrderSequence) -> bool:
    return dominates(a, b) or dominates(b, a)


class HallCertificate(FrozenRecord):
    """Witness that no order-dividing matching exists.

    The orders in a_orders need `need` slots, but the b-orders they can
    map onto (every divisor that occurs) only supply `have` of them.
    """

    def __init__(self, a_orders: tuple[int, ...], b_orders: tuple[int, ...], need: int, have: int):
        super().__init__(a_orders, b_orders, need, have)


def strong_domination(a: OrderSequence, b: OrderSequence):
    """Decide strong domination of b by a, with evidence either way.

    Feasible means there is a bijection sending each element counted by b
    to one counted by a whose order it divides.  Returns (True, plan) with
    plan rows (a_order, b_order, amount) sorted, or (False, HallCertificate).

    A greedy start takes the b-orders largest first and matches each onto
    the smallest a-orders it divides among those with elements left, so
    equal orders come first; when the orders form a divisibility chain,
    the start is already a maximum matching.  If it leaves no b-order
    short, its rows are the plan.  Only otherwise does a breadth-first
    search run from the a-orders with elements left: an a-order reaches
    each b-order dividing it (listed when a search first reaches it), and
    a b-order with none left leads on to the a-orders it is matched with,
    since those matches can move.  Reaching a b-order with elements left
    moves one amount along the path.  The plan is one valid transport
    among possibly many.  The certificate is taken from the failed
    search: the a-orders it reached and the b-orders it listed for them,
    which are exactly their divisors.  It is not a choice: those a-orders
    are the unique smallest set with the largest shortfall, whatever
    matching was found.
    """
    if a.total != b.total:
        raise LengthMismatch(f"sequences have lengths {a.total} and {b.total}")
    spare = dict(a.pairs)  # a-elements of each order not matched yet
    live = list(a.orders)  # the a-orders with elements left
    rows = []  # greedy matches (a_order, b_order, amount)
    left_short = False
    for e, need in reversed(b.pairs):
        i = bisect_left(live, e)
        while i < len(live):
            d = live[i]
            if d % e:
                i += 1
                continue
            m = spare[d]
            if m > need:
                spare[d] = m - need
                rows.append((d, e, need))
                break
            spare[d] = 0
            del live[i]
            rows.append((d, e, m))
            need -= m
            if not need:
                break
        else:  # b-elements of order e are left over
            left_short = True
    if not left_short:
        return True, sorted(rows)
    short = dict(b.pairs)  # b-elements of each order not matched yet
    sent = {e: {} for e in short}  # sent[e][d]: matches of b-order e to a-order d
    for d, e, n in rows:
        short[e] -= n
        sent[e][d] = n
    targets = {}  # targets[d]: b-orders dividing d
    while True:
        queue = [d for d, m in spare.items() if m]
        if not queue:
            return True, sorted((d, e, n) for e, row in sent.items() for d, n in row.items() if n)
        via_a = dict.fromkeys(queue)  # a-order -> b-order it was reached from
        via_b = {}  # b-order -> a-order it was reached from
        end = None
        for d in queue:
            if d not in targets:
                targets[d] = [e for e in short if d % e == 0]
            for e in targets[d]:
                if e in via_b:
                    continue
                via_b[e] = d
                if short[e]:
                    end = e
                    break
                for d2, n in sent[e].items():
                    if n and d2 not in via_a:
                        via_a[d2] = e
                        queue.append(d2)
            if end is not None:
                break
        if end is None:
            break
        gain, lose = [], []  # pairs on the path whose matches grow or shrink
        e = end
        while e is not None:
            root = via_b[e]
            gain.append((root, e))
            e = via_a[root]
            if e is not None:
                lose.append((root, e))
        amount = min([spare[root], short[end]] + [sent[e][d] for d, e in lose])
        spare[root] -= amount
        short[end] -= amount
        for d, e in gain:
            sent[e][d] = sent[e].get(d, 0) + amount
        for d, e in lose:
            sent[e][d] -= amount

    # the failed search reached exactly the a-orders of a Hall violation
    stuck_a = tuple(sorted(via_a))
    covered_b = tuple(sorted(via_b))  # every b-order dividing stuck_a, listed by the search
    need = sum(a.multiplicity(d) for d in stuck_a)
    have = sum(b.multiplicity(e) for e in covered_b)
    if need <= have:
        raise AssertionError("a failed flow must expose a Hall violation")
    return False, HallCertificate(stuck_a, covered_b, need, have)


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


def nilpotent_from_sequence(seq: OrderSequence) -> bool:
    """Decide nilpotency from the sequence alone.

    A group is nilpotent exactly when, for every prime p dividing its
    order, the number of elements of p-power order (identity included)
    equals the full Sylow p-subgroup order.
    """
    for p, e in factorize(seq.total):
        count = 1
        for d, mult in seq.pairs:
            if d > 1 and is_power_of(d, p):
                count += mult
        if count != p**e:
            return False
    return True


def realize(seq: OrderSequence, n: int) -> list[str]:
    """Names of all catalog groups of order n realizing the sequence."""
    from .catalog import catalog

    groups = catalog(n)
    if plausibility_violation(seq, n) is not None:
        return []
    return [name for name, g in groups if order_sequence(g) == seq]
