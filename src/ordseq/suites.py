"""Verification suites covering the order-sequence theorems at catalog scale.

Every suite returns a SuiteReport whose failure list is empty exactly when
all of its checks passed.  All bound comparisons are exact integer
comparisons; nothing here touches floating point.

The partition suite, the largest by case count, holds each relation on
the partitions of n as one column mask per partition (bit i for the
i-th) and compares whole columns; it walks single pairs only to word
the failures of a column that disagrees.
"""

import math
import time
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import neg

from .catalog import (
    abelian_sequences_of_order,
    catalog,
    elementary_product,
    frobenius20,
    frobenius21,
    nilpotent_group,
    nilpotent_sequences_of_order,
    supported_orders,
)
from .errors import NoWitness, PreconditionError
from .fields import affine_frobenius_group, psl_3_4
from .graphs import canonical_form, power_graph
from .groups import FiniteGroup, abelian, alternating, cyclic, dicyclic, direct_product
from .numth import euler_phi, factorize, is_prime, prime_divisors
from .partitions import (
    _box_move,
    _prefix_sums,
    abelian_order_sequence,
    conjugate,
    cyclic_subgroup_counts,
    partitions_of,
)
from .posets import build_poset, coordinatewise_up, extremes
from .records import Record
from .sequences import (
    comparable,
    cyclic_order_sequence,
    dominates,
    order_sequence,
    psi,
    rho,
    seq_join,
    seq_product,
    strictly_dominates,
    strong_domination,
)


class SuiteReport(Record):
    """Outcome of one verification suite run; failures and notes are lists of str, fresh per report."""

    def __init__(self, name: str, cases: int = 0, failures=None, notes=None, seconds: float = 0.0):
        failures = [] if failures is None else failures
        notes = [] if notes is None else notes
        super().__init__(name, cases, failures, notes, seconds)

    @property
    def passed(self) -> bool:
        return not self.failures

    def require(self, ok: bool, description: str) -> bool:
        if not ok:
            self.failures.append(description)
        return ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "cases": self.cases,
            "failures": list(self.failures),
            "notes": list(self.notes),
            "seconds": round(self.seconds, 3),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict} {self.name}: {self.cases} cases in {self.seconds:.2f}s"
        if self.failures:
            line += f", {len(self.failures)} failure(s)"
        return line


def nonnilpotent_order_witness(n: int):
    """Least (p, d, q) in lexicographic order with q | p^d - 1 and p^d*q | n.

    Such a witness exists exactly when some group of order n fails to be
    nilpotent; p and q are prime.
    """
    if n < 1:
        raise PreconditionError("order must be positive")
    primes = prime_divisors(n)
    for p in primes:
        d, pd = 1, p
        while n % pd == 0:
            for q in primes:
                if (pd - 1) % q == 0 and n % (pd * q) == 0:
                    return (p, d, q)
            d += 1
            pd *= p
    return None


def minimal_nonnilpotent_group(n: int) -> FiniteGroup:
    """The affine Frobenius core of the least witness times an elementary complement."""
    w = nonnilpotent_order_witness(n)
    if w is None:
        raise NoWitness(f"every group of order {n} is nilpotent")
    p, d, q = w
    core = affine_frobenius_group(p, d, q)
    rest = n // (p**d * q)
    if rest == 1:
        return core
    return direct_product(core, elementary_product(rest))


def suite_unique_max(n: int) -> SuiteReport:
    """The cyclic sequence strongly dominates every other, strictly, with strict psi and rho."""
    rep = SuiteReport(f"unique-max[{n}]")
    groups = catalog(n)  # an unknown order is refused before the cyclic sequence is built
    top = cyclic_order_sequence(n)
    top_names = []
    for name, g in groups:
        rep.cases += 1
        s = order_sequence(g)
        ok, _ = strong_domination(top, s)
        rep.require(ok, f"os(C{n}) does not strongly dominate os({name})")
        if s == top:
            top_names.append(name)
            continue
        rep.require(strictly_dominates(top, s), f"domination of {name} is not strict")
        rep.require(psi(s) < psi(top), f"psi({name}) is not below psi(C{n})")
        rep.require(rho(s) < rho(top), f"rho({name}) is not below rho(C{n})")
    rep.require(top_names == [f"C{n}"], f"groups sharing the cyclic sequence: {top_names}")
    return rep


def suite_gap_bounds(n: int) -> SuiteReport:
    """Exact psi and rho gaps below the cyclic group, with the known equality cases."""
    if n <= 1:
        raise PreconditionError("gap bounds need an order greater than 1")
    groups = catalog(n)  # an unknown order is refused before the cyclic sequence is built
    rep = SuiteReport(f"gap-bounds[{n}]")
    q = prime_divisors(n)[0]
    top = cyclic_order_sequence(n)
    psi_top, rho_top = psi(top), rho(top)
    gap = n * euler_phi(n) * (q - 1) // q
    scale = q ** euler_phi(n)
    equality = []
    for name, g in groups:
        s = order_sequence(g)
        if s == top:
            continue
        rep.cases += 1
        psi_s, rho_s = psi(s), rho(s) * scale
        if psi_s > psi_top - gap:
            rep.failures.append(f"psi bound fails for {name}: {psi_s} > {psi_top - gap}")
        rep.require(rho_s <= rho_top, f"rho bound fails for {name}")
        psi_eq = psi_s == psi_top - gap
        rho_eq = rho_s == rho_top
        rep.require(psi_eq == rho_eq, f"psi and rho equality disagree for {name}")
        if psi_eq:
            equality.append(name)
    expected = set()
    root = math.isqrt(n)
    if root * root == n and is_prime(root):
        expected.add(f"C{root}xC{root}")
    if n == 8:
        expected.add("Q8")
    rep.require(
        sorted(equality) == sorted(expected),
        f"equality cases {sorted(equality)} differ from expected {sorted(expected)}",
    )
    rep.note(f"equality at: {', '.join(sorted(equality)) or 'none'}")
    return rep


def suite_extension() -> SuiteReport:
    """seq_product of a coprime abelian normal piece and the quotient strongly dominates the extension."""
    rep = SuiteReport("extension")
    triples = [
        (abelian([2, 2]), cyclic(3), alternating(4)),
        (cyclic(3), cyclic(4), dicyclic(12)),
        (cyclic(5), cyclic(4), frobenius20()),
        (cyclic(7), cyclic(3), frobenius21()),
    ]
    for g, h, k in triples:
        rep.cases += 1
        label = f"({g.name}, {h.name}, {k.name})"
        if not g.is_abelian():
            rep.failures.append(f"{label}: first factor is not abelian")
            continue
        if math.gcd(g.size, h.size) != 1:
            rep.failures.append(f"{label}: factor orders are not coprime")
            continue
        if k.size != g.size * h.size:
            rep.failures.append(f"{label}: sizes do not multiply up")
            continue
        prod = seq_product(order_sequence(g), order_sequence(h))
        ok, _ = strong_domination(prod, order_sequence(k))
        rep.require(ok, f"{label}: product sequence does not strongly dominate os({k.name})")
    return rep


def suite_nilpotent_minimality(n: int) -> SuiteReport:
    """Minimal nilpotent groups have prime-exponent Sylows; the witness group sits properly below them."""
    rep = SuiteReport(f"nilpotent-minimality[{n}]")
    items = nilpotent_sequences_of_order(n)
    poset = build_poset(list(items), lambda a, b: dominates(b, a))
    _, minimal, _ = extremes(poset)
    for cls in minimal:
        for name in cls.split("="):
            rep.cases += 1
            # the Sylow exponents are read off the group's elements
            g = nilpotent_group(n, name)
            orders = g.element_orders()
            for p in prime_divisors(n):
                exp = reduce(math.lcm, map(orders.__getitem__, g.sylow_subgroup(p)))
                rep.require(exp == p, f"minimal nilpotent {name} has a Sylow {p}-subgroup of exponent {exp}")
    rep.note(f"minimal nilpotent classes: {', '.join(minimal)}")
    if nonnilpotent_order_witness(n) is None:
        rep.note("no non-nilpotent group at this order")
        return rep
    h = minimal_nonnilpotent_group(n)
    hs = order_sequence(h)
    rep.cases += 1
    rep.require(not h.is_nilpotent(), f"{h.name} should not be nilpotent")
    for name, s in items:
        rep.cases += 1
        rep.require(
            dominates(s, hs) and s != hs,
            f"os({name}) does not properly dominate os({h.name})",
        )
    rep.cases += 1
    elementary = reduce(seq_join, (abelian_order_sequence(p, (1,) * a) for p, a in factorize(n)))
    ok, _ = strong_domination(elementary, hs)
    rep.require(ok, f"the prime-exponent abelian sequence does not strongly dominate os({h.name})")
    return rep


def _default_bound_cases():
    return [
        (1, [abelian([2, 2])]),
        (3, [abelian([2, 2])]),
        (5, [dicyclic(8, "Q8")]),
        (1, [abelian([2, 4])]),
        (1, [abelian([2, 2]), abelian([3, 3])]),
    ]


def suite_improved_nilpotent_bound(cases=None) -> SuiteReport:
    """rho of a cyclic-times-noncyclic-p-groups product meets the sharpened cyclic bound exactly."""
    rep = SuiteReport("improved-bound")
    for m, p_groups in cases if cases is not None else _default_bound_cases():
        rep.cases += 1
        primes = []
        for pg in p_groups:
            pd = prime_divisors(pg.size)
            if len(pd) != 1:
                raise PreconditionError(f"{pg.name} is not a p-group")
            if pg.exponent() == pg.size:
                raise PreconditionError(f"{pg.name} is cyclic")
            primes.append(pd[0])
        if len(set(primes)) != len(primes):
            raise PreconditionError("the p-groups must live over distinct primes")
        if m < 1 or any(m % p == 0 for p in primes):
            raise PreconditionError("the cyclic part must be coprime to every p-group")
        # the product's sequence is the lcm-join of its factors'; it is not built
        joined = reduce(seq_join, map(order_sequence, p_groups), cyclic_order_sequence(m))
        size = joined.total
        lhs = rho(joined)
        for p in primes:
            lhs *= p ** (size * (p - 1) // p)
        rhs = rho(cyclic_order_sequence(size))
        label = f"C{m} x " + " x ".join(pg.name for pg in p_groups)
        rep.require(lhs <= rhs, f"{label}: sharpened rho bound fails")
        elementary = all(pg.size == p * p and pg.exponent() == p for pg, p in zip(p_groups, primes))
        if elementary:
            rep.require(lhs == rhs, f"{label}: equality required for squares of primes")
        rep.note(f"{label}: {'equality' if lhs == rhs else 'strict'}")
    return rep


@lru_cache(maxsize=None)
def _partition_facts(n: int):
    """The half of suite_partition(n, p) that does not depend on p, worked out once per n.

    Returns the partitions of n, their cyclic-subgroup counts (the
    part_product of cyclic_subgroup_counts, the same for every p) and,
    per mu, four columns: masks over the partitions, bit i for the i-th.
    They hold the lam that majorize mu, the lam whose conjugate mu's
    conjugate majorizes, the lam with counts[lam] <= counts[mu], and the
    lam majorizing mu whose box-move chain down to mu strictly raises the
    count (mu's own bit is set).  The first three are coordinatewise
    up-sets of prefix sums and counts.  Read-only: the cache hands every
    caller the same objects.
    """
    parts = partitions_of(n)
    counts = {lam: cyclic_subgroup_counts(2, lam).part_product for lam in parts}
    maj = coordinatewise_up([_prefix_sums(lam, n) for lam in parts])
    conj = coordinatewise_up([tuple(map(neg, _prefix_sums(conjugate(lam), n))) for lam in parts])
    monotone = coordinatewise_up([(-counts[lam],) for lam in parts])
    # The chain from lam is lam and then the chain from its first move,
    # which lands lexicographically lower, at a higher index: walking mu's
    # majorization column from its highest bit finds that bit decided, and
    # a move off the partitions of n has none.
    bit = {lam: 1 << i for i, lam in enumerate(parts)}
    rising = []
    for mu, above in zip(parts, maj):
        column = bit[mu]
        rest = above & ~column
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            lam = parts[i]
            nxt = _box_move(lam, mu)
            if column & bit.get(nxt, 0) and counts[lam] < counts[nxt]:
                column |= 1 << i
        rising.append(column)
    return tuple(parts), counts, tuple(zip(maj, conj, monotone, rising))


def _partition_failures(parts, dom, columns) -> list[str]:
    """suite_partition's failure lines, pair by pair with lam before mu, read off the columns."""
    failures = []
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            maj, conj, monotone, rising = (bool(c >> i & 1) for c in columns[j])
            d = bool(dom[j] >> i & 1)
            if not d == maj == conj:
                failures.append(f"{lam} vs {mu}: domination {d}, majorization {maj}, conjugate {conj}")
            if not maj or i == j:
                continue
            if not monotone:
                failures.append(f"cyclic-subgroup count not monotone from {lam} to {mu}")
            if not rising:
                failures.append(f"box-move chain from {lam} to {mu} is not strictly increasing")
    return failures


def suite_partition(n: int, p: int) -> SuiteReport:
    """Majorization, conjugate reversal and sequence domination agree on abelian p-groups.

    Each check runs on a whole column at once: per mu, the lam whose
    sequence dominates mu's (one dominates call per pair) must be exactly
    the lam majorizing mu and the lam passing the conjugate test, and
    every lam strictly majorizing mu must have a count at most mu's and a
    strictly rising box-move chain.  Only a column that disagrees sends
    the suite through the pairs to say which.
    """
    if n > 10:
        raise PreconditionError("partition suite is capped at n = 10")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    rep = SuiteReport(f"partition[{n},p={p}]")
    parts, counts, columns = _partition_facts(n)
    seqs = [abelian_order_sequence(p, lam) for lam in parts]
    bit = [1 << i for i in range(len(parts))]
    dom = [sum(compress(bit, map(dominates, seqs, repeat(s)))) for s in seqs]
    rep.cases += len(parts) ** 2
    if any(
        d != maj or d != conj or maj & ~b & ~(monotone & rising)
        for d, b, (maj, conj, monotone, rising) in zip(dom, bit, columns)
    ):
        rep.failures += _partition_failures(parts, dom, columns)
    if (n, p) == (6, 2):
        rep.cases += 1
        a, b = (4, 1, 1), (3, 3)
        ok = (
            counts[a] == 20
            and counts[b] == 16
            and not comparable(seqs[parts.index(a)], seqs[parts.index(b)])
        )
        rep.require(ok, "converse counterexample (4,1,1) vs (3,3) did not reproduce")
        rep.note("counterexample: counts 20 vs 16 with incomparable sequences")
    return rep


def suite_order16() -> SuiteReport:
    """Order-16 landscape: group, sequence and power-graph class counts."""
    rep = SuiteReport("order16")
    pairs = catalog(16)
    rep.cases += 1
    rep.require(len(pairs) == 14, f"expected 14 groups, catalog has {len(pairs)}")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            rep.cases += 1
            rep.require(
                not pairs[i][1].is_isomorphic(pairs[j][1]),
                f"{pairs[i][0]} and {pairs[j][0]} are isomorphic",
            )
    seq_classes = {str(order_sequence(g)) for _, g in pairs}
    rep.cases += 1
    rep.require(len(seq_classes) == 9, f"expected 9 sequence classes, found {len(seq_classes)}")
    forms: dict = {}
    for name, g in pairs:
        forms.setdefault(canonical_form(power_graph(g)), []).append(name)
    rep.cases += 1
    rep.require(len(forms) == 12, f"expected 12 power-graph classes, found {len(forms)}")
    by_name = dict(pairs)
    rep.cases += 1
    rep.require(
        order_sequence(by_name["C4xC4"]) == order_sequence(by_name["Q8xC2"]),
        "C4xC4 and Q8xC2 do not share a sequence",
    )
    shared = sorted(sorted(names) for names in forms.values() if len(names) > 1)
    rep.note(f"power-graph coincidences: {shared}")
    return rep


def suite_order60() -> SuiteReport:
    """Order-60 landscape: the domination poset matches the known picture."""
    rep = SuiteReport("order60")
    pairs = catalog(60)
    seqs = {name: order_sequence(g) for name, g in pairs}
    rep.cases += 1
    rep.require(len(pairs) == 13, f"expected 13 groups, catalog has {len(pairs)}")
    rep.cases += 1
    rep.require(len({str(s) for s in seqs.values()}) == 13, "sequences are not pairwise distinct")
    poset = build_poset(list(seqs.items()), lambda a, b: dominates(b, a))
    _, minimal, unique_max = extremes(poset)
    rep.cases += 1
    rep.require(unique_max == "C60", f"unique maximum is {unique_max}")
    nilpotent = {name for name, g in pairs if g.is_nilpotent()}
    rep.cases += 1
    rep.require(nilpotent == {"C60", "C2xC30"}, f"nilpotent groups: {sorted(nilpotent)}")
    rep.cases += 1
    rep.require(
        len(minimal) == 4 and "A5" in minimal,
        f"minimal classes: {sorted(minimal)}",
    )
    by_name = dict(pairs)
    for name in ("C5xA4", "C3xD20", "C5xD12"):
        rep.cases += 1
        rep.require(
            not by_name[name].is_nilpotent()
            and dominates(seqs["C60"], seqs[name])
            and dominates(seqs["C2xC30"], seqs[name]),
            f"{name} is not a non-nilpotent group below both nilpotent groups",
        )
    rep.note(f"minimal classes: {', '.join(sorted(minimal))}")
    return rep


def suite_simple_pair() -> SuiteReport:
    """The two simple-group-sized order sequences of size 20160 compare as expected."""
    rep = SuiteReport("simple-pair")
    a8 = alternating(8)
    psl = psl_3_4()
    rep.cases += 1
    rep.require(a8.size == 20160 and psl.size == 20160, "both groups must have 20160 elements")
    sa, sp = order_sequence(a8), order_sequence(psl)
    rep.cases += 1
    rep.require(sa.pairs[0] == (1, 1) and sp.pairs[0] == (1, 1), "sequences must start with (1,1)")
    rep.cases += 1
    rep.require(dominates(sa, sp), "os(A8) does not dominate os(PSL34)")
    strong, _ = strong_domination(sa, sp)
    rep.note(f"domination is {'strong' if strong else 'not strong'}")
    rep.note(f"orders: A8 {sa.orders} vs PSL34 {sp.orders}")
    return rep


def _incomparable_pairs(seqs) -> list[tuple[str, str]]:
    """Name pairs (i < j, in listing order) of a (name, sequence) listing whose sequences are incomparable."""
    return [(a, b) for i, (a, sa) in enumerate(seqs) for b, sb in seqs[i + 1 :] if not comparable(sa, sb)]


def _catalog_sequences(n: int) -> list:
    return [(name, order_sequence(g)) for name, g in catalog(n)]


def suite_antichain() -> SuiteReport:
    """Smallest incomparable pairs: order 12 in general, order 36 among abelian groups."""
    rep = SuiteReport("antichain")
    for n in range(1, 12):
        listing = _catalog_sequences(n)
        rep.cases += math.comb(len(listing), 2)
        for a, b in _incomparable_pairs(listing):
            rep.failures.append(f"order {n}: {a} and {b} are incomparable")
    found = _incomparable_pairs(_catalog_sequences(12))
    rep.cases += 1
    rep.require(bool(found), "no incomparable pair at order 12")
    if found:
        rep.note(f"order 12 incomparable pair: {found[0][0]} vs {found[0][1]}")
    for n in range(2, 36):
        listing = abelian_sequences_of_order(n)
        rep.cases += math.comb(len(listing), 2)
        for a, b in _incomparable_pairs(listing):
            rep.failures.append(f"abelian order {n}: {a} and {b} are incomparable")
    found = _incomparable_pairs(abelian_sequences_of_order(36))
    rep.cases += 1
    rep.require(bool(found), "no incomparable abelian pair at order 36")
    if found:
        rep.note(f"abelian order 36 incomparable pair: {found[0][0]} vs {found[0][1]}")
    return rep


SUITES = {
    "unique-max": ("per-order", suite_unique_max),
    "gap-bounds": ("per-order", suite_gap_bounds),
    "extension": ("fixed", suite_extension),
    "nilpotent-minimality": ("per-order", suite_nilpotent_minimality),
    "improved-bound": ("fixed", suite_improved_nilpotent_bound),
    "partition": ("grid", suite_partition),
    "order16": ("fixed", suite_order16),
    "order60": ("fixed", suite_order60),
    "antichain": ("fixed", suite_antichain),
    "simple-pair": ("stretch", suite_simple_pair),
}


def run_suite(name: str, order: int | None = None) -> list[SuiteReport]:
    """Run one named suite, sweeping the supported orders when none is given.

    Each report's seconds is the wall time of its own suite call.
    """
    if name not in SUITES:
        raise KeyError(name)
    kind, fn = SUITES[name]
    if kind == "per-order":
        if order is None:
            calls = [(n,) for n in supported_orders() if n > 1 or name != "gap-bounds"]
        else:
            calls = [(order,)]
    elif kind == "grid":
        sizes = range(1, 11) if order is None else [order]
        calls = [(n, p) for n in sizes for p in (2, 3)]
    elif order is not None:
        raise PreconditionError(f"suite {name} does not take an order")
    else:
        calls = [()]
    reports = []
    for args in calls:
        t0 = time.perf_counter()
        rep = fn(*args)
        rep.seconds = time.perf_counter() - t0
        reports.append(rep)
    return reports


def run_all() -> list[SuiteReport]:
    """Run every suite except the simple-group pair, which runs only by name."""
    return [rep for name, (kind, _) in SUITES.items() if kind != "stretch" for rep in run_suite(name)]
