"""End-to-end acceptance checks, one test per numbered requirement.

Run with -v for one pass/fail line per criterion.  The final test builds
two groups of order 20160.
"""

import math
import random

from ordseq.catalog import catalog, nilpotent_groups_of_order, supported_orders
from ordseq.fields import psl_3_4
from ordseq.groups import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    direct_product,
    symmetric,
)
from ordseq.numth import euler_phi, is_prime, prime_divisors
from ordseq.partitions import abelian_order_sequence, cyclic_subgroup_counts
from ordseq.sequences import (
    comparable,
    dominates,
    nilpotent_from_sequence,
    order_sequence,
    plausibility_violation,
    psi,
    rho,
    seq_join,
    seq_product,
    strong_domination,
)
from ordseq.suites import (
    minimal_nonnilpotent_group,
    nonnilpotent_order_witness,
    suite_antichain,
    suite_extension,
    suite_gap_bounds,
    suite_improved_nilpotent_bound,
    suite_order16,
    suite_order60,
    suite_partition,
    suite_simple_pair,
)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:02d}: {text}")


def test_criterion_01_order_sequences_of_walkthrough_groups():
    c6 = order_sequence(cyclic(6))
    assert str(c6) == "1:1,2:1,3:2,6:2"
    assert c6.pairs == ((1, 1), (2, 1), (3, 2), (6, 2))
    assert psi(c6) == 21
    assert rho(c6) == 648
    assert order_sequence(symmetric(3)).pairs == ((1, 1), (2, 3), (3, 2))
    assert str(order_sequence(dicyclic(12))) == "1:1,2:1,3:2,4:6,6:2"
    assert str(order_sequence(alternating(4))) == "1:1,2:3,3:8"
    _report(1, "order sequences of C6, S3, Dic12, A4 are exact")


def test_criterion_02_domination_and_strong_domination():
    dic12 = order_sequence(dicyclic(12))
    a4 = order_sequence(alternating(4))
    c12 = order_sequence(cyclic(12))
    assert dominates(dic12, a4)
    ok, cert = strong_domination(dic12, a4)
    assert not ok
    assert cert.need == 8 and cert.have == 4
    assert tuple(sorted(cert.a_orders)) == (1, 2, 4)
    assert tuple(sorted(cert.b_orders)) == (1, 2)
    assert strong_domination(c12, dic12)[0]
    assert strong_domination(c12, a4)[0]
    _report(2, "Dic12 > A4 but not strongly; C12 strongly dominates both")


def test_criterion_03_order16_landscape():
    rep = suite_order16()
    assert rep.passed, rep.failures
    assert rep.cases > 0
    _report(3, f"order-16 suite: {rep.cases} cases, no failures")


def test_criterion_04_order60_landscape():
    rep = suite_order60()
    assert rep.passed, rep.failures
    _report(4, f"order-60 suite: {rep.cases} cases, no failures")


def test_criterion_05_partition_majorization():
    for n in range(1, 11):
        for p in (2, 3):
            rep = suite_partition(n, p)
            assert rep.passed, (n, p, rep.failures)
    # the size-6 pair where the subgroup-count product reverses
    a = cyclic_subgroup_counts(2, (4, 1, 1))
    b = cyclic_subgroup_counts(2, (3, 3))
    assert a.part_product == 20 and b.part_product == 16
    assert a.total == 20 and b.total == 22
    assert not comparable(
        abelian_order_sequence(2, (4, 1, 1)), abelian_order_sequence(2, (3, 3))
    )
    _report(5, "majorization matches domination for all partitions up to size 10")


def test_criterion_06_psi_rho_gap_bounds():
    equalities = {}
    for n in [x for x in supported_orders() if x > 1]:
        rep = suite_gap_bounds(n)
        assert rep.passed, (n, rep.failures)
        q = prime_divisors(n)[0]
        gap = n * euler_phi(n) * (q - 1) // q
        top = order_sequence(cyclic(n))
        names = {
            name
            for name, g in catalog(n)
            if order_sequence(g) != top and psi(order_sequence(g)) == psi(top) - gap
        }
        if names:
            equalities[n] = names
    assert equalities == {4: {"C2xC2"}, 8: {"Q8"}, 9: {"C3xC3"}}
    assert psi(order_sequence(cyclic(4))) == 11
    assert psi(order_sequence(abelian([2, 2]))) == 7
    assert rho(order_sequence(cyclic(8))) == 2**17
    assert rho(order_sequence(dicyclic(8))) == 2**13
    _report(6, "gap bounds hold everywhere; equality exactly at C2xC2, Q8, C3xC3")


def test_criterion_07_sharpened_rho_bound():
    assert suite_improved_nilpotent_bound().passed

    def bound_sides(m, p_groups):
        g = cyclic(m)
        for pg in p_groups:
            g = direct_product(g, pg)
        lhs = rho(order_sequence(g))
        for pg in p_groups:
            p = prime_divisors(pg.size)[0]
            lhs *= p ** (g.size * (p - 1) // p)
        return lhs, rho(order_sequence(cyclic(g.size)))

    lhs, rhs = bound_sides(1, [abelian([2, 2])])
    assert lhs == rhs == 2**5
    lhs, rhs = bound_sides(3, [abelian([2, 2])])
    assert lhs == rhs
    lhs, rhs = bound_sides(5, [dicyclic(8)])
    assert lhs <= rhs
    assert lhs == 2**65 * 5**32 * 2**20
    assert rhs == 2**85 * 5**32
    direction = "equality" if lhs == rhs else "strict"
    # the quaternion factor is not a square of a prime, so only the bound
    # itself is mandatory; the observed direction is recorded here
    _report(7, f"exact bound holds on all three products; C5xQ8 comes out as {direction}")


def _witness_brute(n):
    found = []
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        d = 1
        while p**d <= n:
            if n % p**d == 0:
                for q in range(2, n + 1):
                    if is_prime(q) and (p**d - 1) % q == 0 and n % (p**d * q) == 0:
                        found.append((p, d, q))
            d += 1
    return min(found) if found else None


def test_criterion_08_minimal_nonnilpotent_witness():
    for n in range(1, 201):
        assert nonnilpotent_order_witness(n) == _witness_brute(n)
    for n in (12, 24, 60):
        h = minimal_nonnilpotent_group(n)
        assert h.size == n
        assert not h.is_nilpotent()
        if n == 24:
            nilpotents = [direct_product(g, cyclic(3)) for _, g in catalog(8)]
        else:
            nilpotents = list(nilpotent_groups_of_order(n))
        hs = order_sequence(h)
        for g in nilpotents:
            s = order_sequence(g)
            assert dominates(s, hs) and s != hs
    _report(8, "witness group sits properly below every nilpotent group at 12, 24, 60")


def test_criterion_09_nilpotence_from_the_sequence():
    for n in supported_orders():
        for name, g in catalog(n):
            assert nilpotent_from_sequence(order_sequence(g)) == g.is_nilpotent(), name
    _report(9, "sequence-based nilpotence test agrees with the group-theoretic one")


def test_criterion_10_product_rules():
    rng = random.Random(2024)
    orders = [n for n in supported_orders() if 2 <= n <= 21]

    def pick():
        return rng.choice(catalog(rng.choice(orders)))[1]

    checked = coprime_checked = 0
    while checked < 50:
        g, h = pick(), pick()
        if g.size * h.size > 400:
            continue
        sa, sb = order_sequence(g), order_sequence(h)
        joined = seq_join(sa, sb)
        assert order_sequence(direct_product(g, h)) == joined
        if math.gcd(g.size, h.size) == 1:
            assert seq_product(sa, sb) == joined
            assert psi(joined) == psi(sa) * psi(sb)
            assert rho(joined) == rho(sa) ** h.size * rho(sb) ** g.size
            coprime_checked += 1
        else:
            assert seq_product(sa, sb) != joined
            tag, _ = plausibility_violation(seq_product(sa, sb), g.size * h.size)
            assert tag == "mod-p"
        checked += 1
    assert coprime_checked >= 20
    _report(10, f"product rules hold on {checked} random pairs ({coprime_checked} coprime)")


def test_criterion_11_coprime_extensions():
    rep = suite_extension()
    assert rep.passed, rep.failures
    prod = seq_product(order_sequence(abelian([2, 2])), order_sequence(cyclic(3)))
    assert strong_domination(prod, order_sequence(alternating(4)))[0]
    _report(11, "coprime extension products strongly dominate the extensions")


def test_criterion_12_smallest_antichains():
    rep = suite_antichain()
    assert rep.passed, rep.failures
    assert not comparable(order_sequence(abelian([2, 6])), order_sequence(dicyclic(12)))
    assert not comparable(
        order_sequence(abelian([4, 3, 3])), order_sequence(abelian([2, 2, 9]))
    )
    _report(12, "all sequences comparable through order 11; order 12 breaks the chain")


def test_criterion_13_simple_group_pair():
    rep = suite_simple_pair()
    assert rep.passed, rep.failures
    a8 = order_sequence(alternating(8))
    psl = order_sequence(psl_3_4())
    assert a8.total == psl.total == 20160
    assert str(psl) == "1:1,2:315,3:2240,4:3780,5:8064,7:5760"
    assert str(a8) == "1:1,2:315,3:1232,4:3780,5:1344,6:5040,7:5760,15:2688"
    assert dominates(a8, psl)
    strong, _ = strong_domination(a8, psl)
    _report(13, f"A8 dominates PSL(3,4); strong: {strong}")
