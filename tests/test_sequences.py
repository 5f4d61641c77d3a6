import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from ordseq.catalog import catalog, supported_orders
from ordseq.errors import LengthMismatch, ParseError, PreconditionError
from ordseq.groups import abelian, alternating, cyclic, dicyclic, direct_product, symmetric
from ordseq.partitions import abelian_order_sequence, partitions_of
from ordseq.sequences import (
    OrderSequence,
    comparable,
    dominates,
    nilpotent_from_sequence,
    order_sequence,
    parse_sequence,
    plausibility_violation,
    psi,
    psi_k,
    realize,
    rho,
    seq_join,
    seq_product,
    strictly_dominates,
    strong_domination,
    strongly_dominates,
)


def test_parse_and_str_round_trip():
    assert str(parse_sequence("1:1,2:3,4:4")) == "1:1,2:3,4:4"
    assert parse_sequence(" 1:1 , 2:3 ") == parse_sequence("1:1,2:3")
    # repeated orders merge
    assert parse_sequence("1:1,2:1,2:2") == parse_sequence("1:1,2:3")


@pytest.mark.parametrize("text", ["", "1", "1:x", "1:1,,2:1", "a:b"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


@pytest.mark.parametrize("text", ["0:1", "1:0", "1:-2"])
def test_nonpositive_entries_rejected(text):
    with pytest.raises(PreconditionError):
        parse_sequence(text)


def test_constructor_accepts_mappings():
    s = OrderSequence({1: 1, 2: 3})
    assert s == parse_sequence("1:1,2:3")
    with pytest.raises(PreconditionError):
        OrderSequence([])


def test_cyclic_six_invariants():
    s = order_sequence(cyclic(6))
    assert str(s) == "1:1,2:1,3:2,6:2"
    assert s.total == 6
    assert s.expanded() == (1, 2, 3, 3, 6, 6)
    assert s.orders == (1, 2, 3, 6)
    assert s.multiplicity(6) == 2
    assert s.multiplicity(4) == 0
    assert psi(s) == 21
    assert psi_k(s, 2) == 95
    assert rho(s) == 648


def test_count_up_to():
    s = order_sequence(cyclic(6))
    assert [s.count_up_to(t) for t in range(1, 7)] == [1, 2, 4, 4, 4, 6]


def test_psi_rho_spot_values():
    assert psi(order_sequence(cyclic(4))) == 11
    assert psi(order_sequence(abelian([2, 2]))) == 7
    assert rho(order_sequence(cyclic(8))) == 2**17
    assert rho(order_sequence(dicyclic(8))) == 2**13
    assert rho(order_sequence(symmetric(3))) == 72


def test_dominates():
    c6 = order_sequence(cyclic(6))
    s3 = order_sequence(symmetric(3))
    assert dominates(c6, s3)
    assert not dominates(s3, c6)
    assert strictly_dominates(c6, s3)
    assert dominates(c6, c6)
    assert not strictly_dominates(c6, c6)
    assert comparable(c6, s3)


def _threshold_dominates(a, b):
    thresholds = sorted(set(a.orders) | set(b.orders))
    return all(a.count_up_to(t) <= b.count_up_to(t) for t in thresholds)


def _domination_families():
    for n in supported_orders():
        yield [order_sequence(g) for _, g in catalog(n)]
    for p in (2, 3):
        yield [abelian_order_sequence(p, lam) for lam in partitions_of(8)]
    # every sequence of length 5 over orders 1-4: group counts rarely differ by one
    yield [
        OrderSequence({d: m for d, m in zip((1, 2, 3, 4), mults) if m})
        for mults in itertools.product(range(6), repeat=4)
        if sum(mults) == 5
    ]


def test_dominates_matches_threshold_reference():
    for seqs in _domination_families():
        for a in seqs:
            for b in seqs:
                assert dominates(a, b) == _threshold_dominates(a, b), (a, b)


def test_dominates_needs_equal_length():
    with pytest.raises(LengthMismatch):
        dominates(order_sequence(cyclic(4)), order_sequence(cyclic(6)))


def test_incomparable_pairs():
    assert not comparable(order_sequence(abelian([2, 6])), order_sequence(dicyclic(12)))
    assert not comparable(
        order_sequence(abelian([4, 3, 3])), order_sequence(abelian([2, 2, 9]))
    )


def test_strong_domination_plan():
    top = order_sequence(cyclic(12))
    low = order_sequence(dicyclic(12))
    ok, plan = strong_domination(top, low)
    assert ok
    assert sum(amount for _, _, amount in plan) == 12
    for a_order, b_order, amount in plan:
        assert amount >= 1
        assert a_order % b_order == 0
    # every target multiplicity is used up exactly
    for d, m in low.pairs:
        assert sum(amount for _, b_order, amount in plan if b_order == d) == m
    assert strongly_dominates(top, order_sequence(alternating(4)))


def test_hall_certificate():
    ok, cert = strong_domination(order_sequence(dicyclic(12)), order_sequence(alternating(4)))
    assert not ok
    assert cert.need == 8
    assert cert.have == 4
    assert tuple(sorted(cert.a_orders)) == (1, 2, 4)
    assert tuple(sorted(cert.b_orders)) == (1, 2)
    assert cert.need > cert.have


def _transport_violation(a, b, plan):
    """Why the rows are not a transport of b onto a, or None."""
    got_a: dict[int, int] = {}
    got_b: dict[int, int] = {}
    for d, e, amount in plan:
        if amount <= 0 or d % e:
            return f"bad row {(d, e, amount)}"
        got_a[d] = got_a.get(d, 0) + amount
        got_b[e] = got_b.get(e, 0) + amount
    if got_a != dict(a.pairs) or got_b != dict(b.pairs):
        return "row sums differ from the multiplicities"
    return None


def _hall_violation(a, b, cert):
    """Why the certificate does not prove infeasibility, or None."""
    if not cert.a_orders or any(a.multiplicity(d) == 0 for d in cert.a_orders):
        return "a-orders are not orders of a"
    covered = tuple(e for e in b.orders if any(d % e == 0 for d in cert.a_orders))
    if tuple(cert.b_orders) != covered:
        return "b-orders are not the divisors present"
    need = sum(a.multiplicity(d) for d in cert.a_orders)
    have = sum(b.multiplicity(e) for e in covered)
    if (cert.need, cert.have) != (need, have) or need <= have:
        return f"need/have {cert.need}/{cert.have}, recomputed {need}/{have}"
    return None


def _wide_nilpotent_sequences():
    """Nilpotent groups of order 2^3 * 3^2 * 5 * 7 * 11, from closed forms."""
    sylow2 = {order_sequence(g) for _, g in catalog(8)}
    sylow3 = [abelian_order_sequence(3, lam) for lam in partitions_of(2)]
    out = [seq_join(s2, s3) for s2 in sylow2 for s3 in sylow3]
    for q in (5, 7, 11):
        out = [seq_join(s, abelian_order_sequence(q, [1])) for s in out]
    return out


def test_strong_domination_evidence_checks_out():
    families = [[order_sequence(g) for _, g in catalog(n)] for n in (12, 16, 60)]
    families.append(_wide_nilpotent_sequences())
    verdicts = set()
    for seqs in families:
        for a in seqs:
            for b in seqs:
                if not dominates(a, b):
                    continue
                ok, evidence = strong_domination(a, b)
                verdicts.add(ok)
                reason = _transport_violation(a, b, evidence) if ok else _hall_violation(a, b, evidence)
                assert reason is None, (a, b, reason)
    assert verdicts == {True, False}


def test_strong_implies_domination():
    for n in (12, 16):
        seqs = [order_sequence(g) for _, g in catalog(n)]
        for a in seqs:
            for b in seqs:
                ok, _ = strong_domination(a, b)
                if ok:
                    assert dominates(a, b)


def _random_catalog_group(rng, max_order=21):
    orders = [n for n in supported_orders() if 2 <= n <= max_order]
    n = rng.choice(orders)
    return rng.choice(catalog(n))[1]


def test_join_matches_direct_product():
    rng = random.Random(7)
    for _ in range(50):
        g = _random_catalog_group(rng)
        h = _random_catalog_group(rng)
        if g.size * h.size > 400:
            continue
        sa, sb = order_sequence(g), order_sequence(h)
        joined = seq_join(sa, sb)
        assert order_sequence(direct_product(g, h)) == joined
        if math.gcd(g.size, h.size) == 1:
            assert seq_product(sa, sb) == joined
        else:
            assert seq_product(sa, sb) != joined


def test_coprime_psi_rho_multiplicativity():
    rng = random.Random(11)
    done = 0
    while done < 20:
        g = _random_catalog_group(rng)
        h = _random_catalog_group(rng)
        if math.gcd(g.size, h.size) != 1:
            continue
        sa, sb = order_sequence(g), order_sequence(h)
        joined = seq_join(sa, sb)
        assert psi(joined) == psi(sa) * psi(sb)
        assert rho(joined) == rho(sa) ** h.size * rho(sb) ** g.size
        done += 1


def test_noncoprime_product_is_implausible():
    rng = random.Random(13)
    done = 0
    while done < 20:
        g = _random_catalog_group(rng)
        h = _random_catalog_group(rng)
        if math.gcd(g.size, h.size) == 1:
            continue
        s = seq_product(order_sequence(g), order_sequence(h))
        tag, _ = plausibility_violation(s, g.size * h.size)
        assert tag == "mod-p"
        done += 1


@pytest.mark.parametrize(
    "text,n,tag",
    [
        ("1:1,2:1,3:2,6:2", 7, "length"),
        ("1:2,2:4", 6, "identity"),
        ("1:1,4:5", 6, "divides"),
        ("1:1,2:2,3:3", 6, "mod-p"),
        ("1:1,2:3,4:2,8:2", 8, "phi"),
    ],
)
def test_plausibility_rule_order(text, n, tag):
    violation = plausibility_violation(parse_sequence(text), n)
    assert violation is not None
    assert violation[0] == tag


def test_plausible_sequences_pass():
    s = order_sequence(cyclic(6))
    assert plausibility_violation(s, 6) is None
    # the default length is the sequence total
    assert plausibility_violation(s) is None


def test_nilpotence_from_sequence_matches_groups():
    for n in (6, 8, 12, 16):
        for _, g in catalog(n):
            assert nilpotent_from_sequence(order_sequence(g)) == g.is_nilpotent()


def test_realize():
    same = order_sequence(abelian([4, 4]))
    assert realize(same, 16) == ["C4xC4", "Q8xC2", "C4:C4"]
    assert realize(parse_sequence("1:1,2:3,3:2"), 6) == ["S3"]
    assert realize(parse_sequence("1:1,2:2,3:3"), 6) == []


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=30),
        min_size=1,
    )
)
def test_text_round_trip(counts):
    s = OrderSequence(counts)
    assert parse_sequence(str(s)) == s


_SIXTEEN = [order_sequence(g) for _, g in catalog(16)]


@given(st.sampled_from(_SIXTEEN), st.sampled_from(_SIXTEEN), st.sampled_from(_SIXTEEN))
def test_domination_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)
