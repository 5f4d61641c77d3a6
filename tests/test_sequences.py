import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from ordseq.catalog import catalog, supported_orders
from ordseq.errors import LengthMismatch, ParseError, PreconditionError
from ordseq.groups import abelian, alternating, cyclic, dicyclic, direct_product, symmetric
from ordseq.numth import factorize
from ordseq.partitions import abelian_order_sequence, partitions_of
from ordseq.sequences import (
    GRID_LIMIT,
    HallCertificate,
    OrderSequence,
    comparable,
    cyclic_order_sequence,
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
    _grid,
    _threshold_key,
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


@pytest.mark.parametrize(
    "counts", [{1: 1, 2.5: 1}, {1: 1.0}, [(1, 1), (2, 1.5)], [(2.0, 1)], {1: 1, "2": 1}, {1: 1, 2: None}]
)
def test_non_integer_entries_rejected(counts):
    with pytest.raises(PreconditionError):
        OrderSequence(counts)


def test_constructor_accepts_mappings():
    s = OrderSequence({1: 1, 2: 3})
    assert s == parse_sequence("1:1,2:3")
    with pytest.raises(PreconditionError):
        OrderSequence([])


def test_cyclic_six_invariants():
    s = order_sequence(cyclic(6))
    assert str(s) == "1:1,2:1,3:2,6:2"
    assert s.total == 6
    assert s.pairs == ((1, 1), (2, 1), (3, 2), (6, 2))
    assert s.orders == (1, 2, 3, 6)
    assert s.multiplicity(6) == 2
    assert s.multiplicity(1) == 1
    assert s.multiplicity(4) == 0
    assert s.multiplicity(12) == 0
    assert psi(s) == 21
    assert psi_k(s, 2) == 95
    assert rho(s) == 648


def test_cyclic_closed_form_matches_the_built_group():
    for n in range(1, 61):
        assert cyclic_order_sequence(n) == order_sequence(cyclic(n))


def _count_up_to(seq, threshold):
    return sum(m for d, m in seq.pairs if d <= threshold)


def test_count_up_to():
    s = order_sequence(cyclic(6))
    assert [_count_up_to(s, t) for t in range(1, 7)] == [1, 2, 4, 4, 4, 6]


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
    return all(_count_up_to(a, t) <= _count_up_to(b, t) for t in thresholds)


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


def test_dominates_when_b_runs_out_of_orders_first():
    # once b's largest order is passed, b's count is the total and a's never exceeds it
    c4, v4 = OrderSequence({1: 1, 2: 1, 4: 2}), OrderSequence({1: 1, 2: 3})
    assert dominates(c4, v4) and not dominates(v4, c4)
    c6, s3 = order_sequence(cyclic(6)), order_sequence(symmetric(3))
    assert dominates(c6, s3)
    # b is used up at a's first order
    assert dominates(OrderSequence({5: 3}), OrderSequence({1: 1, 2: 2}))
    assert dominates(OrderSequence({6: 4}), OrderSequence({1: 1, 6: 3}))
    # equal order sums; a's count passes b's before b is used up at a's last order
    assert not dominates(OrderSequence({1: 2, 9: 1}), OrderSequence({1: 1, 2: 1, 8: 1}))
    # equal order sums; b is never used up, as b's largest order exceeds a's
    assert not dominates(OrderSequence({2: 3}), OrderSequence({1: 2, 4: 1}))


def _domination_digest():
    """One sha256 over dominates and strong_domination, verdicts and all
    evidence, on every ordered pair of several families."""
    families = [[order_sequence(g) for _, g in catalog(n)] for n in (8, 12, 16, 20, 21, 60)]
    families += [[abelian_order_sequence(p, lam) for lam in partitions_of(8)] for p in (2, 3)]
    digest = hashlib.sha256()
    for seqs in families:
        for a in seqs:
            for b in seqs:
                ok, evidence = strong_domination(a, b)
                if ok:
                    fields = [list(row) for row in evidence]
                else:
                    fields = [evidence.a_orders, evidence.b_orders, evidence.need, evidence.have]
                digest.update(json.dumps([dominates(a, b), ok, fields]).encode())
    return digest.hexdigest()


def test_domination_results_are_pinned():
    # the verdicts, plans and certificates as first recorded: any change to
    # the order of matching, or to how a certificate is read, shows here
    assert _domination_digest() == "eb7c5c8d35272c6584d071bda4afd2833108f4d80f5711c9ce703c8252c3b3a7"


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
    assert strong_domination(top, order_sequence(alternating(4)))[0]


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


def test_strong_domination_moves_a_greedy_match():
    # the greedy start sends 5 onto 10, so only an augmenting path matches the 2
    a, b = OrderSequence({10: 1, 15: 1}), OrderSequence({2: 1, 5: 1})
    ok, plan = strong_domination(a, b)
    assert ok
    assert _transport_violation(a, b, plan) is None
    assert plan == [(10, 2, 1), (15, 5, 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_strong_domination_is_domination_on_abelian_p_groups(p):
    # the orders form a divisibility chain, so Hall's condition is domination
    pairs = 0
    for n in range(1, 10):
        seqs = [abelian_order_sequence(p, lam) for lam in partitions_of(n)]
        for a in seqs:
            for b in seqs:
                ok, evidence = strong_domination(a, b)
                assert ok == dominates(a, b), (a, b)
                reason = _transport_violation(a, b, evidence) if ok else _hall_violation(a, b, evidence)
                assert reason is None, (a, b, reason)
                pairs += 1
    assert pairs == 1818


def test_strong_implies_domination():
    for n in (12, 16):
        seqs = [order_sequence(g) for _, g in catalog(n)]
        for a in seqs:
            for b in seqs:
                ok, _ = strong_domination(a, b)
                if ok:
                    assert dominates(a, b)


def _largest_shortfall(a: dict, b: dict):
    """Brute force over every set S of a-orders: the largest shortfall,
    a's multiplicity on S minus b's on the divisors of S, and the sets
    that reach it, smallest first."""
    orders = sorted(a)
    # bit i of reach[e] is set when b-order e divides a-order orders[i]
    reach = {e: sum(1 << i for i, d in enumerate(orders) if d % e == 0) for e in b}
    best, best_sets = 0, []
    for mask in sorted(range(1 << len(orders)), key=int.bit_count):
        s = tuple(d for i, d in enumerate(orders) if mask >> i & 1)
        shortfall = sum(a[d] for d in s) - sum(m for e, m in b.items() if reach[e] & mask)
        if shortfall > best:
            best, best_sets = shortfall, []
        if shortfall == best:
            best_sets.append(s)
    return best, best_sets


def test_hall_certificate_is_the_smallest_set_of_largest_shortfall():
    # the answer depends on the sequences alone, not on the matching found
    rng = random.Random(24)
    divisors = [d for d in range(1, 25) if 24 % d == 0]
    infeasible = 0
    for _ in range(3000):
        total = rng.randint(1, 30)
        a, b = (
            OrderSequence(Counter(rng.choices(rng.sample(divisors, rng.randint(1, 8)), k=total)))
            for _ in range(2)
        )
        ok, evidence = strong_domination(a, b)
        best, best_sets = _largest_shortfall(dict(a.pairs), dict(b.pairs))
        assert ok == (best == 0), (a, b)
        if ok:
            assert _transport_violation(a, b, evidence) is None, (a, b)
            continue
        infeasible += 1
        smallest = min(len(s) for s in best_sets)
        assert [s for s in best_sets if len(s) == smallest] == [evidence.a_orders], (a, b)
        assert evidence.need - evidence.have == best
        assert _hall_violation(a, b, evidence) is None, (a, b)
    assert infeasible > 1000


def test_strong_domination_matches_a_brute_force_hall_oracle():
    # Hall's theorem: a matching exists exactly when no set S of a-orders
    # needs more than the b-orders dividing S supply
    rng = random.Random(72)
    divisors = [d for d in range(1, 73) if 72 % d == 0]
    verdicts = Counter()
    for _ in range(1000):
        total = rng.randint(1, 30)
        a_orders = rng.sample(divisors, rng.randint(1, 7))
        # one divisor of each a-order, so that both verdicts are common
        b_orders = {rng.choice([e for e in divisors if d % e == 0]) for d in a_orders}
        a = OrderSequence(Counter(rng.choices(a_orders, k=total)))
        b = OrderSequence(Counter(rng.choices(sorted(b_orders), k=total)))
        ok, evidence = strong_domination(a, b)
        verdicts[ok] += 1
        best, best_sets = _largest_shortfall(dict(a.pairs), dict(b.pairs))
        assert ok == (best == 0), (a, b)
        if ok:
            for d, e, amount in evidence:
                assert amount > 0 and d % e == 0, (a, b, (d, e, amount))
            for s, column in ((a, 0), (b, 1)):
                for order, m in s.pairs:
                    assert sum(row[2] for row in evidence if row[column] == order) == m, (a, b)
            continue
        smallest = best_sets[0]
        b_orders = tuple(e for e in b.orders if any(d % e == 0 for d in smallest))
        need = sum(a.multiplicity(d) for d in smallest)
        have = sum(b.multiplicity(e) for e in b_orders)
        assert evidence == HallCertificate(smallest, b_orders, need, have), (a, b)
        assert need - have == best
    assert min(verdicts.values()) >= 300, verdicts


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


def _expanded_dominates(a, b):
    """a dominates b exactly when a's sorted orders are elementwise at least b's."""
    def expand(s):
        return sorted(d for d, m in s.pairs for _ in range(m))

    return all(x >= y for x, y in zip(expand(a), expand(b)))


_orders = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8)


@st.composite
def _equal_length_pairs(draw):
    """Two order lists of one length; half the time b moves weight inside a, so psi is equal."""
    a = draw(_orders)
    if draw(st.booleans()):
        b = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=len(a), max_size=len(a)))
    else:
        b = list(a)
        i = draw(st.integers(min_value=0, max_value=len(a) - 1))
        j = draw(st.integers(min_value=0, max_value=len(a) - 1))
        shift = draw(st.integers(min_value=0, max_value=b[j] - 1))
        b[i] += shift
        b[j] -= shift
    return OrderSequence(Counter(a)), OrderSequence(Counter(b))


@given(_equal_length_pairs())
def test_dominates_matches_expanded_orders(pair):
    a, b = pair
    assert dominates(a, b) == _expanded_dominates(a, b)
    assert dominates(b, a) == _expanded_dominates(b, a)


def test_dominates_with_equal_psi_still_compares_orders():
    # psi 9 on both sides: the order sum cannot settle these
    a, b = OrderSequence(Counter([1, 4, 4])), OrderSequence(Counter([3, 3, 3]))
    assert psi(a) == psi(b)
    assert not dominates(a, b) and not dominates(b, a)
    assert dominates(a, a)


@given(st.dictionaries(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=30), min_size=1))
def test_psi_is_the_order_sum(counts):
    s = OrderSequence(counts)
    assert psi(s) == sum(d * m for d, m in s.pairs) == psi_k(s, 1)


@given(_orders, _orders)
def test_length_mismatch_comes_before_the_psi_reject(a, b):
    a, b = OrderSequence(Counter(a)), OrderSequence(Counter(b))
    assume(a.total != b.total)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(LengthMismatch):
            dominates(x, y)


_TOTALS = [12, 36, 60, 64, 72, 210, 360, 720, 3**6, 2**4 * 5**2]


@st.composite
def _divisor_multisets(draw):
    """Two sequences of one total n over divisors of n, both holding every
    prime of n, so their minimal orders are those primes and both have keys."""
    n = draw(st.sampled_from(_TOTALS))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    primes = [d for d in divisors[1:] if all(d % e for e in range(2, d))]

    def one():
        extra = draw(st.lists(st.sampled_from(divisors), max_size=6))
        orders = sorted(set(primes) | set(extra))
        k = len(orders) - 1
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=k, max_size=k)))
        return OrderSequence(zip(orders, (hi - lo for lo, hi in zip([0, *cuts], [*cuts, n]))))

    return one(), one()


@given(_divisor_multisets())
def test_packed_keys_match_the_threshold_reference(pair):
    a, b = pair
    assert _threshold_key(a)[0] == _threshold_key(b)[0] != ()
    assert dominates(a, b) == _threshold_dominates(a, b)
    assert dominates(b, a) == _threshold_dominates(b, a)


def test_grids_of_one_layout_are_not_matched_by_their_guards():
    # {1, 3, 9, 27} and {1, 2, 4, 8} get one-byte fields at four points: equal layouts and guard values
    c27, c8 = cyclic_order_sequence(27), cyclic_order_sequence(8)
    assert _grid((3,), 27)[1:] == _grid((2,), 8)[1:]
    for x, y in ((c27, c8), (c8, c27)):
        with pytest.raises(LengthMismatch):
            dominates(x, y)


@given(_divisor_multisets())
def test_a_grid_rebuilt_between_two_keys_is_compared_on_the_union_of_orders(pair):
    a, b = pair
    assert dominates(a, a)  # builds a's key
    _grid.cache_clear()
    assert dominates(b, b)  # builds b's key on a fresh grid object of the same value
    assert a._key[0] == b._key[0] and a._key[3] == b._key[3] and a._key[3] is not b._key[3]
    assert dominates(a, b) == _threshold_dominates(a, b)
    assert dominates(b, a) == _threshold_dominates(b, a)


def _check_pairs(seqs):
    for a in seqs:
        for b in seqs:
            assert dominates(a, b) == _threshold_dominates(a, b), (a, b)


# fields are total.bit_length() // 8 + 1 bytes wide: the width steps between 127 and 128 and between 32767
# and 32768, where a count would first reach a byte's top bit; at 255/256 and 65535/65536 counts fill, then
# pass, whole bytes
_EDGE_TOTALS = [127, 128, 255, 256, 32767, 32768, 65535, 65536]


def _near_total_sequences(n):
    """Sequences of total n over divisors of n holding every prime of n, most
    of the mass at order 1 or at one large order, so counts sit near n."""
    primes = [p for p, _ in factorize(n)]
    divisors = sorted({1, *primes, n, n // primes[0], n // primes[-1]})
    seqs = []
    for k in (1, 2, n // 2, n - len(primes) - 1):
        for h in divisors:
            counts = Counter({1: k, **dict.fromkeys(primes, 1)})
            counts[h] += n - sum(counts.values())
            seqs.append(OrderSequence(+counts))
    return seqs


@pytest.mark.parametrize("n", _EDGE_TOTALS)
def test_counts_near_a_field_width_edge_on_a_shared_grid(n):
    seqs = _near_total_sequences(n)
    grid = _threshold_key(seqs[0])[3]
    assert all(_threshold_key(s)[3] is grid for s in seqs)
    _check_pairs(seqs)


@pytest.mark.parametrize("n", _EDGE_TOTALS)
def test_counts_near_a_field_width_edge_on_the_union_of_orders(n):
    seqs = _near_total_sequences(n)
    for s in seqs:
        s._key = ()  # withheld, so every pair is packed on the union of its orders
    _check_pairs(seqs)
    # keyless or on grids of their own, against keyed ones: an order off n's grid, all n at order 1, all at n
    off = 2 if n % 2 else 3
    others = [OrderSequence(c) for c in ({1: 1, off: 1, n: n - 2}, {1: n - 1, off: 1}, {1: n}, {n: n})]
    _check_pairs(_near_total_sequences(n) + others)
    assert dominates(others[3], others[2])  # the largest field difference, n


def test_a_composite_minimal_order_keys_on_its_own_grid():
    # {1, 6, 36} is a grid of its own; against the primes 2, 3 the bases differ and the pair is packed on its orders
    six = OrderSequence({1: 1, 6: 35})
    assert _threshold_key(six)[0] == (6,)
    c36 = cyclic_order_sequence(36)
    assert _threshold_key(c36)[0] == (2, 3)
    above = OrderSequence({1: 1, 6: 34, 36: 1})
    _check_pairs([six, c36, above, OrderSequence({1: 2, 6: 33, 36: 1}), OrderSequence({1: 1, 2: 1, 3: 2, 6: 32})])
    assert dominates(above, six) and not dominates(six, above)
    assert not comparable(c36, six)


def test_minimal_orders_that_are_not_coprime_have_no_key():
    a, b = OrderSequence({1: 1, 4: 11, 6: 12}), OrderSequence({1: 1, 4: 5, 6: 6, 12: 12})
    assert _threshold_key(a) == () and _threshold_key(b) == ()
    _check_pairs([a, b, order_sequence(cyclic(24))])
    assert dominates(b, a) and not dominates(a, b)


def test_an_order_off_the_grid_has_no_key():
    # 8 does not divide 12, and 5 is not a product of powers of 2 and 3
    off = [OrderSequence({1: 1, 2: 3, 3: 2, 8: 6}), OrderSequence({1: 1, 2: 4, 3: 2, 5: 5})]
    assert [_threshold_key(s) for s in off] == [(), ()]
    _check_pairs(off + [order_sequence(g) for _, g in catalog(12)])


def test_a_total_off_the_powers_of_the_base_has_no_key():
    # 6 is not a power of 2, the only minimal order
    seqs = [OrderSequence({1: 1, 2: 5}), OrderSequence({1: 3, 2: 3}), OrderSequence({1: 2, 2: 4})]
    assert [_threshold_key(s) for s in seqs] == [(), (), ()]
    _check_pairs(seqs)


def test_a_total_with_too_many_grid_points_has_no_key():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    n = 2**4 * 3**3 * 5**2 * math.prod(primes[3:])
    assert 5 * 4 * 3 * 2**7 > GRID_LIMIT
    seqs = [
        OrderSequence({1: 1, **{p: p - 1 for p in primes}, n: n - sum(primes) + len(primes) - 1}),
        OrderSequence({1: 1, **{p: p - 1 for p in primes}, 4: 2, n // 2: n - sum(primes) + len(primes) - 3}),
        OrderSequence({1: 1, **{p: 2 * (p - 1) for p in primes}, n: n - 2 * (sum(primes) - len(primes)) - 1}),
    ]
    assert [_threshold_key(s) for s in seqs] == [(), (), ()]
    _check_pairs(seqs)


def test_keys_over_a_large_prime_need_no_factoring():
    # factorize(p**3) is refused past the trial-divisor cap, so this passes only if no key factors
    p = 999_999_999_989
    seqs = [abelian_order_sequence(p, lam) for lam in partitions_of(3)]
    assert all(_threshold_key(s)[0] == (p,) for s in seqs)
    # C_p^3 above C_p^2 x C_p above C_p x C_p x C_p
    assert [[dominates(a, b) for b in seqs] for a in seqs] == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    _check_pairs(seqs)

