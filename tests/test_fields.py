import hashlib
import random
from functools import lru_cache

import pytest

from ordseq.errors import NoSuchOrder, PreconditionError, SizeLimitError
from ordseq.fields import (
    affine_frobenius_group,
    element_of_order,
    make_field,
    psl_3_4,
)
from ordseq.groups import alternating, dihedral, symmetric
from ordseq.sequences import order_sequence


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    assert f.order == q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def _schoolbook(f):
    """Field add and mul on codes, written from the code layout alone.

    Addition sums the base-p digits mod p.  Multiplication sums
    b_j * (a * x**j), stepping a * x**j to the next power of x by a shift
    and the rule x**d = -(modulus without its leading 1).
    """
    p, d = f.p, f.d
    weights = [p**i for i in range(d)]
    digits = [[x // w % p for w in weights] for x in range(f.order)]

    def code(ds):
        return sum(c % p * w for c, w in zip(ds, weights))

    def add(a, b):
        return code([x + y for x, y in zip(digits[a], digits[b])])

    @lru_cache(maxsize=None)
    def shifts(a):
        rows = [digits[a]]
        for _ in range(d - 1):
            top = rows[-1][-1]
            rows.append([(c - top * m) % p for c, m in zip([0] + rows[-1][:-1], f.modulus)])
        return rows

    def mul(a, b):
        acc = [0] * d
        for bj, row in zip(digits[b], shifts(a)):
            if bj:
                acc = [s + bj * c for s, c in zip(acc, row)]
        return code(acc)

    return add, mul


@pytest.mark.parametrize("q", [16, 25, 27, 32, 49, 64, 81, 125, 128])
def test_arithmetic_matches_schoolbook_on_every_pair(q):
    f = make_field(q)
    add, mul = _schoolbook(f)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == add(a, b) and f.mul(a, b) == mul(a, b), (a, b)


@pytest.mark.parametrize("q", [243, 256, 512, 2187, 4096])
def test_arithmetic_matches_schoolbook_on_sampled_pairs(q):
    f = make_field(q)
    add, mul = _schoolbook(f)
    rng = random.Random(q)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.add(a, b) == add(a, b) and f.mul(a, b) == mul(a, b), (a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64])
def test_unit_group_is_cyclic(q):
    f = make_field(q)
    orders = {}
    for a in range(1, q):
        x, k = a, 1
        while x != 1:
            x, k = f.mul(x, a), k + 1
        orders[a] = k
        assert f.element_order(a) == k
    assert max(orders.values()) == q - 1
    assert orders[element_of_order(f, q - 1)] == q - 1


def test_element_of_order_requires_divisor():
    with pytest.raises(NoSuchOrder):
        element_of_order(make_field(4), 2)


def test_make_field_rejects_non_prime_powers():
    with pytest.raises(PreconditionError):
        make_field(6)
    with pytest.raises(PreconditionError):
        make_field(12)


def test_field_size_cap():
    with pytest.raises(SizeLimitError):
        make_field(5**6)


def test_affine_frobenius_groups():
    aff = affine_frobenius_group(2, 2, 3)
    assert aff.size == 12
    assert aff.name == "Aff(4,3)"
    assert order_sequence(aff) == order_sequence(alternating(4))
    assert order_sequence(affine_frobenius_group(5, 1, 2)) == order_sequence(dihedral(10))
    assert order_sequence(affine_frobenius_group(3, 1, 2)) == order_sequence(symmetric(3))
    assert str(order_sequence(affine_frobenius_group(7, 1, 3))) == "1:1,3:14,7:6"


def test_affine_frobenius_needs_dividing_order():
    with pytest.raises(PreconditionError):
        affine_frobenius_group(2, 2, 5)


def test_psl34():
    g = psl_3_4()
    assert g.size == 20160
    s = order_sequence(g)
    assert str(s) == "1:1,2:315,3:2240,4:3780,5:8064,7:5760"
    assert g.exponent() == 420


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "pdq, digest",
    [
        ((2, 2, 3), "69950789a5804803"),
        ((3, 1, 2), "1589ddeeef95c4e5"),
        ((5, 1, 4), "249767384856b5b1"),
        ((7, 1, 3), "ec0bc64a1585deb2"),
        ((2, 3, 7), "6caa59c63d83e1c2"),
        ((3, 2, 8), "cc767fdd81e48976"),
    ],
)
def test_affine_tables_are_pinned(pdq, digest):
    # field codes feed every Aff element number and so every graph output;
    # the digests number the map x -> w**i * x + b as i*q + b, the group as b*k + i
    p, d, k = pdq
    q = p**d
    g = affine_frobenius_group(*pdq)

    def old(a):
        return (a % k) * q + a // k

    def new(a):
        return (a % q) * k + a // q

    assert _digest(",".join(str(old(g.mul(new(a), new(b)))) for a in range(g.size) for b in range(g.size))) == digest


def test_psl34_generators_are_pinned():
    # the closure lists the six transvections first, after the identity
    perms = psl_3_4().perms[1:7]
    assert _digest(";".join(",".join(map(str, perm)) for perm in perms)) == "1260eee8ad075603"
