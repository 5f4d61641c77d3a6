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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64])
def test_unit_group_is_cyclic(q):
    f = make_field(q)
    gen = element_of_order(f, q - 1)
    assert f.element_order(gen) == q - 1
    for a in range(1, q):
        assert (q - 1) % f.element_order(a) == 0


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
