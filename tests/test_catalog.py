from collections import Counter

import pytest

from ordseq.catalog import (
    KNOWN_GROUP_COUNTS,
    abelian_groups_of_order,
    abelian_sequences_of_order,
    catalog,
    elementary_product,
    frobenius20,
    frobenius21,
    group_by_name,
    modular16,
    nilpotent_group,
    nilpotent_groups_of_order,
    nilpotent_sequences_of_order,
    semidihedral16,
    standard_family,
    supported_orders,
)
from ordseq.errors import PreconditionError, UnsupportedOrderError
from ordseq.groups import TableGroup, cyclic, dihedral, direct_product
from ordseq.numth import factorize
from ordseq.sequences import order_sequence


def test_known_counts_table():
    assert KNOWN_GROUP_COUNTS == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
        11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 20: 5, 21: 2, 60: 13,
    }
    assert supported_orders() == tuple(sorted(KNOWN_GROUP_COUNTS))


def _groups_of_order_by_formula(n):
    """The number of groups of order n where a closed formula gives it, else None.

    p**2 and p**3 give 2 and 5.  For squarefree n (1 and the primes
    included) Hoelder's formula counts sum over d | n of the product over
    primes p | d of (p**c(p) - 1) / (p - 1), where c(p) is the number of
    primes q | n/d with q = 1 mod p.
    """
    factors = factorize(n)
    if len(factors) == 1 and factors[0][1] in (2, 3):
        return {2: 2, 3: 5}[factors[0][1]]
    if any(e > 1 for _, e in factors):
        return None
    primes = [p for p, _ in factors]
    total = 0
    for mask in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        rest = [q for q in primes if q not in chosen]
        term = 1
        for p in chosen:
            c = sum(1 for q in rest if q % p == 1)
            term *= (p**c - 1) // (p - 1)
        total += term
    return total


def test_known_counts_agree_with_formulas():
    derived = {n: _groups_of_order_by_formula(n) for n in KNOWN_GROUP_COUNTS}
    # 12, 16, 20 and 60 have no such formula and stay cited constants
    assert sorted(n for n, count in derived.items() if count is None) == [12, 16, 20, 60]
    for n, count in derived.items():
        assert count in (None, KNOWN_GROUP_COUNTS[n]), n
    # Hoelder's formula beyond the table: 30 and 42 have 4 and 6 groups
    assert _groups_of_order_by_formula(30) == 4
    assert _groups_of_order_by_formula(42) == 6


@pytest.mark.parametrize("n", sorted(KNOWN_GROUP_COUNTS))
def test_catalog_is_complete(n):
    pairs = catalog(n)
    assert len(pairs) == KNOWN_GROUP_COUNTS[n]
    names = [name for name, _ in pairs]
    assert len(set(names)) == len(names)
    assert all(g.size == n for _, g in pairs)
    # a trusted count would accept duplicates, so every pair is told apart,
    # and the isomorphism key decides as the element-order rule does
    for a, g in pairs:
        for b, h in pairs:
            assert g.is_isomorphic(h) == _parent_rule(g, h) == (a == b), (a, b)


def _parent_rule(g, h) -> bool:
    """Isomorphism by the element-order Counter, then the abelian flag, then the search."""
    if g.size != h.size or Counter(g.element_orders()) != Counter(h.element_orders()):
        return False
    if g.is_abelian() != h.is_abelian():
        return False
    return g.is_abelian() or g._isomorphism_search(h) is not None


def test_group_by_name():
    g = group_by_name(16, "M16")
    assert g.size == 16
    with pytest.raises(UnsupportedOrderError):
        group_by_name(16, "nope")


def test_unsupported_orders():
    with pytest.raises(UnsupportedOrderError):
        catalog(17)
    with pytest.raises(UnsupportedOrderError):
        catalog(0)


def test_order16_names():
    assert {name for name, _ in catalog(16)} == {
        "C16", "C8xC2", "C4xC4", "C4xC2xC2", "C2xC2xC2xC2", "D16", "Q16",
        "SD16", "M16", "D8xC2", "Q8xC2", "C4:C4", "(C2xC2):C4", "D8*C4",
    }


def test_central_product_matches_the_quotient():
    # D8*C4 is D8xC4 with the rotation square (index 4 in D8) and the
    # square in C4 identified; the pair has index 4 * |C4| + 2
    d8xc4 = direct_product(dihedral(8), cyclic(4))
    glued = d8xc4.quotient(d8xc4.closure([4 * 4 + 2]))
    matches = [name for name, g in catalog(16) if g.is_isomorphic(glued)]
    assert matches == ["D8*C4"]


def test_no_catalog_group_is_a_table():
    for n in supported_orders():
        for name, g in catalog(n):
            assert not isinstance(g, TableGroup), (n, name)


def test_order60_names():
    assert {name for name, _ in catalog(60)} == {
        "C60", "C2xC30", "A5", "D60", "Dic60", "C3xD20", "C5xD12",
        "C3xDic20", "C5xDic12", "C3xF20", "C15:C4", "S3xD10", "C5xA4",
    }
    assert str(order_sequence(group_by_name(60, "A5"))) == "1:1,2:15,3:20,5:24"


def test_nilpotent_products():
    groups = nilpotent_groups_of_order(60)
    assert len(groups) == 2
    assert all(g.size == 60 for g in groups)
    assert {str(order_sequence(g)) for g in groups} == {
        str(order_sequence(group_by_name(60, "C60"))),
        str(order_sequence(group_by_name(60, "C2xC30"))),
    }
    assert len(nilpotent_groups_of_order(12)) == 2
    # every group of order 16 is nilpotent
    assert len(nilpotent_groups_of_order(16)) == 14


def test_abelian_filter():
    assert len(abelian_groups_of_order(16)) == 5
    # works beyond the catalog orders
    assert len(abelian_groups_of_order(36)) == 4
    assert all(g.size == 36 for g in abelian_groups_of_order(36))


@pytest.mark.parametrize("n", range(1, 37))
def test_abelian_sequences_match_the_built_groups(n):
    assert abelian_sequences_of_order(n) == tuple((g.name, order_sequence(g)) for g in abelian_groups_of_order(n))


@pytest.mark.parametrize("n", supported_orders())
def test_nilpotent_sequences_match_the_built_groups(n):
    groups = nilpotent_groups_of_order(n)
    assert nilpotent_sequences_of_order(n) == tuple((g.name, order_sequence(g)) for g in groups)
    for g in groups:
        alone = nilpotent_group(n, g.name)
        assert alone.name == g.name and alone.element_orders() == g.element_orders()
    with pytest.raises(UnsupportedOrderError):
        nilpotent_group(n, "nope")


def test_elementary_product():
    g = elementary_product(12)
    assert g.size == 12
    assert g.exponent() == 6
    assert elementary_product(8).exponent() == 2
    assert elementary_product(1).size == 1


def test_named_constructions():
    assert str(order_sequence(frobenius20())) == "1:1,2:5,4:10,5:4"
    assert str(order_sequence(frobenius21())) == "1:1,3:14,7:6"
    assert str(order_sequence(modular16())) == "1:1,2:3,4:4,8:8"
    assert str(order_sequence(semidihedral16())) == "1:1,2:5,4:6,8:4"


def test_standard_family():
    assert standard_family("dihedral", (8,)).size == 8
    assert standard_family("F20").size == 20
    with pytest.raises(PreconditionError):
        standard_family("nope")
    with pytest.raises(PreconditionError):
        standard_family("dihedral", (8, 2))

