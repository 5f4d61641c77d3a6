import hashlib
import importlib
import pkgutil
import random
import re
from collections import Counter
from functools import partial
from itertools import permutations

import pytest

import ordseq
from ordseq import groups
from ordseq.errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    NotNormal,
    NotSubgroup,
    PreconditionError,
    SizeLimitError,
)
from ordseq.catalog import catalog, frobenius20, group_by_name, supported_orders
from ordseq.fields import affine_frobenius_group
from ordseq.groups import (
    TABLE_LIMIT,
    AbelianGroup,
    CyclicExtensionGroup,
    DirectProductGroup,
    FiniteGroup,
    PermutationGroup,
    TableGroup,
    _right_generators,
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    power_map,
    symmetric,
)
from ordseq.partitions import abelian_order_sequence
from ordseq.numth import factorize, prime_divisors
from ordseq.sequences import cyclic_order_sequence, order_sequence


def test_cyclic_basics():
    g = cyclic(6)
    assert g.size == 6
    assert sorted(g.element_orders()) == [1, 2, 3, 3, 6, 6]
    assert g.exponent() == 6
    assert g.is_abelian()


def test_abelian_products():
    v4 = abelian([2, 2])
    assert all(g == 0 or v4.element_orders()[g] == 2 for g in range(4))
    assert abelian([]).size == 1
    assert abelian([4, 3]).is_isomorphic(cyclic(12))


def _digits(a, moduli):
    out = []
    for m in reversed(moduli):
        a, r = divmod(a, m)
        out.append(r)
    return out[::-1]


def _undigits(parts, moduli):
    a = 0
    for m, x in zip(moduli, parts):
        a = a * m + x
    return a


@pytest.mark.parametrize("moduli", [(1,), (2, 1, 3), (2, 2), (8, 2), (9, 3, 2), (2, 2, 3, 5), (2, 30)])
def test_abelian_arithmetic_matches_digits(moduli):
    g = abelian(moduli)
    digits = [_digits(a, moduli) for a in range(g.size)]
    for a, da in enumerate(digits):
        assert g.inv(a) == _undigits([-x % m for x, m in zip(da, moduli)], moduli)
        for b, db in enumerate(digits):
            assert g.mul(a, b) == _undigits([(x + y) % m for x, y, m in zip(da, db, moduli)], moduli)


def test_dihedral_and_dicyclic_sequences():
    assert str(order_sequence(dihedral(12))) == "1:1,2:7,3:2,6:2"
    assert str(order_sequence(dicyclic(12))) == "1:1,2:1,3:2,4:6,6:2"


def test_dihedral_rejects_odd_order():
    with pytest.raises(PreconditionError):
        dihedral(7)


def test_dicyclic_needs_multiple_of_four():
    with pytest.raises(PreconditionError):
        dicyclic(6)


def test_symmetric_and_alternating():
    s3 = symmetric(3)
    assert s3.size == 6
    assert order_sequence(s3).pairs == ((1, 1), (2, 3), (3, 2))
    assert str(order_sequence(alternating(4))) == "1:1,2:3,3:8"
    assert alternating(5).size == 60
    # degenerate degrees still give a group
    assert symmetric(1).size == 1
    assert alternating(2).size == 1


def test_power_and_inverse():
    g = symmetric(3)
    orders = g.element_orders()
    for a in range(g.size):
        # a**(order - 1) is the inverse of a
        x = 0
        for _ in range(orders[a] - 1):
            x = g.mul(x, a)
        assert x == g.inv(a)
        assert g.mul(a, g.inv(a)) == 0
    assert orders[0] == 1


def _row_search_inverse(g, a):
    return next(h for h in range(g.size) if g.mul(a, h) == 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic(65),
        lambda: abelian([5, 13]),
        lambda: direct_product(cyclic(3), abelian([3] * 3)),
        lambda: dihedral(130),
        lambda: dicyclic(68),
        lambda: heisenberg(5),
        lambda: symmetric(5),
        lambda: affine_frobenius_group(2, 6, 7),
    ],
    ids=["C65", "C5xC13", "C3xC3^3", "D130", "Dic68", "Heis5", "S5", "Aff(2,6,7)"],
)
def test_inverses_from_the_power_walk(build):
    # past the table limit every backing is a group by construction and takes
    # its inverses from element_orders; the group axioms are the oracle here
    g = build()
    n, mul = g.size, g.mul
    assert n > TABLE_LIMIT and g.table is None
    for a in range(n):
        assert mul(0, a) == a == mul(a, 0)
        h = g.inv(a)
        assert mul(a, h) == 0 == mul(h, a)
        assert h == _row_search_inverse(g, a)
    draw = random.Random(n).randrange
    for _ in range(1000):
        a, b, c = draw(n), draw(n), draw(n)
        assert mul(mul(a, b), c) == mul(a, mul(b, c)), (a, b, c)


def test_catalog_inverses_match_row_search():
    for n in supported_orders():
        for name, g in catalog(n):
            assert [g.inv(a) for a in range(n)] == [_row_search_inverse(g, a) for a in range(n)], name


class _MaxMonoid(FiniteGroup):
    """0, ..., 64 under max: 0 is an identity and max associates, but no
    other element has an inverse."""

    mul = max

    def __init__(self):
        super().__init__(TABLE_LIMIT + 1, "max")
        self._finalize()


def test_monoid_past_the_table_limit_is_refused():
    # the power walk of 1 stays at 1 and is cut off after `size` steps
    with pytest.raises(PreconditionError, match="never reach the identity"):
        _MaxMonoid()


@pytest.mark.parametrize("n, elems", [(TABLE_LIMIT + 1, [0, TABLE_LIMIT + 1]), (6, [0, -3, 3]), (6, [0, 7])])
def test_subset_checks_refuse_indices_outside_the_group(n, elems):
    g = cyclic(n)
    for check in (g.is_subgroup, g.is_normal, g.closure):
        with pytest.raises(PreconditionError, match="out of range"):
            check(elems)


def test_subgroup_and_quotient():
    g = cyclic(6)
    h = g.closure([2])
    assert set(h) == {0, 2, 4}
    assert g.is_subgroup(h)
    assert g.is_normal(h)
    q = g.quotient(h)
    assert q.size == 2
    with pytest.raises(NotSubgroup):
        g.subgroup([0, 2])


def test_quotient_needs_normal_subgroup():
    g = symmetric(3)
    a = next(x for x in range(g.size) if g.element_orders()[x] == 2)
    h = g.closure([a])
    assert len(h) == 2
    with pytest.raises(NotNormal):
        g.quotient(h)


def test_center_and_classes():
    d8 = dihedral(8)
    assert not d8.is_abelian()


def test_sylow_and_nilpotency():
    s4 = symmetric(4)
    assert len(s4.sylow_subgroup(2)) == 8
    assert len(s4.sylow_subgroup(3)) == 3
    assert not s4.is_nilpotent()
    assert dicyclic(8).is_nilpotent()
    assert abelian([4, 3]).is_nilpotent()
    assert not symmetric(3).is_nilpotent()


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.size == 6
    assert g.is_isomorphic(cyclic(6))
    s3, c2 = symmetric(3), cyclic(2)
    g = direct_product(s3, c2)
    assert g.size == 12
    # element index is left * 2 + right
    for a in range(12):
        for b in range(12):
            assert g.mul(a, b) == s3.mul(a // 2, b // 2) * 2 + c2.mul(a % 2, b % 2)


def test_semidirect_inversion_gives_dihedral():
    g = CyclicExtensionGroup(cyclic(5), 2, power_map(5, -1))
    assert g.size == 10
    assert order_sequence(g) == order_sequence(dihedral(10))


def test_constructors_build_each_group_once():
    assert cyclic(5) is cyclic(5)
    assert abelian([2, 2]) is abelian((2, 2))
    assert dicyclic(8) is not dicyclic(8, "Q8")
    assert dicyclic(8, "Q8") is dicyclic(8, "Q8")
    assert direct_product(cyclic(2), cyclic(3)) is direct_product(cyclic(2), cyclic(3))
    assert frobenius20() is frobenius20()
    assert affine_frobenius_group(2, 2, 3) is affine_frobenius_group(2, 2, 3)
    g = symmetric(3)
    assert order_sequence(g) is order_sequence(g)
    # a refusal is not cached: every call raises again
    cached = symmetric.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SizeLimitError):
            symmetric(9)
    assert symmetric.cache_info().currsize == cached


@pytest.mark.parametrize(
    "build",
    [*(partial(symmetric, m) for m in range(1, 6)), *(partial(alternating, m) for m in range(1, 6))]
    + [partial(PermutationGroup, 6, [(1, 2, 3, 4, 5, 0)])],
    ids=[*(f"S{m}" for m in range(1, 6)), *(f"A{m}" for m in range(1, 6)), "cyclic-degree-6"],
)
def test_permutation_tables_are_composition_tables(build):
    g = build()
    perms, n = g.perms, g.size
    index = {p: i for i, p in enumerate(perms)}
    brute = tuple(tuple(index[tuple(pa[i] for i in pb)] for pb in perms) for pa in perms)
    assert (g.table is not None) == (n <= TABLE_LIMIT)
    assert tuple(tuple(g.mul(a, b) for b in range(n)) for a in range(n)) == brute


@pytest.mark.parametrize("build", [partial(cyclic, 4), partial(abelian, [2, 2]), partial(symmetric, 3)])
def test_automorphism_check_reports_the_first_failing_pair(build):
    target = build()
    n, mul = target.size, target.mul
    bad = 0
    for perm in permutations(range(n)):
        first = next(((a, b) for a in range(n) for b in range(n) if perm[mul(a, b)] != mul(perm[a], perm[b])), None)
        if first is None:
            continue
        bad += 1
        with pytest.raises(ActionNotAutomorphism, match=re.escape(f"acting element 1 breaks the product at {first}")):
            CyclicExtensionGroup(target, 2, perm)
    assert bad > 0


def _inversion_with_exchanges(n, exchanges):
    perm = list(power_map(n, -1))
    for x, y in exchanges:
        perm[x % n] = y % n
    return perm


@pytest.mark.parametrize(
    "target, perm, pair",
    [
        # inversion of C12500 with the images of 5110, 1610, -5110 and -1610
        # exchanged: past the table limit, and the extension would not be a group
        (
            lambda: cyclic(12500),
            _inversion_with_exchanges(12500, [(5110, -1610), (-1610, 5110), (1610, -5110), (-5110, 1610)]),
            (1, 1609),
        ),
        # respects adding the first generator 1 of C2^3 but not adding 2 and 4
        (lambda: abelian([2] * 3), (0, 1, 2, 3, 4, 5, 7, 6), (2, 4)),
    ],
    ids=["C12500", "C2^3"],
)
def test_automorphism_check_is_exact_on_every_generator(target, perm, pair):
    with pytest.raises(ActionNotAutomorphism, match=re.escape(f"acting element 1 breaks the product at {pair}")):
        CyclicExtensionGroup(target(), 2, perm)


def test_action_validation():
    # x -> 2x is not injective mod 4
    with pytest.raises(ActionNotAutomorphism):
        CyclicExtensionGroup(cyclic(4), 2, power_map(4, 2))
    # swapping 1 and 2 permutes C5 but breaks its sums
    with pytest.raises(ActionNotAutomorphism):
        CyclicExtensionGroup(cyclic(5), 2, (0, 2, 1, 3, 4))
    # doubling mod 5 is an automorphism of order 4, too big for C2
    with pytest.raises(ActionNotHomomorphism):
        CyclicExtensionGroup(cyclic(5), 2, power_map(5, 2))
    # the generator of C1 can only act trivially
    with pytest.raises(ActionNotHomomorphism):
        CyclicExtensionGroup(cyclic(5), 1, power_map(5, -1))
    # inversion squares to the identity, conjugation by anything in C4, but moves g**2 = 1
    with pytest.raises(ActionNotHomomorphism, match="moves"):
        CyclicExtensionGroup(cyclic(4), 2, power_map(4, -1), 1)


def _table_digest(g):
    text = ",".join(str(g.mul(a, b)) for a in range(g.size) for b in range(g.size))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: dihedral(8), "09d1b9fed790fb97"),
        (lambda: dihedral(10), "7f3b3a6c58996076"),
        (lambda: group_by_name(20, "F20"), "d845c1773aa2c570"),
        (lambda: group_by_name(21, "F21"), "61e1d00132d73025"),
        (lambda: group_by_name(16, "M16"), "9e41a2afad241389"),
        (lambda: group_by_name(16, "SD16"), "3c8e600bd780e23e"),
        (lambda: group_by_name(16, "C4:C4"), "eb14f1638176f5ad"),
        (lambda: group_by_name(16, "(C2xC2):C4"), "e465d445d84f7de5"),
        (lambda: group_by_name(60, "C15:C4"), "3e20ec69537362e7"),
        # dicyclic groups, the non-split case g**2 = a**m
        (lambda: group_by_name(8, "Q8"), "cdcc1f1db516e8c0"),
        (lambda: group_by_name(12, "Dic12"), "faba70d8bb85a9da"),
        (lambda: group_by_name(16, "Q16"), "bd3cd17be6dc6ed1"),
        (lambda: group_by_name(20, "Dic20"), "73114af9bf4a2a5a"),
        (lambda: group_by_name(60, "Dic60"), "20c98d650aef2057"),
        (lambda: dicyclic(68), "34d79d2244dcb340"),
    ],
)
def test_semidirect_tables_are_pinned(build, digest):
    # element numbering feeds every graph output, so the tables must not move
    assert _table_digest(build()) == digest


def test_non_split_extension_of_a_non_abelian_target():
    # S3 by C2, where g acts as conjugation by a 3-cycle r and g**2 = r**2:
    # r**-1 * g is central of order 2, so this is S3 x C2, that is D12
    s3 = symmetric(3)
    r = s3.element_orders().index(3)
    r2 = s3.mul(r, r)
    alpha = tuple(s3.conjugate(r, y) for y in range(6))
    assert alpha != tuple(range(6))
    assert CyclicExtensionGroup(s3, 2, alpha, r2).is_isomorphic(dihedral(12))
    # alpha**2 is conjugation by r**2, not the identity, so z = 0 fails
    with pytest.raises(ActionNotHomomorphism):
        CyclicExtensionGroup(s3, 2, alpha)
    # alpha moves every transposition
    t = s3.element_orders().index(2)
    assert alpha[t] != t
    with pytest.raises(ActionNotHomomorphism):
        CyclicExtensionGroup(s3, 2, alpha, t)
    with pytest.raises(PreconditionError, match="not an element"):
        CyclicExtensionGroup(s3, 2, alpha, 6)


def test_semidirect_samples_pairs_on_large_targets():
    # past 256 elements only a seeded sample of pairs is checked, for every power
    swap = list(range(300))
    swap[1], swap[2] = 2, 1
    with pytest.raises(ActionNotAutomorphism):
        CyclicExtensionGroup(cyclic(300), 2, swap)
    g = CyclicExtensionGroup(cyclic(257), 2, power_map(257, -1))
    assert str(order_sequence(g)) == "1:1,2:257,257:256"


def test_isomorphism_checks():
    assert cyclic(4).is_isomorphic(abelian([4]))
    assert not cyclic(4).is_isomorphic(abelian([2, 2]))
    assert dihedral(6).is_isomorphic(symmetric(3))
    assert not dihedral(8).is_isomorphic(dicyclic(8))


def _is_isomorphism(g, h, f) -> bool:
    """Whether the index map f is a bijection from g onto h with f(xy) = f(x)f(y) on all pairs."""
    elements = range(g.size)
    return (
        sorted(f) == list(elements)
        and sorted(f.values()) == list(elements)
        and all(f[g.mul(a, b)] == h.mul(f[a], f[b]) for a in elements for b in elements)
    )


def test_isomorphism_search_decides_order16_pairs():
    # two pairs of non-abelian groups of order 16 share their element orders;
    # the key tells them apart, and the search, called directly, still decides
    for a, b in [("Q8xC2", "C4:C4"), ("(C2xC2):C4", "D8*C4")]:
        g, h = group_by_name(16, a), group_by_name(16, b)
        assert Counter(g.element_orders()) == Counter(h.element_orders())
        assert not g.is_abelian() and not h.is_abelian()
        assert g._iso_key() != h._iso_key()
    assert group_by_name(16, "Q8xC2")._isomorphism_search(group_by_name(16, "C4:C4")) is None
    # equal keys, non-abelian: the search finds the isomorphism
    g, h = direct_product(cyclic(2), dihedral(8)), group_by_name(16, "D8xC2")
    assert g.is_isomorphic(h)
    assert _is_isomorphism(g, h, g._isomorphism_search(h))


def test_relabelled_catalog_groups_keep_their_key():
    rng = random.Random(30)
    for n in supported_orders():
        if n > TABLE_LIMIT:
            continue
        for name, g in catalog(n):
            label = [0] + rng.sample(range(1, n), n - 1)
            table = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    table[label[a]][label[b]] = label[g.mul(a, b)]
            h = TableGroup(table, f"relabelled {name}")
            assert g._iso_key() == h._iso_key(), name
            assert g.is_isomorphic(h) and h.is_isomorphic(g), name
            if not g.is_abelian():
                assert _is_isomorphism(g, h, g._isomorphism_search(h)), name
                assert _is_isomorphism(h, g, h._isomorphism_search(g)), name


def test_permutation_group():
    g = PermutationGroup(3, [(1, 2, 0)])
    assert g.size == 3
    assert g.is_isomorphic(cyclic(3))


def test_generating_sequence_closes():
    for g in [cyclic(12), symmetric(3), dicyclic(8)]:
        gens = g.generating_sequence()
        assert set(g.closure(gens)) == set(range(g.size))


def _structure_groups():
    """Every catalog group, then larger groups of several backings."""
    return [g for n in supported_orders() for _, g in catalog(n)] + [
        symmetric(5),
        alternating(6),
        symmetric(6),
        heisenberg(5),
        affine_frobenius_group(2, 6, 63),
        affine_frobenius_group(3, 4, 80),
        direct_product(symmetric(4), alternating(5)),
    ]


def _argmax_generating_sequence(g):
    """Repeatedly add the lowest-index element of highest order outside the closure so far."""
    orders = g.element_orders()
    gens, cur = [], {0}
    while len(cur) < g.size:
        best = -1
        for x in range(g.size):
            if x not in cur and (best < 0 or orders[x] > orders[best]):
                best = x
        gens.append(best)
        cur = set(g.closure(gens))
    return tuple(gens)


def test_generating_sequence_matches_the_argmax_walk():
    for g in _structure_groups():
        assert g.generating_sequence() == _argmax_generating_sequence(g), g.name


def test_sylow_subgroups_have_the_full_p_part():
    for g in _structure_groups():
        for p in prime_divisors(g.size):
            syl = g.sylow_subgroup(p)
            assert g.is_subgroup(syl), (g.name, p)
            assert len(syl) == p ** dict(factorize(g.size))[p], (g.name, p)
        assert g.sylow_subgroup(7 if g.size % 7 else 101) == (0,)


def test_heisenberg():
    g = heisenberg(3)
    assert g.size == 27
    assert g.exponent() == 3
    assert not g.is_abelian()
    assert g.is_nilpotent()
    assert Counter(g.element_orders())[3] == 26


def _unitriangular(p):
    """Matrices (a, b, c) with (a, b, c)(a', b', c') = (a+a', b+b', c+c'+ab'), as a table."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {x: i for i, x in enumerate(elems)}
    return TableGroup(
        [[index[(a + d) % p, (b + e) % p, (c + f + a * e) % p] for d, e, f in elems] for a, b, c in elems],
        f"UT3({p})",
    )


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_is_the_unitriangular_group(p):
    g, oracle = heisenberg(p), _unitriangular(p)
    assert g.is_isomorphic(oracle)
    assert order_sequence(g) == order_sequence(oracle)


def test_heisenberg_past_the_cap_builds_nothing(monkeypatch):
    for cls in (AbelianGroup, CyclicExtensionGroup):
        monkeypatch.setattr(cls, "__init__", lambda *args: pytest.fail("a group was built"))
    with pytest.raises(SizeLimitError):
        heisenberg(31)
    # the cap comes before the primality test, whose trial division is slow
    monkeypatch.setattr(groups, "is_prime", lambda p: pytest.fail("p was tested for primality"))
    with pytest.raises(SizeLimitError):
        heisenberg(10**14 + 31)
    # C_12502 is under the cap, Dic25004 is not
    with pytest.raises(SizeLimitError):
        dicyclic(25004)


def test_permutation_families_past_the_cap_build_nothing(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(PermutationGroup, "__init__", lambda *args: pytest.fail("a group was built"))
        # 8! and 9!/2 are past the cap; 2000! is never multiplied out
        for build, m_points in ((symmetric, 8), (symmetric, 2000), (alternating, 9)):
            with pytest.raises(SizeLimitError, match="group order exceeds the cap"):
                build(m_points)
    assert symmetric(7).size == 5040
    assert alternating(8).size == 20160


@pytest.mark.parametrize("p, digest", [(3, "adfa20dfe6eef573"), (5, "ee14c4b1d022c2a3")])
def test_heisenberg_tables_are_pinned(p, digest):
    # (a, b, c) has index b*p**2 + c*p + a; graph outputs of Heis(p) follow this numbering
    assert _table_digest(heisenberg(p)) == digest


def test_huge_orders_are_refused_by_size(default_int_str_limit):
    # the size is checked before the default name would format it
    with pytest.raises(SizeLimitError):
        cyclic(10**5000)
    with pytest.raises(SizeLimitError):
        abelian([10**5000])
    with pytest.raises(SizeLimitError):
        dicyclic(4 * 10**5000)


def _rows(g):
    return [[g.mul(a, b) for b in range(g.size)] for a in range(g.size)]


def _associative(rows):
    n = range(len(rows))
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]] for a in n for b in n for c in n)


def _right_closure(rows, gens):
    """What right multiplication by gens reaches from 0."""
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for a in gens:
            y = rows[x][a]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


@pytest.mark.parametrize(
    "table, error",
    [
        ([[0, 1], [1]], "every element"),
        ([[0, 1], [1, 2]], "no right inverse"),
        ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], "not an element index"),
        ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], "associativity"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "inverse"),
        ([[1, 0], [0, 1]], "identity"),
    ],
)
def test_malformed_tables_are_refused(table, error):
    with pytest.raises(PreconditionError, match=error):
        TableGroup(table)


def test_a5_with_one_altered_entry_is_refused():
    # a seeded sample of 1,000 of the 216,000 triples misses the triples
    # this entry breaks; Light's test on the table does not
    rows = _rows(alternating(5))
    assert rows[1][3] not in (0, 1)
    rows[1][3] = 1
    with pytest.raises(PreconditionError, match="associativity"):
        TableGroup(rows)


@pytest.mark.parametrize(
    "build, altered",
    [
        (lambda: cyclic(4), 12),
        (lambda: abelian([2, 2]), 12),
        (lambda: symmetric(3), 80),
        (lambda: cyclic(6), 80),
        (lambda: dicyclic(8), 252),
    ],
)
def test_table_verdicts_match_brute_force_associativity(build, altered):
    # every single-entry change that keeps the identity and the places of 0;
    # only associativity can then decide the verdict
    rows = _rows(build())
    n = len(rows)
    count = 0
    for a in range(1, n):
        for b in range(1, n):
            if rows[a][b] == 0:
                continue
            for c in range(1, n):
                if c == rows[a][b]:
                    continue
                table = [row[:] for row in rows]
                table[a][b] = c
                try:
                    TableGroup(table)
                    accepted = True
                except PreconditionError:
                    accepted = False
                assert accepted == _associative(table), (a, b, c)
                count += 1
    assert count == altered


def test_light_test_checks_every_generator():
    # a Latin square with identity 0 and each element its own inverse: a
    # loop of order 5, not a group; in its product with C3 the first
    # generator, (0, 1), associates with everything, so only a later
    # generator exposes the loop
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    rows = [[x * 3 + (c + d) % 3 for x in top for d in range(3)] for top in loop for c in range(3)]
    n = len(rows)
    assert _right_generators(range(n), lambda x, a: rows[x][a])[0] == 1
    assert all(rows[rows[x][1]][y] == rows[x][rows[1][y]] for x in range(n) for y in range(n))
    assert not _associative(rows)
    with pytest.raises(PreconditionError, match="associativity"):
        TableGroup(rows)


def test_right_generators_reach_everything_and_none_is_spare():
    for n in supported_orders():
        if n > TABLE_LIMIT:
            continue
        for name, g in catalog(n):
            gens = _right_generators(range(n), lambda x, a: g.table[x][a])
            assert _right_closure(g.table, gens) == set(range(n)), name
            if gens:
                assert len(_right_closure(g.table, gens[:-1])) < n, name


def test_table_limit_boundary():
    at, past = cyclic(TABLE_LIMIT), cyclic(TABLE_LIMIT + 1)
    assert at.table is not None and past.table is None
    assert all(at.mul(a, b) == (a + b) % TABLE_LIMIT for a in range(TABLE_LIMIT) for b in range(TABLE_LIMIT))
    assert order_sequence(at) == cyclic_order_sequence(TABLE_LIMIT)
    assert order_sequence(past) == cyclic_order_sequence(TABLE_LIMIT + 1)
    # a product past the limit is a group by construction, one at the limit tabulated
    assert direct_product(cyclic(2), abelian([2] * 5)).table is not None
    wide = direct_product(cyclic(3), abelian([3] * 3))
    assert wide.table is None
    assert order_sequence(wide) == abelian_order_sequence(3, (1, 1, 1, 1))


# the backings that build their Cayley tables from their structure
_STRUCTURAL = (AbelianGroup, DirectProductGroup, CyclicExtensionGroup, PermutationGroup)


def _verify_affine_groups():
    # Aff(3,2), Aff(5,2), Aff(4,3) and Aff(7,3), the affine groups verify builds
    return [affine_frobenius_group(*pdq) for pdq in ((3, 1, 2), (5, 1, 2), (2, 2, 3), (7, 1, 3))]


def test_every_backing_is_a_table_or_structural():
    # _finalize checks only tables, so a backing that built none at
    # TABLE_LIMIT or below would lose its exact checks unseen
    for module in pkgutil.iter_modules(ordseq.__path__):
        importlib.import_module(f"ordseq.{module.name}")
    backings, todo = set(), list(FiniteGroup.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("ordseq."):
            backings.add(cls)
    assert backings == {TableGroup, *_STRUCTURAL}


def test_structural_tables_match_their_mul():
    # the table handed to _finalize and the one the class's own mul fills agree entry by entry
    groups = [
        cyclic(1),
        abelian([]),
        abelian([1, 4]),
        direct_product(cyclic(1), symmetric(3)),
        direct_product(symmetric(3), cyclic(1)),
        CyclicExtensionGroup(cyclic(7), 1, range(7)),
        heisenberg(3),
        symmetric(1),
        alternating(2),
        dihedral(64),
        direct_product(cyclic(2), abelian([2] * 5)),
        *_verify_affine_groups(),
    ]
    for n in supported_orders():
        if n <= TABLE_LIMIT:
            for _, g in catalog(n):
                groups += [g] + [getattr(g, part) for part in ("left", "right", "target") if hasattr(g, part)]
    groups = [g for g in groups if isinstance(g, _STRUCTURAL)]
    assert {type(g) for g in groups} == set(_STRUCTURAL)
    for g in groups:
        mul, n = type(g).mul, g.size
        assert g.table == tuple(tuple(mul(g, a, b) for b in range(n)) for a in range(n)), g.name


def test_structural_backings_build_without_mul(monkeypatch, fresh_builds):
    calls = []
    for cls in _STRUCTURAL:
        def counted(self, a, b, _mul=cls.mul):
            calls.append(type(self))
            return _mul(self, a, b)

        monkeypatch.setattr(cls, "mul", counted)
    for n in supported_orders():
        if n <= TABLE_LIMIT:
            # past the caches, so every group is built here
            for name, g in catalog.__wrapped__(n):
                assert g.table is not None, name
    for g in _verify_affine_groups():
        assert g.table is not None, g.name
    assert calls == []
    # past the limit the class's mul still serves the power walk
    wide = direct_product(cyclic(3), abelian([3] * 3))
    assert wide.table is None and calls
