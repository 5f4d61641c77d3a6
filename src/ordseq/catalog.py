"""Complete catalogs of the groups of supported orders.

Each catalog lists one (name, group) pair per isomorphism type, built
from the formula-backed constructors.  Orders are limited to those with
complete hand-checkable lists; anything else raises
UnsupportedOrderError.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product

from .errors import PreconditionError, UnsupportedOrderError
from .groups import (
    CyclicExtensionGroup,
    FiniteGroup,
    abelian,
    abelian_name,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    power_map,
    symmetric,
)
from .numth import factorize
from .partitions import abelian_order_sequence, partitions_of
from .sequences import OrderSequence, order_sequence, seq_join

KNOWN_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 20: 5, 21: 2, 60: 13,
}


def supported_orders() -> tuple[int, ...]:
    return tuple(sorted(KNOWN_GROUP_COUNTS))


@lru_cache(maxsize=None)
def frobenius20() -> CyclicExtensionGroup:
    """Order 20, a five-cycle twisted by an order-4 multiplier."""
    return CyclicExtensionGroup(cyclic(5), 4, power_map(5, 2), name="F20")


@lru_cache(maxsize=None)
def frobenius21() -> CyclicExtensionGroup:
    """Order 21, a seven-cycle twisted by an order-3 multiplier."""
    return CyclicExtensionGroup(cyclic(7), 3, power_map(7, 2), name="F21")


@lru_cache(maxsize=None)
def modular16() -> CyclicExtensionGroup:
    """The modular group of order 16: C8 twisted by the fifth-power map."""
    return CyclicExtensionGroup(cyclic(8), 2, power_map(8, 5), name="M16")


@lru_cache(maxsize=None)
def semidihedral16() -> CyclicExtensionGroup:
    """The semidihedral group of order 16: C8 twisted by the cube map."""
    return CyclicExtensionGroup(cyclic(8), 2, power_map(8, 3), name="SD16")


_FAMILIES = {
    "dihedral": (1, lambda m: dihedral(m)),
    "dicyclic": (1, lambda m: dicyclic(m)),
    "symmetric": (1, lambda m: symmetric(m)),
    "alternating": (1, lambda m: alternating(m)),
    "heisenberg": (1, lambda p: heisenberg(p)),
    "modular16": (0, modular16),
    "semidihedral16": (0, semidihedral16),
    "F20": (0, frobenius20),
    "F21": (0, frobenius21),
}


def standard_family(name: str, params: tuple[int, ...] = ()) -> FiniteGroup:
    """Build a named standard group; parametric families take their size."""
    if name not in _FAMILIES:
        raise PreconditionError(f"unknown standard family {name!r}")
    arity, build = _FAMILIES[name]
    if len(params) != arity:
        raise PreconditionError(f"family {name} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


def _order16() -> list[FiniteGroup]:
    c4_on_c4 = CyclicExtensionGroup(cyclic(4), 4, power_map(4, -1), name="C4:C4")
    swap = (0, 2, 1, 3)
    v4_by_c4 = CyclicExtensionGroup(abelian([2, 2]), 4, swap, name="(C2xC2):C4")
    # D8 glued to C4 over their centres: C4xC2, spanned by the rotation a
    # and t = a*c' with index 2i + j for a**i * t**j, twisted by the
    # reflection, which inverts a and fixes c, so (i, j) -> (2j - i, j)
    central = CyclicExtensionGroup(abelian([4, 2]), 2, (0, 5, 6, 3, 4, 1, 2, 7), name="D8*C4")
    return [
        cyclic(16),
        abelian([8, 2]),
        abelian([4, 4]),
        abelian([4, 2, 2]),
        abelian([2, 2, 2, 2]),
        dihedral(16),
        dicyclic(16, "Q16"),
        semidihedral16(),
        modular16(),
        direct_product(dihedral(8), cyclic(2), "D8xC2"),
        direct_product(dicyclic(8, "Q8"), cyclic(2), "Q8xC2"),
        c4_on_c4,
        v4_by_c4,
        central,
    ]


def _order60() -> list[FiniteGroup]:
    return [
        cyclic(60),
        abelian([2, 30], "C2xC30"),
        alternating(5),
        dihedral(60),
        dicyclic(60),
        direct_product(cyclic(3), dihedral(20), "C3xD20"),
        direct_product(cyclic(5), dihedral(12), "C5xD12"),
        direct_product(cyclic(3), dicyclic(20), "C3xDic20"),
        direct_product(cyclic(5), dicyclic(12), "C5xDic12"),
        direct_product(cyclic(3), frobenius20(), "C3xF20"),
        CyclicExtensionGroup(cyclic(15), 4, power_map(15, 2), name="C15:C4"),
        direct_product(symmetric(3), dihedral(10), "S3xD10"),
        direct_product(cyclic(5), alternating(4), "C5xA4"),
    ]


def _build_catalog(n: int) -> list[FiniteGroup]:
    if n in (1, 2, 3, 5, 7, 11, 13):
        return [cyclic(n)]
    if n == 6:
        return [cyclic(6), symmetric(3)]
    if n in (10, 14):
        return [cyclic(n), dihedral(n)]
    if n == 4:
        return [cyclic(4), abelian([2, 2])]
    if n == 9:
        return [cyclic(9), abelian([3, 3])]
    if n == 15:
        return [cyclic(15)]
    if n == 8:
        return [cyclic(8), abelian([4, 2]), abelian([2, 2, 2]), dihedral(8), dicyclic(8, "Q8")]
    if n == 12:
        return [cyclic(12), abelian([2, 6], "C2xC6"), dihedral(12), dicyclic(12), alternating(4)]
    if n == 16:
        return _order16()
    if n == 20:
        return [cyclic(20), abelian([2, 10], "C2xC10"), dihedral(20), dicyclic(20), frobenius20()]
    if n == 21:
        return [cyclic(21), frobenius21()]
    if n == 60:
        return _order60()
    raise UnsupportedOrderError(f"no complete catalog for order {n}")


@lru_cache(maxsize=None)
def catalog(n: int) -> tuple[tuple[str, FiniteGroup], ...]:
    """All groups of order n up to isomorphism, as (name, group) pairs."""
    if n not in KNOWN_GROUP_COUNTS:
        raise UnsupportedOrderError(f"no complete catalog for order {n}")
    pairs = tuple((g.name, g) for g in _build_catalog(n))
    if len(pairs) != KNOWN_GROUP_COUNTS[n]:
        raise AssertionError(f"catalog for order {n} has the wrong length")
    if len({name for name, _ in pairs}) != len(pairs):
        raise AssertionError(f"catalog for order {n} has duplicate names")
    return pairs


def group_by_name(n: int, name: str) -> FiniteGroup:
    for entry, g in catalog(n):
        if entry == name:
            return g
    raise UnsupportedOrderError(f"order {n} has no catalog entry named {name}")


def _abelian_factors(p: int, a: int) -> list:
    """Each abelian group of order p**a as (name, order sequence, moduli), one per partition of a."""
    out = []
    for shape in partitions_of(a):
        moduli = tuple(p**part for part in shape)
        out.append((abelian_name(moduli), abelian_order_sequence(p, shape), moduli))
    return out


def _sylow_factors(p: int, a: int) -> list:
    """Each group of order p**a as (name, order sequence, build), in listing order."""
    if a <= 2:
        return [(name, seq, lambda m=moduli: abelian(m)) for name, seq, moduli in _abelian_factors(p, a)]
    if p == 2 and a in (3, 4):
        return [(name, order_sequence(g), lambda g=g: g) for name, g in catalog(2**a)]
    raise UnsupportedOrderError(f"no complete p-group list for {p}**{a}")


def _products(n: int, factors):
    """One tuple of factors(p, a), one factor per prime power p**a of n, for each group in listing order."""
    return product(*[factors(p, a) for p, a in factorize(n)])


def _product_name(factors) -> str:
    return "x".join(name for name, _, _ in factors) or "C1"


def _joined(factors) -> OrderSequence:
    """The sequence of a direct product, the lcm-join of its factors' sequences; C1's for none."""
    return reduce(seq_join, (seq for _, seq, _ in factors), OrderSequence({1: 1}))


def _nilpotent_build(factors) -> FiniteGroup:
    groups = [build() for _, _, build in factors]
    return reduce(direct_product, groups) if groups else cyclic(1)


@lru_cache(maxsize=None)
def nilpotent_groups_of_order(n: int) -> tuple[FiniteGroup, ...]:
    """All nilpotent groups of order n: products of one group per prime."""
    return tuple(map(_nilpotent_build, _products(n, _sylow_factors)))


def nilpotent_sequences_of_order(n: int) -> tuple[tuple[str, OrderSequence], ...]:
    """(name, order sequence) of each group of nilpotent_groups_of_order(n), in its order.

    A nilpotent group is the direct product of its Sylow subgroups, so its
    sequence is the lcm-join of theirs; no product is built.
    """
    return tuple((_product_name(factors), _joined(factors)) for factors in _products(n, _sylow_factors))


def nilpotent_group(n: int, name: str) -> FiniteGroup:
    """The group of nilpotent_groups_of_order(n) with this name, built on its own."""
    for factors in _products(n, _sylow_factors):
        if _product_name(factors) == name:
            return _nilpotent_build(factors)
    raise UnsupportedOrderError(f"order {n} has no nilpotent group named {name}")


@lru_cache(maxsize=None)
def abelian_groups_of_order(n: int) -> tuple[FiniteGroup, ...]:
    """All abelian groups of order n via partitions of each prime exponent."""
    products = _products(n, _abelian_factors)
    return tuple(abelian([m for _, _, moduli in factors for m in moduli]) for factors in products)


def abelian_sequences_of_order(n: int) -> tuple[tuple[str, OrderSequence], ...]:
    """(name, order sequence) of each group of abelian_groups_of_order(n), in its order.

    Each Sylow subgroup's sequence is the closed form of its partition and
    the group's is their lcm-join; no group is built.
    """
    return tuple((_product_name(factors), _joined(factors)) for factors in _products(n, _abelian_factors))


def elementary_product(n: int) -> FiniteGroup:
    """The product of elementary abelian Sylow subgroups for order n."""
    moduli = [p for p, a in factorize(n) for _ in range(a)]
    return abelian(moduli)
