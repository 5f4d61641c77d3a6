"""Finite groups on integer element indices.

Every group is the set {0, ..., size-1} with 0 as the identity.
Concrete backings supply `mul`, and one of at most TABLE_LIMIT elements
hands in its Cayley table built from its structure; everything else
(inverses, element orders, closures, quotients, Sylow subgroups,
isomorphism testing) is generic and works uniformly across backings.
Isomorphism is decided by one invariant cached per group (_iso_key: the
abelian flag and how many elements have each order and number of square
roots); only non-abelian groups with equal invariants reach the
generator-image search, which returns the isomorphism it finds.
A cyclic group is the AbelianGroup of one modulus; dihedral, dicyclic,
Heisenberg and (in fields) affine groups are CyclicExtensionGroups.

Every backing is a group either by an exact check of its Cayley table or
by construction.  A group with a table, so every TableGroup and every
group of at most TABLE_LIMIT elements, is checked on it (associativity by
Light's test) and then multiplies by table lookup and reads its inverses
off the table.  A larger group is a group by construction: a direct sum
of cyclic groups, a direct product of groups, a closure of permutations
under composition, or a cyclic extension whose action passed its exact
check (Hoelder's conditions).  It takes its inverses from the power walk
of element_orders.

The public constructors are memoized (lru_cache), so each distinct group
is built and checked once per process and the same call returns the
same object; a refused build is not cached.  Groups are never changed
after they are built, so sharing them is safe.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain
from operator import itemgetter

from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    NotNormal,
    NotSubgroup,
    PreconditionError,
    SizeLimitError,
)
from .numth import is_power_of, is_prime, prime_divisors

MAX_GROUP_SIZE = 25000
ISO_SIZE_LIMIT = 2500
TABLE_LIMIT = 64


def _right_generators(candidates, mul) -> tuple[int, ...]:
    """Each candidate, in order, that right multiplication by the ones kept
    before does not reach from 0; without the last one kept, some element
    stays unreached.  On a Cayley table whose row and column 0 are the
    identity, the elements a with (x*a)*y = x*(a*y) for all x and y are
    closed under products, so checking those laws for the kept indices
    alone proves the table associative (Light's test; Clifford & Preston,
    The Algebraic Theory of Semigroups, vol. 1, 1961, sec. 1.2).
    """
    gens: list[int] = []
    reached = [0]
    seen = {0}
    for g in candidates:
        if g in seen:
            continue
        gens.append(g)
        for x in reached:
            for a in gens:
                y = mul(x, a)
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
    return tuple(gens)


def _cyclic_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Cayley table of the integers mod n: each row is a rotation."""
    return tuple(tuple(chain(range(a, n), range(a))) for a in range(n))


def _product_rows(left_rows, right_rows) -> tuple[tuple[int, ...], ...]:
    """Cayley table of the direct product, with index a1 * |right| + a2."""
    h = len(right_rows)
    return tuple(tuple(x * h + y for x in lrow for y in rrow) for lrow in left_rows for rrow in right_rows)


class FiniteGroup:
    """Base class; subclasses implement mul and end __init__ with _finalize, which binds inv."""

    table: tuple[tuple[int, ...], ...] | None = None  # Cayley table rows; see _finalize

    def __init__(self, size: int, name: str | None):
        # subclasses format their default names after this, as a huge size cannot be printed
        if size < 1:
            raise PreconditionError("a group needs at least the identity")
        if size > MAX_GROUP_SIZE:
            raise SizeLimitError(f"group order exceeds the cap of {MAX_GROUP_SIZE}")
        self.size = size
        self.name = name
        self._orders: tuple[int, ...] | None = None
        self._gens: tuple[int, ...] | None = None
        self._key: tuple | None = None

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} of size {self.size}>"

    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, computed one cyclic subgroup at a time.

        Walking the powers g, g**2, ..., g**m = 0 visits the whole cyclic
        subgroup of g, and inside it g**k has order m / gcd(m, k) and
        inverse g**(m-k), so each cyclic subgroup is charged only once.
        Untabulated groups take their inverses from this walk.  Powers
        that do not reach 0 within `size` steps never will: the backing
        is not a group.
        """
        if self._orders is None:
            n = self.size
            orders = [0] * n
            invs = [0] * n
            orders[0] = 1
            for g in range(1, n):
                if orders[g]:
                    continue
                cycle = [g]
                x = self.mul(g, g)
                while x != 0:
                    cycle.append(x)
                    if len(cycle) == n:
                        raise PreconditionError(f"the powers of {g} never reach the identity")
                    x = self.mul(x, g)
                m = len(cycle) + 1
                for k, e in enumerate(cycle, start=1):
                    if not orders[e]:
                        orders[e] = m // math.gcd(m, k)
                        invs[e] = cycle[-k]
            self._orders = tuple(orders)
            if self.table is None:
                self.inv = tuple(invs).__getitem__
        return self._orders

    def exponent(self) -> int:
        return reduce(math.lcm, set(self.element_orders()), 1)

    def _finalize(self) -> None:
        """Check the group axioms on the finished backing.

        A TableGroup sets `table` first, at any size, and every other
        backing does so from its structure when it has at most
        TABLE_LIMIT elements (a product from its factors' tables).  On a
        table the checks are exact: every row has a 0, every product is an
        index, 0 is a two-sided identity, the right inverse of every g
        (where its row has the 0) is a left inverse too, and Light's test
        proves associativity.  Then `mul` and `inv` read the table.  A
        group without one is a group by construction (see the module
        docstring); it only walks its powers, which binds `inv` and refuses
        a backing whose powers never reach the identity.
        """
        n = self.size
        rows = self.table
        if rows is None:
            self.element_orders()
            return
        invs = []
        for g, row in enumerate(rows):
            try:
                invs.append(row.index(0))
            except ValueError:
                raise PreconditionError(f"element {g} has no right inverse") from None
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
            raise PreconditionError("a product is not an element index")
        elements = tuple(range(n))
        for g in elements:
            if rows[0][g] != g or rows[g][0] != g:
                raise PreconditionError(f"index 0 is not an identity at {g}")
        for g, h in enumerate(invs):
            if rows[h][g] != 0:
                raise PreconditionError(f"{h} fails as the inverse of {g}")
        for a in _right_generators(elements, lambda x, a: rows[x][a]):
            right = itemgetter(*rows[a])
            for x, row in enumerate(rows):
                if rows[row[a]] != right(row):
                    y = next(y for y in elements if rows[row[a]][y] != row[rows[a][y]])
                    raise PreconditionError(f"associativity fails at ({x}, {a}, {y})")

        def mul(a: int, b: int) -> int:
            return rows[a][b]

        self.table = rows
        self.mul = mul
        self.inv = tuple(invs).__getitem__

    def _elements(self, elems) -> set[int]:
        """The indices as a set, each checked to be an element."""
        s = set(elems)
        for g in s:
            if not 0 <= g < self.size:
                raise PreconditionError(f"index {g} is out of range")
        return s

    def closure(self, gens) -> tuple[int, ...]:
        """Subgroup generated by gens, as a sorted index tuple."""
        gens = self._elements(gens)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return tuple(sorted(seen))

    def is_subgroup(self, elems) -> bool:
        s = self._elements(elems)
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def subgroup(self, elems, name: str | None = None) -> "TableGroup":
        """Reindex a closed subset as a standalone group."""
        s = sorted(set(elems))
        if not self.is_subgroup(s):
            raise NotSubgroup(f"{len(s)} elements do not form a subgroup of {self.name}")
        index = {e: i for i, e in enumerate(s)}
        table = [[index[self.mul(a, b)] for b in s] for a in s]
        return TableGroup(table, name or f"{self.name}|{len(s)}")

    def conjugate(self, g: int, a: int) -> int:
        return self.mul(self.mul(g, a), self.inv(g))

    def is_normal(self, elems) -> bool:
        """Whether the subgroup is stable under conjugation.

        Conjugations by a generating set generate all inner automorphisms,
        so only those are tested.
        """
        s = self._elements(elems)
        return all(self.conjugate(g, a) in s for g in self.generating_sequence() for a in s)

    def quotient(self, elems, name: str | None = None) -> "TableGroup":
        """Quotient by a normal subgroup; the identity coset gets index 0."""
        s = sorted(set(elems))
        if not self.is_subgroup(s):
            raise NotSubgroup(f"{len(s)} elements do not form a subgroup of {self.name}")
        if not self.is_normal(s):
            raise NotNormal(f"a subgroup of size {len(s)} is not normal in {self.name}")
        cid = [-1] * self.size
        reps: list[int] = []
        for x in range(self.size):
            if cid[x] >= 0:
                continue
            for h in s:
                cid[self.mul(x, h)] = len(reps)
            reps.append(x)
        table = [[cid[self.mul(a, b)] for b in reps] for a in reps]
        return TableGroup(table, name or f"{self.name}/{len(s)}")

    def generating_sequence(self) -> tuple[int, ...]:
        """A short generating list: _right_generators over the elements by falling order, ties by index."""
        if self._gens is None:
            orders = self.element_orders()
            ranked = sorted(range(self.size), key=orders.__getitem__, reverse=True)
            self._gens = _right_generators(ranked, self.mul)
        return self._gens

    def is_abelian(self) -> bool:
        gens = self.generating_sequence()
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def sylow_subgroup(self, p: int) -> tuple[int, ...]:
        """A Sylow p-subgroup, grown in one pass over the p-elements by index.

        The pass keeps an element x when x and the elements kept so far
        generate a p-group, and stops once that subgroup has the full
        p-part of the order.  A refused element stays refused: the
        subgroup it was refused with only grows.  Suppose the pass ended
        at a p-subgroup Q short of a Sylow subgroup S containing it.  In
        the p-group S the normalizer of Q is larger than Q, so S has a
        p-element y outside Q that normalizes Q, and Q<y> is a p-group.
        When the pass reached y, y and the smaller subgroup it had then
        lay in Q<y>, so y was kept: a contradiction.
        """
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        target = 1
        while self.size % (target * p) == 0:
            target *= p
        orders = self.element_orders()
        gens: list[int] = []
        sub = {0}
        for x in range(1, self.size):
            if len(sub) == target:
                break
            if x not in sub and is_power_of(orders[x], p):
                grown = self.closure(gens + [x])
                if is_power_of(len(grown), p):
                    gens.append(x)
                    sub = set(grown)
        if len(sub) != target:
            raise AssertionError(f"the Sylow {p}-pass stopped at {len(sub)} of {target} elements")
        return tuple(sorted(sub))

    def is_nilpotent(self) -> bool:
        """Whether every Sylow subgroup is normal, checked by conjugation."""
        return all(self.is_normal(self.sylow_subgroup(p)) for p in prime_divisors(self.size))

    def _iso_key(self) -> tuple:
        """Whether the group is abelian, and the sorted counts of (order of g,
        number of x with x*x = g) over all g.

        An isomorphism preserves both parts, so groups with different keys
        are not isomorphic; the counts include those of the element orders.
        """
        if self._key is None:
            elements = range(self.size)
            roots = Counter(map(self.mul, elements, elements))
            counts = Counter(zip(self.element_orders(), map(roots.__getitem__, elements)))
            self._key = (self.is_abelian(), tuple(sorted(counts.items())))
        return self._key

    def is_isomorphic(self, other: "FiniteGroup") -> bool:
        """Decide isomorphism by _iso_key, then, for non-abelian groups, a generator-image search."""
        if self.size != other.size:
            return False
        if max(self.size, other.size) > ISO_SIZE_LIMIT:
            raise SizeLimitError(f"isomorphism testing is capped at {ISO_SIZE_LIMIT} elements")
        key = self._iso_key()
        if key != other._iso_key():
            return False
        # abelian groups are determined by their element orders
        return key[0] or self._isomorphism_search(other) is not None

    def _isomorphism_search(self, other: "FiniteGroup") -> dict[int, int] | None:
        """An isomorphism onto other as a map of indices, or None when there is none.

        Each generator of generating_sequence is sent, depth first, to each
        element of other with its order.
        """
        gens = self.generating_sequence()
        my_orders, their_orders = self.element_orders(), other.element_orders()
        cands = [[h for h in range(other.size) if their_orders[h] == my_orders[g]] for g in gens]

        def extend(images: list[int]) -> dict[int, int] | None:
            # grow the partial map over the subgroup the chosen images define;
            # every (element, generator) product is checked, so once every
            # generator has an image the map covers the group and is a
            # bijective homomorphism
            pairs = list(zip(gens, images))
            mapping = {0: 0}
            used = {0}
            stack = [0]
            while stack:
                x = stack.pop()
                fx = mapping[x]
                for g, img in pairs:
                    y = self.mul(x, g)
                    fy = other.mul(fx, img)
                    if y in mapping:
                        if mapping[y] != fy:
                            return None
                    elif fy in used:
                        return None
                    else:
                        mapping[y] = fy
                        used.add(fy)
                        stack.append(y)
            return mapping

        def dfs(images: list[int]) -> dict[int, int] | None:
            mapping = extend(images)
            if mapping is None or len(images) == len(gens):
                return mapping
            for h in cands[len(images)]:
                found = dfs(images + [h])
                if found is not None:
                    return found
            return None

        return dfs([])


class AbelianGroup(FiniteGroup):
    """Direct sum of cyclic groups, elements in mixed-radix encoding.

    The last modulus varies fastest.  Digit i of an index a is
    a // s_i % m_i for the stride s_i (the product of the later moduli),
    and a // s_i is congruent to that digit mod m_i, so each digit sum
    reduces without extracting the digits first.
    """

    def __init__(self, moduli, name: str | None = None):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in moduli):
            raise PreconditionError("moduli must be positive integers")
        super().__init__(math.prod(moduli), name)
        self.name = name or abelian_name(moduli)
        strides = []
        s = 1
        for m in reversed(moduli):
            if m > 1:
                strides.append((m, s))
            s *= m
        self._strides = tuple(strides)
        if self.size <= TABLE_LIMIT:
            self.table = reduce(_product_rows, map(_cyclic_rows, moduli)) if moduli else ((0,),)
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        out = 0
        for m, s in self._strides:
            out += (a // s + b // s) % m * s
        return out


class DirectProductGroup(FiniteGroup):
    """Componentwise product of two groups; index is left * |right| + right."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup, name: str | None = None):
        super().__init__(left.size * right.size, name or f"{left.name}x{right.name}")
        self.left = left
        self.right = right
        if self.size <= TABLE_LIMIT:
            # both factors are at most as large, so both are tabulated
            self.table = _product_rows(left.table, right.table)
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        h = self.right.size
        a1, a2 = divmod(a, h)
        b1, b2 = divmod(b, h)
        return self.left.mul(a1, b1) * h + self.right.mul(a2, b2)


class CyclicExtensionGroup(FiniteGroup):
    """Extension of target by C_k whose generator g acts as the automorphism
    gen_perm and has g**k = z, an element of target; z = 0 is the split case.

    Elements x * g**i have index x * k + i, and (x g**i)(y g**j) is
    x * gen_perm**i(y) * g**(i+j) with g**k replaced by z: a group when
    gen_perm fixes z and gen_perm**k is conjugation by z (Hoelder).
    """

    def __init__(self, target: FiniteGroup, k: int, gen_perm, z: int = 0, name: str | None = None):
        super().__init__(target.size * k, name)
        self.name = name or f"{target.name}:C{k}"
        n = target.size
        if not 0 <= z < n:
            raise PreconditionError(f"g**k = {z} is not an element of the target")
        gen_perm = tuple(gen_perm)
        if sorted(gen_perm) != list(range(n)):
            raise ActionNotAutomorphism("the generator does not permute the target")
        perms = [tuple(range(n))]
        for _ in range(k - 1):
            perms.append(tuple(gen_perm[x] for x in perms[-1]))
        mul = target.mul
        # a bijection that respects right multiplication by each generator
        # respects every product; on a failure the first bad pair in
        # row-major order is reported, found at or before the row of some
        # generator, as gen_perm would be a homomorphism if every one held
        gens = target.generating_sequence()
        if any(gen_perm[mul(x, g)] != mul(gen_perm[x], gen_perm[g]) for g in gens for x in range(n)):
            a, b = next(
                (a, b) for a in range(n) for b in range(n) if gen_perm[mul(a, b)] != mul(gen_perm[a], gen_perm[b])
            )
            raise ActionNotAutomorphism(f"acting element 1 breaks the product at ({a}, {b})")
        if gen_perm[z] != z:
            raise ActionNotHomomorphism(f"the generator's automorphism moves g**k = {z}")
        conj_z = perms[0] if z == 0 else tuple(target.conjugate(z, y) for y in range(n))
        if tuple(gen_perm[x] for x in perms[-1]) != conj_z:
            raise ActionNotHomomorphism(f"the generator's automorphism**{k} is not conjugation by {z}")
        self.target = target
        self.k = k
        self.perms = tuple(perms)
        self.times_z = tuple(mul(t, z) for t in range(n))
        if self.size <= TABLE_LIMIT:
            # blocks[i][t] lists x g**i * y g**j over j < k for t = x * gen_perm**i(y); past g**k, t becomes t*z
            blocks = [
                [(*range(t * k + i, t * k + k), *range(tz * k, tz * k + i)) for t, tz in enumerate(self.times_z)]
                for i in range(k)
            ]
            self.table = tuple(
                tuple(chain.from_iterable(map(block.__getitem__, map(row.__getitem__, perm))))
                for row in target.table
                for block, perm in zip(blocks, perms)
            )
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        k = self.k
        x, i = divmod(a, k)
        y, j = divmod(b, k)
        x = self.target.mul(x, self.perms[i][y])
        return (x if i + j < k else self.times_z[x]) * k + (i + j) % k


class PermutationGroup(FiniteGroup):
    """Closure of a set of permutations of 0..degree-1 under composition."""

    def __init__(self, degree: int, generators, name: str | None = None):
        if degree < 1:
            raise PreconditionError("degree must be positive")
        ident = tuple(range(degree))
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(ident):
                raise PreconditionError(f"{g} is not a permutation of degree {degree}")
        elems = [ident]
        index = {ident: 0}
        head = 0
        while head < len(elems):
            x = elems[head]
            head += 1
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in index:
                    if len(elems) >= MAX_GROUP_SIZE:
                        raise SizeLimitError(f"permutation closure exceeded {MAX_GROUP_SIZE} elements")
                    index[y] = len(elems)
                    elems.append(y)
        n = len(elems)
        super().__init__(n, name or f"Perm{n}")
        self.perms = elems
        self._index = index
        if n <= TABLE_LIMIT:
            # the closure found each y but the identity as x * g with x found before y,
            # so column y is column x mapped through g's right list: right[c] = c * g
            rights = [[index[tuple(map(pc.__getitem__, g))] for pc in elems] for g in gens]
            cols = [range(n)] + [None] * (n - 1)
            for x in range(n):
                for right in rights:
                    y = right[x]
                    if cols[y] is None:
                        cols[y] = tuple(map(right.__getitem__, cols[x]))
            self.table = tuple(zip(*cols))
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        pa, pb = self.perms[a], self.perms[b]
        return self._index[tuple(pa[i] for i in pb)]


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table."""

    def __init__(self, table, name: str | None = None):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        super().__init__(n, name or f"Table{n}")
        if any(len(row) != n for row in rows):
            raise PreconditionError("each table row must list an index for every element")
        self.table = rows  # _finalize checks it and then serves mul and inv from it
        self._finalize()


def cyclic(n: int) -> AbelianGroup:
    """Integers modulo n under addition."""
    return abelian((n,))


def abelian_name(moduli) -> str:
    """The default name of AbelianGroup(moduli), such as C2xC2; C1 for no moduli."""
    return "x".join(f"C{m}" for m in moduli) or "C1"


def abelian(moduli, name: str | None = None) -> AbelianGroup:
    return _abelian(tuple(moduli), name)


@lru_cache(maxsize=None)
def _abelian(moduli: tuple, name: str | None) -> AbelianGroup:
    return AbelianGroup(moduli, name)


@lru_cache(maxsize=None)
def direct_product(left: FiniteGroup, right: FiniteGroup, name: str | None = None) -> DirectProductGroup:
    return DirectProductGroup(left, right, name)


def power_map(n: int, r: int) -> tuple[int, ...]:
    """The map x -> r*x on the cyclic group of order n; r = -1 inverts."""
    return tuple(r * x % n for x in range(n))


@lru_cache(maxsize=None)
def dihedral(order: int) -> FiniteGroup:
    """Symmetries of the regular (order/2)-gon."""
    if order % 2 or order < 2:
        raise PreconditionError("dihedral groups have even order")
    m = order // 2
    return CyclicExtensionGroup(cyclic(m), 2, power_map(m, -1), name=f"D{order}")


@lru_cache(maxsize=None)
def dicyclic(order: int, name: str | None = None) -> CyclicExtensionGroup:
    """Order 4m: a of order 2m, b**2 = a**m and b a b' = a'; a**i * b**j has index 2i + j."""
    m, r = divmod(order, 4)
    if r or m < 1:
        raise PreconditionError("dicyclic groups have order divisible by 4")
    if order > MAX_GROUP_SIZE:
        raise SizeLimitError(f"group order exceeds the cap of {MAX_GROUP_SIZE}")
    return CyclicExtensionGroup(cyclic(2 * m), 2, power_map(2 * m, -1), m, name=name or f"Dic{order}")


@lru_cache(maxsize=None)
def heisenberg(p: int) -> CyclicExtensionGroup:
    """Unitriangular 3x3 matrices over the prime field, for odd p.

    Entries (a, b, c) multiply by (a+a', b+b', c+c'+a*b').  This is C_p x C_p,
    holding (b, c), twisted by C_p, holding a, which acts as conjugation by
    the matrix does: (b, c) goes to (b, c + a*b).  The index is b*p**2 + c*p + a.
    """
    if p**3 > MAX_GROUP_SIZE:
        raise SizeLimitError(f"group order exceeds the cap of {MAX_GROUP_SIZE}")
    if not is_prime(p) or p == 2:
        raise PreconditionError("this construction needs an odd prime")
    shear = tuple(b * p + (b + c) % p for b in range(p) for c in range(p))
    return CyclicExtensionGroup(abelian([p, p]), p, shear, name=f"Heis{p}")


def _check_factorial_order(m: int, d: int) -> None:
    """Raise SizeLimitError when m!/d exceeds MAX_GROUP_SIZE, multiplying only until it does."""
    order = 1
    for k in range(2, m + 1):
        order *= k
        if order > d * MAX_GROUP_SIZE:
            raise SizeLimitError(f"group order exceeds the cap of {MAX_GROUP_SIZE}")


@lru_cache(maxsize=None)
def symmetric(m: int) -> PermutationGroup:
    """Symmetric group on m points."""
    if m < 1:
        raise PreconditionError("need at least one point")
    _check_factorial_order(m, 1)
    if m == 1:
        return PermutationGroup(1, [], name="S1")
    swap = list(range(m))
    swap[0], swap[1] = 1, 0
    cycle = tuple((i + 1) % m for i in range(m))
    return PermutationGroup(m, [tuple(swap), cycle], name=f"S{m}")


@lru_cache(maxsize=None)
def alternating(m: int) -> PermutationGroup:
    """Alternating group on m points, generated by 3-cycles through 0 and 1."""
    if m < 1:
        raise PreconditionError("need at least one point")
    _check_factorial_order(m, 2)
    if m < 3:
        return PermutationGroup(m, [], name=f"A{m}")
    gens = []
    for k in range(2, m):
        p = list(range(m))
        p[0], p[1], p[k] = 1, k, 0
        gens.append(tuple(p))
    return PermutationGroup(m, gens, name=f"A{m}")
