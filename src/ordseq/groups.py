"""Finite groups on integer element indices.

Every group is the set {0, ..., size-1} with 0 as the identity.
Concrete backings supply `mul` and `inv`; everything else (element
orders, closures, quotients, Sylow subgroups, isomorphism testing)
is generic and works uniformly across backings.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache, reduce
from itertools import product

from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    NotNormal,
    NotSubgroup,
    PreconditionError,
    SizeLimitError,
)
from .numth import is_power_of, is_prime

MAX_GROUP_SIZE = 25000
ISO_SIZE_LIMIT = 2500
_SPOT_SAMPLES = 1000
_EXHAUSTIVE_PAIRS = 256


@lru_cache(maxsize=None)
def _seeded_draws(seed: int, n: int, count: int) -> tuple[int, ...]:
    """Draw for draw, the values random.Random(seed).randrange(n) gives count times.

    randrange(n) rejects getrandbits(n.bit_length()) until the value is
    below n; calling getrandbits directly skips the per-draw argument
    handling, which dominated the cost of the axiom spot-checks.  Every
    group of one size checks its axioms on the same draws, so each
    (seed, n, count) is drawn once per process.
    """
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    out: list[int] = []
    while len(out) < count:
        r = bits(k)
        if r < n:
            out.append(r)
    return tuple(out)


class FiniteGroup:
    """Base class; subclasses must implement mul and inv."""

    identity = 0

    def __init__(self, size: int, name: str):
        if size < 1:
            raise PreconditionError("a group needs at least the identity")
        if size > MAX_GROUP_SIZE:
            raise SizeLimitError(f"group order exceeds the cap of {MAX_GROUP_SIZE}")
        self.size = size
        self.name = name
        self._orders: tuple[int, ...] | None = None
        self._gens: tuple[int, ...] | None = None

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} of size {self.size}>"

    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, computed one cyclic subgroup at a time.

        Walking the powers of g visits its whole cyclic subgroup, and the
        order of g**k inside a cycle of length m is m / gcd(m, k), so each
        cyclic subgroup is charged only once.
        """
        if self._orders is None:
            orders = [0] * self.size
            orders[0] = 1
            for g in range(1, self.size):
                if orders[g]:
                    continue
                cycle = [g]
                x = self.mul(g, g)
                while x != 0:
                    cycle.append(x)
                    x = self.mul(x, g)
                m = len(cycle) + 1
                for k, e in enumerate(cycle, start=1):
                    if not orders[e]:
                        orders[e] = m // math.gcd(m, k)
            self._orders = tuple(orders)
        return self._orders

    def exponent(self) -> int:
        return reduce(math.lcm, set(self.element_orders()), 1)

    def _finalize(self) -> None:
        """Spot-check the group axioms on the finished backing."""
        n = self.size
        mul, inv = self.mul, self.inv
        for g in range(n):
            if mul(0, g) != g or mul(g, 0) != g:
                raise PreconditionError(f"index 0 is not an identity at {g}")
        sample = range(n) if n <= 4096 else _seeded_draws(n, n, _SPOT_SAMPLES)
        for g in sample:
            h = inv(g)
            if mul(g, h) != 0 or mul(h, g) != 0:
                raise PreconditionError(f"{h} fails as the inverse of {g}")
        if n**3 <= _SPOT_SAMPLES:
            triples = product(range(n), repeat=3)
        else:
            draws = iter(_seeded_draws(n + 1, n, 3 * _SPOT_SAMPLES))
            triples = zip(draws, draws, draws)
        for a, b, c in triples:
            if mul(mul(a, b), c) != mul(a, mul(b, c)):
                raise PreconditionError(f"associativity fails at ({a}, {b}, {c})")

    def closure(self, gens) -> tuple[int, ...]:
        """Subgroup generated by gens, as a sorted index tuple."""
        gens = list(dict.fromkeys(gens))
        for g in gens:
            if not 0 <= g < self.size:
                raise PreconditionError(f"index {g} is out of range")
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
        s = set(elems)
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
        s = set(elems)
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
        """A short generating list, greedily preferring high element orders."""
        if self._gens is None:
            orders = self.element_orders()
            gens: list[int] = []
            cur: tuple[int, ...] = (0,)
            cur_set = {0}
            while len(cur_set) < self.size:
                best = -1
                for g in range(self.size):
                    if g not in cur_set and (best < 0 or orders[g] > orders[best]):
                        best = g
                gens.append(best)
                cur = self.closure(gens)
                cur_set = set(cur)
            self._gens = tuple(gens)
        return self._gens

    def is_abelian(self) -> bool:
        gens = self.generating_sequence()
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def sylow_subgroup(self, p: int) -> tuple[int, ...]:
        """A Sylow p-subgroup, grown greedily from random p-elements.

        Any p-subgroup sits inside a Sylow subgroup and its normalizer there
        is strictly larger, so a suitable extension element always exists.
        """
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        target = 1
        while self.size % (target * p) == 0:
            target *= p
        if target == 1:
            return (0,)
        orders = self.element_orders()
        pool = [g for g in range(1, self.size) if is_power_of(orders[g], p)]
        rng = random.Random(self.size * 31 + p)
        cur = {0}
        for _ in range(10000):
            if len(cur) == target:
                return tuple(sorted(cur))
            x = pool[rng.randrange(len(pool))]
            if x in cur:
                continue
            grown = self.closure(cur | {x})
            if len(grown) <= target and is_power_of(len(grown), p):
                cur = set(grown)
        raise PreconditionError("Sylow subgroup search did not converge")

    def is_nilpotent(self) -> bool:
        """Whether every Sylow subgroup is normal, checked by conjugation."""
        from .numth import prime_divisors

        return all(self.is_normal(self.sylow_subgroup(p)) for p in prime_divisors(self.size))

    def is_isomorphic(self, other: "FiniteGroup") -> bool:
        """Decide isomorphism by element orders, then a generator-image search."""
        if self.size != other.size:
            return False
        if max(self.size, other.size) > ISO_SIZE_LIMIT:
            raise SizeLimitError(f"isomorphism testing is capped at {ISO_SIZE_LIMIT} elements")
        if Counter(self.element_orders()) != Counter(other.element_orders()):
            return False
        mine, theirs = self.is_abelian(), other.is_abelian()
        if mine != theirs:
            return False
        if mine:
            # abelian groups are determined by their element orders
            return True
        return self._isomorphism_search(other)

    def _isomorphism_search(self, other: "FiniteGroup") -> bool:
        gens = self.generating_sequence()
        my_orders, their_orders = self.element_orders(), other.element_orders()
        cands = [[h for h in range(other.size) if their_orders[h] == my_orders[g]] for g in gens]

        def extend(images: list[int]) -> dict[int, int] | None:
            # grow the partial map over the subgroup the chosen images define;
            # every (element, generator) product is checked, so a full map is
            # automatically a bijective homomorphism
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

        def dfs(k: int, images: list[int]) -> bool:
            if k == len(gens):
                m = extend(images)
                return m is not None and len(m) == self.size
            for h in cands[k]:
                if extend(images + [h]) is not None and dfs(k + 1, images + [h]):
                    return True
            return False

        return dfs(0, [])


class CyclicGroup(FiniteGroup):
    """Integers modulo n under addition."""

    def __init__(self, n: int, name: str | None = None):
        super().__init__(n, name or f"C{n}")
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.size

    def inv(self, a: int) -> int:
        return -a % self.size


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
        super().__init__(math.prod(moduli), name or abelian_name(moduli))
        self.moduli = moduli
        strides = []
        s = 1
        for m in reversed(moduli):
            if m > 1:
                strides.append((m, s))
            s *= m
        self._strides = tuple(strides)
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        out = 0
        for m, s in self._strides:
            out += (a // s + b // s) % m * s
        return out

    def inv(self, a: int) -> int:
        out = 0
        for m, s in self._strides:
            out += -(a // s) % m * s
        return out


class DirectProductGroup(FiniteGroup):
    """Componentwise product of two groups; index is left * |right| + right."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup, name: str | None = None):
        super().__init__(left.size * right.size, name or f"{left.name}x{right.name}")
        self.left = left
        self.right = right
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        h = self.right.size
        a1, a2 = divmod(a, h)
        b1, b2 = divmod(b, h)
        return self.left.mul(a1, b1) * h + self.right.mul(a2, b2)

    def inv(self, a: int) -> int:
        h = self.right.size
        a1, a2 = divmod(a, h)
        return self.left.inv(a1) * h + self.right.inv(a2)


class SemidirectProductGroup(FiniteGroup):
    """Split extension of target by a cyclic group C_k whose generator acts
    as the automorphism gen_perm.

    Elements are pairs (n, h) with index n * k + h; h acts on the target
    through the permutation gen_perm**h.
    """

    def __init__(self, target: FiniteGroup, k: int, gen_perm, name: str | None = None):
        super().__init__(target.size * k, name or f"{target.name}:C{k}")
        n = target.size
        gen_perm = tuple(gen_perm)
        if sorted(gen_perm) != list(range(n)):
            raise ActionNotAutomorphism("the generator does not permute the target")
        perms = [tuple(range(n))]
        for _ in range(k - 1):
            perms.append(tuple(gen_perm[x] for x in perms[-1]))
        # a list, not an iterator: every power is checked on the same pairs
        if n <= _EXHAUSTIVE_PAIRS:
            pairs = [(a, b) for a in range(n) for b in range(n)]
        else:
            draws = iter(_seeded_draws(0, n, 2 * _SPOT_SAMPLES))
            pairs = list(zip(draws, draws))
        mul = target.mul
        for h, perm in enumerate(perms):
            for a, b in pairs:
                if perm[mul(a, b)] != mul(perm[a], perm[b]):
                    raise ActionNotAutomorphism(f"acting element {h} breaks the product at ({a}, {b})")
        if tuple(gen_perm[x] for x in perms[-1]) != perms[0]:
            raise ActionNotHomomorphism(f"the generator's automorphism does not have order dividing {k}")
        self.target = target
        self.k = k
        self.perms = tuple(perms)
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        k = self.k
        n1, h1 = divmod(a, k)
        n2, h2 = divmod(b, k)
        return self.target.mul(n1, self.perms[h1][n2]) * k + (h1 + h2) % k

    def inv(self, a: int) -> int:
        k = self.k
        n1, h1 = divmod(a, k)
        hi = -h1 % k
        return self.perms[hi][self.target.inv(n1)] * k + hi


class DicyclicGroup(FiniteGroup):
    """Group of order 4m with a of order 2m, b**2 = a**m and b a b' = a'.

    Elements are a**i * b**j with index i * 2 + j.
    """

    def __init__(self, order: int, name: str | None = None):
        m, r = divmod(order, 4)
        if r or m < 1:
            raise PreconditionError("dicyclic groups have order divisible by 4")
        super().__init__(order, name or f"Dic{order}")
        self.m = m
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        i1, j1 = divmod(a, 2)
        i2, j2 = divmod(b, 2)
        tm = 2 * self.m
        if j1 == 0:
            return (i1 + i2) % tm * 2 + j2
        if j2 == 0:
            return (i1 - i2) % tm * 2 + 1
        return (i1 - i2 + self.m) % tm * 2

    def inv(self, a: int) -> int:
        i, j = divmod(a, 2)
        if j == 0:
            return -i % (2 * self.m) * 2
        return (i + self.m) % (2 * self.m) * 2 + 1


class HeisenbergGroup(FiniteGroup):
    """Unitriangular 3x3 matrices over the prime field, for odd p.

    Entries (a, b, c) multiply by (a+a', b+b', c+c'+a*b'); the index is
    a*p**2 + b*p + c.
    """

    def __init__(self, p: int, name: str | None = None):
        if not is_prime(p) or p == 2:
            raise PreconditionError("this construction needs an odd prime")
        super().__init__(p**3, name or f"Heis{p}")
        self.p = p
        self._finalize()

    def mul(self, x: int, y: int) -> int:
        p = self.p
        a1, r1 = divmod(x, p * p)
        b1, c1 = divmod(r1, p)
        a2, r2 = divmod(y, p * p)
        b2, c2 = divmod(r2, p)
        return (a1 + a2) % p * p * p + (b1 + b2) % p * p + (c1 + c2 + a1 * b2) % p

    def inv(self, x: int) -> int:
        p = self.p
        a, r = divmod(x, p * p)
        b, c = divmod(r, p)
        return -a % p * p * p + -b % p * p + (a * b - c) % p


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
        super().__init__(len(elems), name or f"Perm{len(elems)}")
        self.degree = degree
        self.perms = elems
        self._index = index
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        pa, pb = self.perms[a], self.perms[b]
        return self._index[tuple(pa[i] for i in pb)]

    def inv(self, a: int) -> int:
        pa = self.perms[a]
        out = [0] * self.degree
        for i, j in enumerate(pa):
            out[j] = i
        return self._index[tuple(out)]


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table."""

    def __init__(self, table, name: str | None = None):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        super().__init__(n, name or f"Table{n}")
        for row in rows:
            if len(row) != n or any(not 0 <= e < n for e in row):
                raise PreconditionError("each table row must list an index for every element")
        self.table = rows
        invs = []
        for a, row in enumerate(rows):
            try:
                b = row.index(0)
            except ValueError:
                raise PreconditionError(f"element {a} has no right inverse") from None
            if rows[b][a] != 0:
                raise PreconditionError(f"element {a} has no two-sided inverse")
            invs.append(b)
        self._inv = tuple(invs)
        self._finalize()

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]


def cyclic(n: int) -> CyclicGroup:
    return CyclicGroup(n)


def abelian_name(moduli) -> str:
    """The default name of AbelianGroup(moduli), such as C2xC2; C1 for no moduli."""
    return "x".join(f"C{m}" for m in moduli) or "C1"


def abelian(moduli, name: str | None = None) -> AbelianGroup:
    return AbelianGroup(moduli, name)


def direct_product(left: FiniteGroup, right: FiniteGroup, name: str | None = None) -> DirectProductGroup:
    return DirectProductGroup(left, right, name)


def power_map(n: int, r: int) -> tuple[int, ...]:
    """The map x -> r*x on the cyclic group of order n; r = -1 inverts."""
    return tuple(r * x % n for x in range(n))


def dihedral(order: int) -> FiniteGroup:
    """Symmetries of the regular (order/2)-gon."""
    if order % 2 or order < 2:
        raise PreconditionError("dihedral groups have even order")
    m = order // 2
    return SemidirectProductGroup(CyclicGroup(m), 2, power_map(m, -1), name=f"D{order}")


def heisenberg(p: int) -> HeisenbergGroup:
    return HeisenbergGroup(p)


def symmetric(m: int) -> PermutationGroup:
    """Symmetric group on m points."""
    if m < 1:
        raise PreconditionError("need at least one point")
    if m == 1:
        return PermutationGroup(1, [], name="S1")
    swap = list(range(m))
    swap[0], swap[1] = 1, 0
    cycle = tuple((i + 1) % m for i in range(m))
    return PermutationGroup(m, [tuple(swap), cycle], name=f"S{m}")


def alternating(m: int) -> PermutationGroup:
    """Alternating group on m points, generated by 3-cycles through 0 and 1."""
    if m < 1:
        raise PreconditionError("need at least one point")
    if m < 3:
        return PermutationGroup(m, [], name=f"A{m}")
    gens = []
    for k in range(2, m):
        p = list(range(m))
        p[0], p[1], p[k] = 1, k, 0
        gens.append(tuple(p))
    return PermutationGroup(m, gens, name=f"A{m}")
