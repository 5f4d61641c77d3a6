"""Finite fields of prime-power order and the groups built on them.

Field elements are bare integer codes 0..q-1 whose base-p digits are the
coefficients of a polynomial, constant digit first.  The modulus is the
first monic irreducible polynomial in code order.  Addition is digit-wise
mod p, which is exactly the elementary abelian group C_p**d on the same
codes; multiplication reads exp/log tables over the lowest-coded
primitive element, so every order up to FIELD_SIZE_LIMIT takes the same
path.  The groups are the affine maps x -> a*x + b with a in a cyclic
subgroup of the units, as the field's additive group extended by that
subgroup, and PSL(3,4) as a permutation group on the 21 points of its
projective plane.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .errors import NoSuchOrder, PreconditionError, SizeLimitError
from .groups import CyclicExtensionGroup, PermutationGroup, abelian
from .numth import factorize, is_prime

FIELD_SIZE_LIMIT = 4096


def _digits_of(code: int, length: int, p: int) -> list[int]:
    out = []
    for _ in range(length):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _poly_divisible(dividend, divisor, p: int) -> bool:
    """Whether a monic divisor divides the polynomial, both little-endian."""
    rem = list(dividend)
    dv = len(divisor) - 1
    for i in range(len(rem) - 1, dv - 1, -1):
        c = rem[i]
        if c:
            for j in range(dv + 1):
                rem[i - dv + j] = (rem[i - dv + j] - c * divisor[j]) % p
    return not any(rem)


class FiniteField:
    """Field with p**d elements and arithmetic on integer codes.

    `add` and `neg` are the product and inverse of `additive`, the
    abelian([p] * d), whose stride arithmetic adds the base-p digits
    mod p.  `mul`, `inv` and `element_order` go through the discrete
    logarithm to the base of the lowest-coded primitive element (Lidl &
    Niederreiter, Finite Fields, ch. 9): exp[i] is its i-th power and log
    inverts exp.
    """

    def __init__(self, p: int, d: int):
        if not is_prime(p) or d < 1:
            raise PreconditionError("field order must be a prime power")
        if p**d > FIELD_SIZE_LIMIT:
            raise SizeLimitError(f"field order exceeds the cap of {FIELD_SIZE_LIMIT}")
        self.p = p
        self.d = d
        self.order = p**d
        self.modulus = self._find_modulus()
        self.additive = abelian([p] * d)
        self.add = self.additive.mul
        self.neg = self.additive.inv
        self._exp = self._primitive_powers()
        self._log = [0] * self.order
        for i, x in enumerate(self._exp):
            self._log[x] = i

    def __repr__(self) -> str:
        return f"<FiniteField of order {self.order}>"

    def _find_modulus(self) -> tuple[int, ...]:
        p, d = self.p, self.d
        if d == 1:
            return (0,)
        for m in range(self.order):
            low = _digits_of(m, d, p)
            poly = low + [1]
            composite = False
            for k in range(1, d):
                for t in range(p**k):
                    if _poly_divisible(poly, _digits_of(t, k, p) + [1], p):
                        composite = True
                        break
                if composite:
                    break
            if not composite:
                return tuple(low)
        raise AssertionError("an irreducible polynomial always exists")

    def _poly_mul(self, a: int, b: int) -> int:
        p, d = self.p, self.d
        da, db = _digits_of(a, d, p), _digits_of(b, d, p)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, mj in enumerate(self.modulus):
                    prod[i - d + j] = (prod[i - d + j] - c * mj) % p
        code = 0
        for x in reversed(prod[:d]):
            code = code * p + x
        return code

    def _primitive_powers(self) -> list[int]:
        """The powers 1, g, g**2, ... of the lowest-coded primitive element g."""
        for g in range(1, self.order):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._poly_mul(x, g)
            if len(powers) == self.order - 1:
                return powers
        raise AssertionError("the unit group of a finite field is cyclic")

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[-self._log[a] % (self.order - 1)]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("0 has no multiplicative order")
        return (self.order - 1) // math.gcd(self.order - 1, self._log[a])


@lru_cache(maxsize=None)
def make_field(q: int) -> FiniteField:
    fact = factorize(q)
    if len(fact) != 1:
        raise PreconditionError(f"{q} is not a prime power")
    p, d = fact[0]
    return FiniteField(p, d)


def element_of_order(field: FiniteField, r: int) -> int:
    """The lowest-coded field element of multiplicative order r."""
    if r < 1 or (field.order - 1) % r:
        raise NoSuchOrder(f"no element of order {r} in a unit group of size {field.order - 1}")
    for a in range(1, field.order):
        if field.element_order(a) == r:
            return a
    raise AssertionError("a cyclic unit group has elements of every dividing order")


@lru_cache(maxsize=None)
def affine_frobenius_group(p: int, d: int, q: int) -> CyclicExtensionGroup:
    """The affine maps x -> a*x + b over F_(p**d) with a of multiplicative order q.

    This is the field's additive group extended by C_q, whose generator
    multiplies by w, the lowest-coded unit of order q: the map
    x -> w**i * x + b has index b * q + i.
    """
    field = make_field(p**d)
    w = element_of_order(field, q)
    times_w = tuple(field.mul(w, x) for x in range(field.order))
    return CyclicExtensionGroup(field.additive, q, times_w, name=f"Aff({field.order},{q})")


@lru_cache(maxsize=None)
def psl_3_4() -> PermutationGroup:
    """PSL(3,4) as it permutes the 21 points of the projective plane over
    the 4-element field.

    A point is a nonzero vector of F4**3 whose first nonzero coordinate
    is 1.  The six elementary transvections generate SL(3,4), which acts
    on the points with its scalars as kernel, so the image is PSL(3,4).
    """
    f = make_field(4)
    x = element_of_order(f, 3)

    def point(v) -> tuple[int, ...]:
        lead = f.inv(next(c for c in v if c))
        return tuple(f.mul(lead, c) for c in v)

    points = sorted({point(v) for v in product(range(4), repeat=3) if any(v)})
    index = {v: i for i, v in enumerate(points)}
    gens = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        for c in (1, x):
            # the transvection adding c times coordinate j to coordinate i
            images = []
            for v in points:
                w = list(v)
                w[i] = f.add(w[i], f.mul(c, v[j]))
                images.append(index[point(w)])
            gens.append(tuple(images))
    g = PermutationGroup(len(points), gens, "PSL(3,4)")
    if g.size != 20160:
        raise PreconditionError(f"transvection closure found {g.size} elements, not 20160")
    return g
