"""Partitions, majorization, and abelian p-group order sequences.

A partition is a tuple of positive parts in non-increasing order.  For a
prime p, the partition (a_1, ..., a_r) describes the abelian group with
cyclic factors of order p**a_i.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import ge, index, lt

from .errors import (
    NotAbelianPGroupSequence,
    NotMajorized,
    PreconditionError,
    SizeLimitError,
    SizeMismatch,
)
from .numth import is_prime
from .records import FrozenRecord
from .sequences import OrderSequence

MAX_PARTITION_TOTAL = 60


def partition(parts) -> tuple[int, ...]:
    """Validate and normalize a partition given as an iterable of integer parts."""
    try:
        parts = tuple(map(index, parts))
    except TypeError:
        raise PreconditionError("parts must be integers") from None
    if parts and min(parts) < 1:
        raise PreconditionError("parts must be positive")
    if any(map(lt, parts, parts[1:])):
        raise PreconditionError("parts must be non-increasing")
    return parts


def conjugate(a) -> tuple[int, ...]:
    """Transpose of the partition diagram."""
    a = partition(a)
    if not a:
        return ()
    return tuple(sum(1 for x in a if x >= k) for k in range(1, a[0] + 1))


def majorizes(a, b) -> bool:
    """Whether every prefix sum of a is at least the matching one of b."""
    a, b = partition(a), partition(b)
    n = sum(a)
    if n != sum(b):
        raise SizeMismatch(f"partitions have sizes {n} and {sum(b)}")
    return all(map(ge, _prefix_sums(a, n), _prefix_sums(b, n)))


def _prefix_sums(a, n: int) -> tuple[int, ...]:
    """Prefix sums of a valid partition a of n, padded with n to length n."""
    return tuple(accumulate(a)) + (n,) * (n - len(a))


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in reverse lexicographic order."""
    if n < 0:
        raise PreconditionError("cannot partition a negative total")
    if n > MAX_PARTITION_TOTAL:
        raise SizeLimitError(f"partition enumeration is capped at {MAX_PARTITION_TOTAL}")
    out: list[tuple[int, ...]] = []

    def gen(rest: int, cap: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for part in range(min(rest, cap), 0, -1):
            gen(rest - part, part, prefix + (part,))

    gen(n, n, ())
    return out


def _element_counts(p: int, a) -> list[int]:
    """Elements of order p**j, for j = 1, 2, ..., in the abelian p-group of type a.

    p to the j-th prefix sum of the conjugate partition, the sum of
    min(part, j), counts the elements of order dividing p**j (Macdonald,
    Symmetric Functions and Hall Polynomials, II.1), so each layer is the
    rise from the last.  The group has p**|a| elements, so |a| is capped
    at MAX_PARTITION_TOTAL before anything is built.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    a = partition(a)
    if sum(a) > MAX_PARTITION_TOTAL:
        raise SizeLimitError(f"abelian p-groups are capped at p**{MAX_PARTITION_TOTAL} elements")
    counts = []
    below = 1
    m = len(a)  # the parts at least j, the j-th part of the conjugate
    for j in range(1, a[0] + 1 if a else 1):
        while a[m - 1] < j:
            m -= 1
        dividing = below * p**m
        counts.append(dividing - below)
        below = dividing
    return counts


def abelian_order_sequence(p: int, a) -> OrderSequence:
    """Order sequence of the abelian p-group with cyclic factors p**a_i."""
    return OrderSequence([(1, 1), *((p**j, c) for j, c in enumerate(_element_counts(p, a), start=1))])


class CyclicCounts(FrozenRecord):
    """Cyclic subgroup statistics of an abelian p-group.

    element_counts[j-1] and subgroup_counts[j-1] count the elements and
    the cyclic subgroups of order p**j; total includes the trivial
    subgroup.  part_product is the product of (part + 1) over the
    defining partition, which counts something different in general.
    """

    def __init__(self, element_counts: tuple, subgroup_counts: tuple, total: int, part_product: int):
        super().__init__(element_counts, subgroup_counts, total, part_product)


def cyclic_subgroup_counts(p: int, a) -> CyclicCounts:
    """Cyclic subgroup statistics of type a; one of order p**j has p**(j-1) * (p-1) generators."""
    a = partition(a)
    elems = _element_counts(p, a)
    subs = tuple(c // (p ** (j - 1) * (p - 1)) for j, c in enumerate(elems, start=1))
    return CyclicCounts(tuple(elems), subs, 1 + sum(subs), math.prod(x + 1 for x in a))


def box_move_chain(b, c) -> list[tuple[int, ...]]:
    """A chain of single-box moves (see _box_move) from b down to c, inclusive; [] when b == c."""
    b, c = partition(b), partition(c)
    if not majorizes(b, c):
        raise NotMajorized(f"{b} does not majorize {c}")
    if b == c:
        return []
    chain = [b]
    while chain[-1] != c:
        chain.append(_box_move(chain[-1], c))
    return chain


def _box_move(cur, c) -> tuple[int, ...]:
    """The next partition on the chain from cur down to c, for cur majorizing c and not c.

    The step moves one box from an earlier row to a later row, stays a
    valid partition, and still majorizes c.  The box leaves the last row
    of the run of equal parts holding the first row where cur exceeds c,
    for the farthest later row that keeps a partition majorizing c.
    """
    row = cur + (0,)
    c += (0,)  # c is at least as long as cur
    # slack: how far row's prefix sum through k exceeds c's, kept as k runs
    k = 0
    slack = row[0] - c[0]
    while slack <= 0:
        k += 1
        slack += row[k] - c[k]
    while row[k + 1] == row[k]:
        k += 1
        slack += row[k] - c[k]
    r = k
    while k + 1 < len(row) and slack + row[k + 1] - c[k + 1] > 0:
        k += 1
        slack += row[k] - c[k]
    t = k
    for s in range(min(t + 1, len(row) - 1), r, -1):
        if row[s - 1] > row[s] + (s == r + 1):
            break
    else:
        raise AssertionError("a legal box move always exists strictly above the target")
    moved = list(row)
    moved[r] -= 1
    moved[s] += 1
    # row r holds as many boxes as the first row where cur exceeds c, so at
    # least 2: only the padding slot can be 0
    if not moved[-1]:
        del moved[-1]
    return tuple(moved)


def defining_partition(seq: OrderSequence, p: int) -> tuple[int, ...]:
    """Invert abelian_order_sequence: recover the partition from a sequence.

    The walk of _element_counts runs backwards: the floor log base p of
    the count of elements of order dividing p**j rises by the j-th part
    of the candidate's conjugate.  The candidate is returned only when
    its own sequence is seq, else NotAbelianPGroupSequence is raised.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    rises = []
    below = seq.multiplicity(1)  # in the loop: the elements of order dividing q
    reach = 1  # p to the sum of the rises so far
    q = p
    while q <= seq.pairs[-1][0]:
        below += seq.multiplicity(q)
        rise = 0
        while reach * p <= below:
            reach *= p
            rise += 1
        rises.append(rise)
        q *= p
    # sorted and without zeros the rises always form a partition; the round trip decides
    candidate = conjugate(sorted(filter(None, rises), reverse=True))
    if abelian_order_sequence(p, candidate) != seq:
        raise NotAbelianPGroupSequence(f"{seq} is not the order sequence of an abelian {p}-group")
    return candidate
