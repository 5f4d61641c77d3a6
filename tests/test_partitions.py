import hashlib
import json
import math
import random
from collections import Counter

import pytest

from ordseq.errors import (
    NotAbelianPGroupSequence,
    NotMajorized,
    PreconditionError,
    SizeLimitError,
    SizeMismatch,
)
from ordseq.groups import abelian, symmetric
from ordseq.partitions import (
    _box_move,
    _element_counts,
    abelian_order_sequence,
    box_move_chain,
    conjugate,
    cyclic_subgroup_counts,
    defining_partition,
    majorizes,
    partition,
    partitions_of,
)
from ordseq.numth import euler_phi
from ordseq.sequences import OrderSequence, order_sequence, parse_sequence


def test_partition_validation():
    assert partition([4, 1, 1]) == (4, 1, 1)
    assert partition(()) == ()
    with pytest.raises(PreconditionError):
        partition((0,))
    # parts must already be non-increasing
    with pytest.raises(PreconditionError):
        partition((1, 4, 1))


@pytest.mark.parametrize("parts", [(2.7, 1), (1.9,), ["x"], ("3",), (None,), (2, 1.0)])
def test_partition_refuses_non_integer_parts(parts):
    # a float is never truncated and a string never parsed
    with pytest.raises(PreconditionError, match="parts must be integers"):
        partition(parts)


def test_abelian_sequences_refuse_non_integer_parts():
    with pytest.raises(PreconditionError):
        abelian_order_sequence(2, (1.9,))
    with pytest.raises(PreconditionError):
        cyclic_subgroup_counts(3, (2.0, 1))
    assert abelian_order_sequence(2, iter([1])) == abelian_order_sequence(2, (1,))


def test_conjugate():
    assert conjugate((4, 1, 1)) == (3, 1, 1, 1)
    assert conjugate(()) == ()
    for lam in partitions_of(8):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == 8


def test_majorizes():
    assert majorizes((4,), (2, 2))
    assert not majorizes((2, 2), (4,))
    assert not majorizes((4, 1, 1), (3, 3))
    assert not majorizes((3, 3), (4, 1, 1))
    for lam in partitions_of(7):
        assert majorizes(lam, lam)


def test_majorization_flips_under_conjugation():
    parts = partitions_of(7)
    for a in parts:
        for b in parts:
            assert majorizes(a, b) == majorizes(conjugate(b), conjugate(a))
            if a != b:
                assert not (majorizes(a, b) and majorizes(b, a))


def test_partitions_of():
    rows = partitions_of(10)
    assert len(rows) == 42
    assert rows[0] == (10,)
    assert rows[-1] == (1,) * 10
    assert all(rows[i] > rows[i + 1] for i in range(len(rows) - 1))
    assert partitions_of(0) == [()]


def test_partitions_of_limits():
    with pytest.raises(SizeLimitError):
        partitions_of(61)
    with pytest.raises(PreconditionError):
        partitions_of(-1)


def test_abelian_p_groups_share_the_partition_cap():
    assert abelian_order_sequence(2, (60,)).total == 2**60
    for parts in ((61,), (60, 1), (15000, 1)):
        with pytest.raises(SizeLimitError):
            abelian_order_sequence(2, parts)
        with pytest.raises(SizeLimitError):
            cyclic_subgroup_counts(2, parts)


def test_abelian_order_sequence_frozen():
    s = abelian_order_sequence(2, (4, 1, 1))
    assert str(s) == "1:1,2:7,4:8,8:16,16:32"


@pytest.mark.parametrize("p", [2, 3])
def test_abelian_order_sequence_matches_group(p):
    for n in range(1, 6):
        for lam in partitions_of(n):
            g = abelian([p**k for k in lam])
            assert abelian_order_sequence(p, lam) == order_sequence(g)


def test_cyclic_subgroup_counts():
    c = cyclic_subgroup_counts(2, (4, 1, 1))
    assert c.total == 20
    assert c.part_product == 20
    assert sum(c.element_counts) == 2**6 - 1
    for j, (elems, subs) in enumerate(zip(c.element_counts, c.subgroup_counts), start=1):
        assert subs * euler_phi(2**j) == elems

    c = cyclic_subgroup_counts(2, (3, 3))
    assert c.total == 22
    assert c.part_product == 16


def test_cyclic_counts_agree_with_sequence():
    for lam in partitions_of(5):
        c = cyclic_subgroup_counts(3, lam)
        s = abelian_order_sequence(3, lam)
        for j, count in enumerate(c.element_counts, start=1):
            assert count == s.multiplicity(3**j)


@pytest.mark.parametrize("p", [2, 3])
def test_cyclic_counts_match_the_built_group(p):
    # independent of the closed form: count the distinct cyclic subgroups of the built group
    for n in range(7):
        for lam in partitions_of(n):
            if p**n > 64:
                continue
            g = abelian([p**k for k in lam])
            by_size = Counter(len(c) for c in {frozenset(g.closure([x])) for x in range(g.size)})
            c = cyclic_subgroup_counts(p, lam)
            assert c.subgroup_counts == tuple(by_size[p**j] for j in range(1, len(c.subgroup_counts) + 1))
            assert c.total == sum(by_size.values())


def _part_product(parts):
    return math.prod(r + 1 for r in parts)


def test_box_move_chain_endpoints():
    chain = box_move_chain((4, 1, 1), (2, 2, 2))
    assert chain[0] == (4, 1, 1)
    assert chain[-1] == (2, 2, 2)
    assert box_move_chain((3, 1), (3, 1)) == []


def test_box_move_chain_steps_everywhere():
    parts = partitions_of(6)
    for b in parts:
        for c in parts:
            if not majorizes(b, c) or b == c:
                continue
            chain = box_move_chain(b, c)
            assert chain[0] == b and chain[-1] == c
            for x, y in zip(chain, chain[1:]):
                assert sum(x) == sum(y)
                assert majorizes(x, y) and x != y
                # one box moves per step, raising the subgroup count product
                width = max(len(x), len(y))
                padded_x = x + (0,) * (width - len(x))
                padded_y = y + (0,) * (width - len(y))
                assert sum(abs(a - b2) for a, b2 in zip(padded_x, padded_y)) == 2
                assert _part_product(y) > _part_product(x)


def test_box_move_chain_stays_among_partitions_of_n():
    # suite_partition looks every chain step up among partitions_of(n)
    for n in range(11):
        parts = partitions_of(n)
        known = set(parts)
        for b in parts:
            for c in parts:
                if majorizes(b, c):
                    assert set(box_move_chain(b, c)) <= known, (b, c)


def test_box_move_chain_digest_is_pinned():
    # `partition B --chain C` prints these chains, so they must not move
    h = hashlib.sha256()
    pairs = 0
    for n in range(11):
        parts = partitions_of(n)
        for b in parts:
            for c in parts:
                if majorizes(b, c):
                    h.update(repr(box_move_chain(b, c)).encode())
                    pairs += 1
    assert pairs == 1720
    assert h.hexdigest()[:16] == "4e997adddc01490e"


def test_partition_kernels_are_pinned():
    # pinned to the output of the earlier list-based kernels: every box move
    # between majorizing partitions up to 14, and every layer count
    moves = [
        [b, c, _box_move(b, c)]
        for n in range(15)
        for b in partitions_of(n)
        for c in partitions_of(n)
        if b != c and majorizes(b, c)
    ]
    counts = [[p, lam, _element_counts(p, lam)] for p in (2, 3, 5) for n in range(15) for lam in partitions_of(n)]
    assert (len(moves), len(counts)) == (17470, 1524)
    digest = hashlib.sha256(json.dumps([moves, counts]).encode()).hexdigest()
    assert digest == "5074822df1438b6dc19572b9c3349fd6c75d1f69b7bd28a72b30e9b168a176e9"


def test_box_move_chain_errors():
    with pytest.raises(SizeMismatch):
        box_move_chain((3,), (2, 2))
    with pytest.raises(NotMajorized):
        box_move_chain((3, 3), (4, 1, 1))


@pytest.mark.parametrize("p", [2, 3])
def test_defining_partition_round_trip(p):
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert defining_partition(abelian_order_sequence(p, lam), p) == lam


def _perturbed(rng, seq, p):
    """seq with one order or multiplicity nudged, one order dropped, or one order added."""
    pairs = [list(pair) for pair in seq.pairs]
    i = rng.randrange(len(pairs))
    move = rng.randrange(4)
    if move == 0:
        pairs[i][1] = max(1, pairs[i][1] + rng.choice([-p, -1, 1, p, p * p - 1]))
    elif move == 1:
        pairs[i][0] *= rng.choice([2, 3, p])
    elif move == 2 and len(pairs) > 1:
        del pairs[i]
    else:
        pairs.append([pairs[-1][0] * p, rng.randrange(1, 3 * p**3)])
    return OrderSequence(pairs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_defining_partition_inverts_exactly(p):
    rng = random.Random(p)
    for n in range(8):
        for lam in partitions_of(n):
            seq = abelian_order_sequence(p, lam)
            assert defining_partition(seq, p) == lam
            for _ in range(10):
                fake = _perturbed(rng, seq, p)
                try:
                    found = defining_partition(fake, p)
                except NotAbelianPGroupSequence:
                    continue
                assert abelian_order_sequence(p, found) == fake


def test_defining_partition_rejects_non_p_groups():
    with pytest.raises(NotAbelianPGroupSequence):
        defining_partition(order_sequence(symmetric(3)), 2)
    with pytest.raises(NotAbelianPGroupSequence):
        defining_partition(parse_sequence("1:1,4:12"), 2)
    with pytest.raises(PreconditionError):
        defining_partition(parse_sequence("1:1,2:3"), 6)
