"""Finite posets built from a comparison callable, with Hasse diagrams.

Items compare through a user relation that must be reflexive and
transitive on the items themselves; mutually comparable items are
collapsed into one class.  A poset holds the relation as one int bitmask
per class, its up-set (`Poset.up`), so a step over a whole row is one
big-int operation.  Rows of the callable's answers become masks through
`itertools.compress`, and the checks fold masks with `functools.reduce`,
without a Python step per set bit: one sweep ORs the strict up-sets in
each item's row, which checks transitivity and, when no items collapse,
antisymmetry at once; a second sweep runs only over collapsed rows.  The
Hasse covers are peeled off each up-set along a linear extension, one
step per cover, and must close back to the relation, checked cover by
cover in one backward pass.
`coordinatewise_up` builds such up-set masks for vectors under the
coordinatewise order directly, from one sort per coordinate.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from itertools import compress, repeat
from operator import and_, or_

from .errors import PreconditionError
from .records import FrozenRecord


class Poset(FrozenRecord):
    """Collapsed partial order; names label classes, members list items.

    up[a] has bit b set when class a lies below or at class b.
    """

    def __init__(self, names: tuple[str, ...], members: tuple[tuple[str, ...], ...], up: tuple[int, ...]):
        super().__init__(names, members, up)


def _selector(mask: int) -> bytes:
    """Selector for itertools.compress: byte j is truthy when bit j of mask is set."""
    return bin(mask)[:1:-1].encode().replace(b"0", b"\0")


def coordinatewise_up(vectors) -> list[int]:
    """Up-set masks of equal-length integer vectors under the coordinatewise order.

    Bit i of the j-th mask is set when vectors[i] is at least vectors[j]
    at every coordinate.  Per coordinate, the items are bucketed by value
    and the buckets ORed from the largest value down into one at-least
    mask per value; an item's mask is the AND of its at-least masks over
    the coordinates: one sort and k big-int ANDs per coordinate for k
    items, not k² comparisons.
    """
    vectors = list(vectors)
    if len(set(map(len, vectors))) > 1:
        raise PreconditionError("vectors must have equal lengths")
    bit = [1 << i for i in range(len(vectors))]
    up = [(1 << len(vectors)) - 1] * len(vectors)
    for column in zip(*vectors):
        at_least: dict[int, int] = {}
        for x, b in zip(column, bit):
            at_least[x] = at_least.get(x, 0) | b
        above = 0
        for x in sorted(at_least, reverse=True):
            above = at_least[x] = above | at_least[x]
        up = list(map(and_, up, map(at_least.__getitem__, column)))
    return up


def _strictly_above(rows, up) -> list[int]:
    """Per row, the OR of the strict up-sets of the items it holds: one mask sweep."""
    strict = [mask & ~(1 << j) for j, mask in enumerate(up)]
    return [reduce(or_, compress(strict, row)) for row in rows]


def build_poset(items, leq) -> Poset:
    """Build a poset from (name, value) pairs under the given relation.

    Values comparable both ways share a class named by joining their
    sorted item names with '='.
    """
    items = list(items)
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise PreconditionError("item names must be distinct")
    values = [value for _, value in items]
    bit = [1 << j for j in range(len(values))]
    rows = [list(map(leq, repeat(x), values)) for x in values]
    for i, row in enumerate(rows):
        if not row[i]:
            raise PreconditionError(f"relation is not reflexive at {names[i]}")
    up = [sum(compress(bit, row)) for row in rows]
    above = _strictly_above(rows, up)
    # every j in a row lies in the row's up-set, so that up-set holds each
    # up[j] exactly when it holds what lies strictly above the row's items
    if any(x & ~mask for x, mask in zip(above, up)):
        raise PreconditionError("relation is not transitive")
    # now items comparable both ways are those with equal up-sets, so the
    # classes are the distinct up-sets, listed by their lowest item
    classes: dict[int, list[str]] = {}
    for name, mask in zip(names, up):
        classes.setdefault(mask, []).append(name)
    members = tuple(tuple(sorted(group)) for group in classes.values())
    class_names = tuple("=".join(m) for m in members)
    if len(classes) < len(values):
        lowest: dict[int, int] = {}
        keep = [lowest.setdefault(mask, i) == i for i, mask in enumerate(up)]
        rows = [list(compress(row, keep)) for row in compress(rows, keep)]
        up = [sum(compress(bit, row)) for row in rows]
        above = _strictly_above(rows, up)
    # no class strictly above a class may also lie strictly below it
    if any(x >> a & 1 for a, x in enumerate(above)):
        raise AssertionError("collapsing must leave an antisymmetric relation")
    return Poset(class_names, members, tuple(up))


def hasse(poset: Poset) -> list[tuple[int, int]]:
    """Cover pairs (lower, higher) of the transitive reduction, sorted.

    Classes are renumbered along a linear extension (larger up-sets
    first, since a class has a larger up-set than anything strictly above
    it).  Then the lowest-numbered class left in a strict up-set is a
    cover, and dropping it together with its own up-set leaves only what
    is not above it: one step per cover.  The covers must close back to
    the relation in one backward pass, which refuses any relation that is
    not a partial order.
    """
    k = len(poset.up)
    order = sorted(range(k), key=lambda a: -poset.up[a].bit_count())
    pos_bit = [0] * k
    for i, a in enumerate(order):
        pos_bit[a] = 1 << i
    up = [sum(compress(pos_bit, _selector(poset.up[a]))) for a in order]
    # reach[j] is still 0 for j < i, so a cover at an earlier position
    # leaves reach[i] short of up[i] and fails the closure check
    covers = []
    reach = [0] * k
    for i in reversed(range(k)):
        reach[i] = 1 << i
        rest = up[i] & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((order[i], order[j]))
            reach[i] |= reach[j]
            rest &= ~(up[j] | 1 << j)
    if reach != up:
        raise AssertionError("transitive reduction must close back to the relation")
    return sorted(covers)


def extremes(poset: Poset):
    """(maximal names, minimal names, unique maximum name or None)."""
    strict = [mask & ~(1 << a) for a, mask in enumerate(poset.up)]
    above_something = reduce(or_, strict, 0)
    maximal = [name for name, mask in zip(poset.names, strict) if not mask]
    minimal = [name for a, name in enumerate(poset.names) if not above_something >> a & 1]
    unique_max = maximal[0] if len(maximal) == 1 else None
    return maximal, minimal, unique_max


def render(poset: Poset, fmt: str = "dot") -> str:
    """Render the Hasse diagram, with classes listed in name order."""
    order = sorted(range(len(poset.names)), key=lambda i: poset.names[i])
    pos = {old: new for new, old in enumerate(order)}
    covers = sorted((pos[a], pos[b]) for a, b in hasse(poset))
    names = [poset.names[i] for i in order]
    members = [poset.members[i] for i in order]
    if fmt == "dot":
        ids = []
        for name in names:
            base = sanitize_identifier(name)
            if base[0].isdigit():
                base = "n_" + base
            ident, k = base, 1
            while ident in ids:
                k += 1
                ident = f"{base}_{k}"
            ids.append(ident)
        lines = ["digraph {", "  rankdir=BT;"]
        for ident, name in zip(ids, names):
            label = name.replace('"', "'")
            lines.append(f'  {ident} [label="{label}"];')
        for a, b in covers:
            lines.append(f"  {ids[a]} -> {ids[b]};")
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        payload = {
            "items": [
                {"name": name, "members": list(mem)}
                for name, mem in zip(names, members)
            ],
            "covers": [[a, b] for a, b in covers],
        }
        return json.dumps(payload, indent=2)
    raise PreconditionError(f"unknown render format {fmt!r}")


def sanitize_identifier(name: str) -> str:
    """Collapse a free-form name into an identifier-safe token."""
    return re.sub(r"[^0-9A-Za-z]+", "_", name).strip("_") or "item"
