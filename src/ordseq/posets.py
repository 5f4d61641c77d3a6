"""Finite posets built from a comparison callable, with Hasse diagrams.

Items compare through a user relation that must be reflexive and
transitive on the items themselves; mutually comparable items are
collapsed into one class.  The checks, the classes and the Hasse covers
work on each row of the relation held as an int bitmask, so a step over
a whole row is one big-int operation.  The Hasse covers are peeled off
each up-set along a linear extension, one step per cover, and must close
back to the relation, checked cover by cover in one backward pass.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class Poset:
    """Collapsed partial order; names label classes, members list items."""

    names: tuple[str, ...]
    members: tuple[tuple[str, ...], ...]
    relation: tuple[tuple[bool, ...], ...]


def _mask(row) -> int:
    """Row of booleans as an int with bit j set when row[j] holds."""
    return sum(1 << j for j, x in enumerate(row) if x)


def _bits(mask: int):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(items, leq) -> Poset:
    """Build a poset from (name, value) pairs under the given relation.

    Values comparable both ways share a class named by joining their
    sorted item names with '='.
    """
    items = list(items)
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise PreconditionError("item names must be distinct")
    k = len(items)
    rel = [[leq(items[i][1], items[j][1]) for j in range(k)] for i in range(k)]
    for i in range(k):
        if not rel[i][i]:
            raise PreconditionError(f"relation is not reflexive at {names[i]}")
    up = [_mask(row) for row in rel]
    for a, above in enumerate(up):
        for b in _bits(above):
            if up[b] & ~above:
                raise PreconditionError("relation is not transitive")
    # now items comparable both ways are those with equal up-sets, so each
    # item's class is named by the lowest item with its up-set
    lowest: dict[int, int] = {}
    cls_of = [lowest.setdefault(m, i) for i, m in enumerate(up)]
    reps = sorted(set(cls_of))
    members = tuple(tuple(sorted(names[t] for t in range(k) if cls_of[t] == r)) for r in reps)
    class_names = tuple("=".join(m) for m in members)
    crel = tuple(tuple(rel[ra][rb] for rb in reps) for ra in reps)
    rep_bits = sum(1 << r for r in reps)
    for a in reps:
        for b in _bits(up[a] & rep_bits & ~(1 << a)):
            if up[b] >> a & 1:
                raise AssertionError("collapsing must leave an antisymmetric relation")
    return Poset(class_names, members, crel)


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
    k = len(poset.names)
    rel = poset.relation
    order = sorted(range(k), key=lambda a: -sum(rel[a]))
    up = [_mask([rel[a][b] for b in order]) for a in order]
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
    k = len(poset.names)
    rel = poset.relation
    maximal = [poset.names[a] for a in range(k) if not any(rel[a][b] for b in range(k) if b != a)]
    minimal = [poset.names[a] for a in range(k) if not any(rel[b][a] for b in range(k) if b != a)]
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
