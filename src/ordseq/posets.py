"""Finite posets built from a comparison callable, with Hasse diagrams.

Items compare through a user relation that is only assumed reflexive and
transitive; mutually comparable items are collapsed into one class unless
the caller forbids that.  The transitivity check and the Hasse covers
work on each row of the relation held as an int bitmask, so a step over
a whole row is one big-int operation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import AntisymmetryViolation, PreconditionError


@dataclass(frozen=True)
class Poset:
    """Collapsed partial order; names label classes, members list items."""

    names: tuple[str, ...]
    members: tuple[tuple[str, ...], ...]
    relation: tuple[tuple[bool, ...], ...]

    def index(self, name: str) -> int:
        for i, nm in enumerate(self.names):
            if nm == name or name in self.members[i]:
                return i
        raise PreconditionError(f"{name} is not in the poset")

    def leq(self, a: str, b: str) -> bool:
        return self.relation[self.index(a)][self.index(b)]


def _mask(row) -> int:
    """Row of booleans as an int with bit j set when row[j] holds."""
    return sum(1 << j for j, x in enumerate(row) if x)


def _bits(mask: int):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(items, leq, collapse: bool = True) -> Poset:
    """Build a poset from (name, value) pairs under the given relation.

    When collapse is set, values comparable both ways share a class named
    by joining their sorted item names with '='; otherwise such a pair
    raises AntisymmetryViolation.
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
    cls_of = list(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if rel[i][j] and rel[j][i]:
                if not collapse:
                    raise AntisymmetryViolation(f"{names[i]} and {names[j]} compare below each other")
                root = min(cls_of[i], cls_of[j])
                old_i, old_j = cls_of[i], cls_of[j]
                for t in range(k):
                    if cls_of[t] in (old_i, old_j):
                        cls_of[t] = root
    reps = sorted(set(cls_of))
    members = tuple(tuple(sorted(names[t] for t in range(k) if cls_of[t] == r)) for r in reps)
    class_names = tuple("=".join(m) for m in members)
    crel = tuple(tuple(rel[ra][rb] for rb in reps) for ra in reps)
    cup = [_mask(row) for row in crel]
    for a, above in enumerate(cup):
        for b in _bits(above):
            if cup[b] & ~above:
                raise PreconditionError("relation is not transitive")
    for a, above in enumerate(cup):
        for b in _bits(above & ~(1 << a)):
            if cup[b] >> a & 1:
                raise AssertionError("collapsing must leave an antisymmetric relation")
    return Poset(class_names, members, crel)


def hasse(poset: Poset) -> list[tuple[int, int]]:
    """Cover pairs (lower, higher) of the transitive reduction.

    b covers a when b is strictly above a and nothing lies strictly
    between them: the strict up-set of a meets the strict down-set of b
    nowhere.
    """
    k = len(poset.names)
    up = [_mask(row) for row in poset.relation]
    above = [m & ~(1 << a) for a, m in enumerate(up)]
    below = [0] * k
    for a, m in enumerate(above):
        for b in _bits(m):
            below[b] |= 1 << a
    covers = [(a, b) for a in range(k) for b in _bits(above[a]) if not above[a] & below[b]]
    # the reduction must regenerate the original order
    reach = [1 << a for a in range(k)]
    for a, b in covers:
        reach[a] |= 1 << b
    for mid in range(k):
        bit, via = 1 << mid, reach[mid]
        for a in range(k):
            if reach[a] & bit:
                reach[a] |= via
    if reach != up:
        raise AssertionError("transitive reduction must close back to the relation")
    return covers


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
        used: dict[str, int] = {}
        for name in names:
            ident = sanitize_identifier(name)
            if ident[0].isdigit():
                ident = "n_" + ident
            used[ident] = used.get(ident, 0) + 1
            ids.append(ident if used[ident] == 1 else f"{ident}_{used[ident]}")
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
