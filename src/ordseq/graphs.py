"""Graphs attached to groups and a canonical form for isomorphism.

Graphs are small and labelled; the canonical form of an undirected graph
ignores the labels.  It first contracts twins (vertices with the same open
or the same closed neighbourhood) into labelled vertices, then runs color
refinement with individualization on what is left.
"""

from __future__ import annotations

from collections import Counter

from .errors import PreconditionError, SizeLimitError
from .numth import prime_divisors
from .records import FrozenRecord

POWER_GRAPH_LIMIT = 2048
CANONICAL_LIMIT = 64


class LabeledGraph(FrozenRecord):
    """Vertices 0..n-1 with string labels; edges normalized when undirected."""

    def __init__(self, n: int, labels: tuple[str, ...], edges: frozenset, directed: bool = False):
        super().__init__(n, labels, edges, directed)
        if len(self.labels) != self.n:
            raise PreconditionError("need one label per vertex")
        for a, b in self.edges:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise PreconditionError(f"edge ({a}, {b}) is not a pair of distinct vertices")
            if not self.directed and a > b:
                raise PreconditionError("undirected edges must be stored low-high")


def power_graph(group) -> LabeledGraph:
    """Undirected graph joining g and h when one is a power of the other:
    the directed power graph with its arcs made edges."""
    edges = frozenset((min(g, h), max(g, h)) for g, h in _power_arcs(group))
    return LabeledGraph(group.size, tuple(map(str, range(group.size))), edges, directed=False)


def directed_power_graph(group) -> LabeledGraph:
    """Arcs g -> h for every h in the cyclic subgroup of g, h distinct."""
    arcs = frozenset(_power_arcs(group))
    return LabeledGraph(group.size, tuple(map(str, range(group.size))), arcs, directed=True)


def _power_arcs(group):
    """The arcs (g, h) of the directed power graph, walking the powers of each g."""
    n = group.size
    if n > POWER_GRAPH_LIMIT:
        raise SizeLimitError(f"power graphs are capped at {POWER_GRAPH_LIMIT} vertices")
    for g in range(1, n):
        x = group.mul(g, g)
        while x != g:
            yield g, x
            x = group.mul(x, g)


def gk_graph(group) -> LabeledGraph:
    """Prime graph: primes of the group order, joined when an element of
    order exactly p*q exists."""
    primes = prime_divisors(group.size)
    index = {p: i for i, p in enumerate(primes)}
    orders = set(group.element_orders())
    edges = set()
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q in orders:
                edges.add((index[p], index[q]))
    return LabeledGraph(len(primes), tuple(str(p) for p in primes), frozenset(edges), directed=False)


def render_dot(graph: LabeledGraph) -> str:
    """Deterministic DOT text; vertex labels carry the meaning."""
    arrow = "->" if graph.directed else "--"
    lines = ["digraph {" if graph.directed else "graph {"]
    for v in range(graph.n):
        label = graph.labels[v].replace('"', "'")
        lines.append(f'  v{v} [label="{label}"];')
    for a, b in sorted(graph.edges):
        lines.append(f"  v{a} {arrow} v{b};")
    lines.append("}")
    return "\n".join(lines)


def _neighbours(graph: LabeledGraph):
    nbrs = [set() for _ in range(graph.n)]
    for a, b in graph.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def _refine(n: int, nbrs, colors):
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _contract_twins(nbrs):
    """Contract twin classes, round by round, until no twins remain.

    Returns the surviving vertices' neighbour sets, renumbered 0..m-1,
    and their labels.  A label names the induced subgraph its vertex
    stands for: "v" for one vertex, c(...) for a clique of closed twins
    and o(...) for an independent set of open twins, over the sorted
    labels of the members.  No vertex has both a closed and an open twin,
    so the classes of one round are disjoint modules and can all be
    contracted at once, each into its lowest vertex.
    """
    nbrs = {v: set(ns) for v, ns in enumerate(nbrs)}
    labels = {v: "v" for v in nbrs}
    while True:
        classes: dict = {}
        for v, ns in nbrs.items():
            classes.setdefault(("o", frozenset(ns)), []).append(v)
            classes.setdefault(("c", frozenset(ns | {v})), []).append(v)
        removed = set()
        for (kind, _), members in classes.items():
            if len(members) > 1:
                labels[members[0]] = f"{kind}({','.join(sorted(labels[v] for v in members))})"
                removed.update(members[1:])
        if not removed:
            break
        for v in removed:
            del nbrs[v], labels[v]
        for ns in nbrs.values():
            ns -= removed
    index = {v: i for i, v in enumerate(nbrs)}
    return [{index[u] for u in ns} for ns in nbrs.values()], list(labels.values())


def canonical_form(graph: LabeledGraph) -> str:
    """A string form of an undirected graph, equal exactly for isomorphic
    graphs; labels are ignored and the size is capped."""
    if graph.directed:
        raise PreconditionError("canonical forms are defined for undirected graphs")
    if graph.n > CANONICAL_LIMIT:
        raise SizeLimitError(f"canonical forms are capped at {CANONICAL_LIMIT} vertices")
    nbrs, labels = _contract_twins(_neighbours(graph))
    n = len(nbrs)
    best: list = [None]

    def leaf_form(colors):
        pos = sorted(range(n), key=lambda v: colors[v])
        where = {v: i for i, v in enumerate(pos)}
        rows = []
        for v in pos:
            row = ["0"] * n
            for u in nbrs[v]:
                row[where[u]] = "1"
            rows.append(f"{labels[v]}:{''.join(row)}")
        return "|".join(rows)

    def rec(colors):
        colors = _refine(n, nbrs, colors)
        counts = Counter(colors)
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            form = leaf_form(colors)
            if best[0] is None or form < best[0]:
                best[0] = form
            return
        for v in range(n):
            if colors[v] == target:
                child = list(colors)
                child[v] = n + 1
                rec(child)

    rank = {s: i for i, s in enumerate(sorted(set(labels)))}
    rec([rank[s] for s in labels])
    return best[0]
