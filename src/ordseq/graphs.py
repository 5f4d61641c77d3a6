"""Graphs attached to groups and a canonical form for isomorphism.

Graphs are small and labelled; the canonical form of an undirected graph
ignores the labels and comes from color refinement with individualization,
pruning vertices that are interchangeable twins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError, SizeLimitError
from .numth import prime_divisors

POWER_GRAPH_LIMIT = 2048
CANONICAL_LIMIT = 64


@dataclass(frozen=True)
class LabeledGraph:
    """Vertices 0..n-1 with string labels; edges normalized when undirected."""

    n: int
    labels: tuple[str, ...]
    edges: frozenset
    directed: bool = False

    def __post_init__(self):
        if len(self.labels) != self.n:
            raise PreconditionError("need one label per vertex")
        for a, b in self.edges:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise PreconditionError(f"edge ({a}, {b}) is not a pair of distinct vertices")
            if not self.directed and a > b:
                raise PreconditionError("undirected edges must be stored low-high")


def power_graph(group) -> LabeledGraph:
    """Undirected graph joining g and h when one is a power of the other."""
    n = group.size
    if n > POWER_GRAPH_LIMIT:
        raise SizeLimitError(f"power graphs are capped at {POWER_GRAPH_LIMIT} vertices")
    edges = set()
    for g in range(1, n):
        x = group.mul(g, g)
        while x != g:
            edges.add((min(g, x), max(g, x)))
            x = group.mul(x, g)
    labels = tuple(str(i) for i in range(n))
    return LabeledGraph(n, labels, frozenset(edges), directed=False)


def directed_power_graph(group) -> LabeledGraph:
    """Arcs g -> h for every h in the cyclic subgroup of g, h distinct."""
    n = group.size
    if n > POWER_GRAPH_LIMIT:
        raise SizeLimitError(f"power graphs are capped at {POWER_GRAPH_LIMIT} vertices")
    edges = set()
    for g in range(1, n):
        x = g
        while True:
            x = group.mul(x, g)
            if x == g:
                break
            edges.add((g, x))
    labels = tuple(str(i) for i in range(n))
    return LabeledGraph(n, labels, frozenset(edges), directed=True)


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


def _twin_classes(cell, nbrs):
    """Group cell vertices that have identical neighborhoods off each other."""
    reps = []
    for v in cell:
        for rep_list in reps:
            u = rep_list[0]
            if nbrs[u] - {v} == nbrs[v] - {u}:
                rep_list.append(v)
                break
        else:
            reps.append([v])
    return [r[0] for r in reps]


def canonical_form(graph: LabeledGraph) -> str:
    """A string form of an undirected graph, equal exactly for isomorphic
    graphs; labels are ignored and the size is capped."""
    n = graph.n
    if graph.directed:
        raise PreconditionError("canonical forms are defined for undirected graphs")
    if n > CANONICAL_LIMIT:
        raise SizeLimitError(f"canonical forms are capped at {CANONICAL_LIMIT} vertices")
    nbrs = _neighbours(graph)
    best: list = [None]

    def leaf_form(colors):
        pos = sorted(range(n), key=lambda v: colors[v])
        where = {v: i for i, v in enumerate(pos)}
        bits = []
        for v in pos:
            row = ["0"] * n
            for u in nbrs[v]:
                row[where[u]] = "1"
            bits.append("".join(row))
        return "|".join(bits)

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
        cell = [v for v in range(n) if colors[v] == target]
        for v in _twin_classes(cell, nbrs):
            child = list(colors)
            child[v] = n + 1
            rec(child)

    rec([0] * n)
    return best[0]
